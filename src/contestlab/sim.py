"""Seeded Monte Carlo play-out of a solved contest.

Random numbers come from numpy's Philox4x64 counter-based generator keyed by
the seed.  Each battle step draws one block of 2k uniforms for the k
still-running paths: the first k decide the battles and the next k pick the
lottery legs.  Philox buffers its 64-bit words, so this is the same stream as
a block of k for the battles followed by one for the legs.  The same seed
therefore reproduces the same summary bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automaton import ContestSpec, _whole
from .errors import DomainError
from .metrics import _absorbed_chain, _fields, win_probabilities
from .solver import ValueSolution

__all__ = ["SimulationSummary", "simulate", "compare_sim_analytic"]


@dataclass
class SimulationSummary:
    paths: int
    seed: int
    mean_total_effort: float
    se_total_effort: float
    win_freq_a: float
    se_win: float
    mean_length: float
    truncated_paths: int
    visit_counts: dict
    state_a_wins: dict

    def to_dict(self) -> dict:
        return _fields(
            self,
            visit_counts={str(k): v for k, v in sorted(self.visit_counts.items())},
            state_a_wins={str(k): v for k, v in sorted(self.state_a_wins.items())},
        )


def simulate(
    solution: ValueSolution,
    spec: ContestSpec,
    paths: int,
    seed: int,
    max_steps: int = 10**6,
) -> SimulationSummary:
    """Walk equilibrium play from the start state over many paths.

    Both players' equilibrium efforts accrue at every battle; winners are
    sampled with the solved battle probabilities; lottery legs are resolved
    from their cumulative distribution.  Paths still alive at ``max_steps``
    are flagged truncated: they contribute accrued effort and no winner.
    Raises DegenerateChainError, before any draw, when some nonterminal
    state cannot reach a terminal under the solved battle probabilities.
    """
    if not _whole(paths) or paths < 1:
        raise DomainError("paths must be a positive integer")
    if not _whole(seed) or seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    if not _whole(max_steps) or max_steps < 1:
        raise DomainError("max_steps must be a positive integer")
    paths, seed = int(paths), int(seed)
    m = spec.automaton
    if set(solution.states) != set(m.nonterminal_states):
        raise DomainError("solution does not match the automaton's nonterminal states")
    _absorbed_chain(solution, spec)

    n = m.n
    p_a = np.zeros(n)
    step_cost = np.zeros(n)
    for s, sv in solution.states.items():
        p_a[s] = sv.win_prob_a
        step_cost[s] = sv.effort_a + sv.effort_b
    # padded lottery tables, one row per (state, winner) at 2 * state + winner code
    legs = m.legs
    group = 2 * legs.src + legs.win  # legs of one lottery are adjacent
    pos = np.arange(len(group)) - np.searchsorted(group, group)
    at = (group, pos)
    width = pos.max(initial=0) + 1
    targets = np.zeros((2 * n, width), dtype=np.int64)
    targets[at] = legs.tgt
    chance = np.zeros(targets.shape)
    chance[at] = legs.prob
    cumprob = np.full(targets.shape, 2.0)  # padding above any uniform draw
    cumprob[at] = np.cumsum(chance, axis=1)[at]  # a running sum, leg by leg
    top = np.diff(pos, append=0) <= 0  # the next leg starts a lottery, or none follows
    cumprob[group[top], pos[top]] = 1.0 + 1e-12  # guard the top leg
    # no draw passes the last column (a top guard or padding), so only the
    # columns below it are compared, each as one contiguous row
    bounds = np.ascontiguousarray(cumprob[:, :-1].T)
    targets = targets.ravel()

    rng = np.random.Generator(np.random.Philox(key=seed))

    effort = np.empty(paths)
    length = np.empty(paths, dtype=np.int64)
    winner = np.full(paths, -1, dtype=np.int8)  # 0 = A, 1 = B, -1 = truncated
    tally = np.zeros(2 * n, dtype=np.int64)  # battles per lottery code

    # the running paths, compacted: index, state and accrued effort travel
    # together, and a path's effort and length are written when it ends
    alive = np.arange(paths)
    cur = np.full(paths, m.start, dtype=np.int64)
    accrued = np.zeros(paths)
    draws = np.empty(2 * paths)
    steps = 0
    while True:
        won = legs.outcome[cur]  # winner code of each terminal, -1 elsewhere
        done = np.flatnonzero(won >= 0)
        if done.size:
            out = alive[done]
            winner[out] = won[done]
            effort[out] = accrued[done]
            length[out] = steps
            keep = np.flatnonzero(won < 0)
            alive, cur, accrued = alive[keep], cur[keep], accrued[keep]
        if not alive.size or steps >= max_steps:
            break
        k = alive.size
        rng.random(out=draws[: 2 * k])
        u_battle, u_chance = draws[:k], draws[k : 2 * k]
        lottery = 2 * cur + (u_battle >= p_a[cur])
        tally += np.bincount(lottery, minlength=2 * n)
        accrued += step_cost[cur]
        leg = lottery * width
        for column in bounds:
            leg += u_chance > column[lottery]
        cur = targets[leg]
        steps += 1
    effort[alive] = accrued
    length[alive] = steps
    a_wins = tally[0::2]
    visit_counts = a_wins + tally[1::2]

    truncated = int(alive.size)
    mean_effort = float(np.mean(effort))
    se_effort = (
        float(np.std(effort, ddof=1) / math.sqrt(paths)) if paths > 1 else math.inf
    )
    wins_a = int(np.sum(winner == 0))
    freq_a = wins_a / paths
    se_win = (
        math.sqrt(freq_a * (1.0 - freq_a) / paths) if paths > 1 else math.inf
    )
    return SimulationSummary(
        paths=paths,
        seed=seed,
        mean_total_effort=mean_effort,
        se_total_effort=se_effort,
        win_freq_a=freq_a,
        se_win=se_win,
        mean_length=float(np.mean(length)),
        truncated_paths=truncated,
        visit_counts={s: int(c) for s, c in enumerate(visit_counts) if c},
        state_a_wins={s: int(c) for s, c in enumerate(a_wins) if visit_counts[s]},
    )


def compare_sim_analytic(
    summary: SimulationSummary,
    solution: ValueSolution,
    spec: ContestSpec,
    z_max: float = 4.0,
    min_visits: int = 100,
) -> dict:
    """z-score the simulation against the analytic solution.

    Rows cover total effort, overall win frequency, and visit-conditional
    battle win rates per state with at least ``min_visits`` visits.  A single
    path carries no standard errors, so every check is skipped with a notice.
    """
    rows = []
    notices = []
    if summary.paths < 2:
        notices.append("paths < 2: standard errors undefined, checks skipped")

    analytic_effort = spec.prize - solution.v0_a - solution.v0_b
    rows.append(
        _z_row(
            "total_effort",
            summary.mean_total_effort,
            analytic_effort,
            summary.se_total_effort,
            z_max,
        )
    )
    q_start = win_probabilities(solution, spec)[spec.automaton.start][0]
    se_win = (
        math.sqrt(q_start * (1.0 - q_start) / summary.paths)
        if summary.paths > 1
        else math.inf
    )
    rows.append(_z_row("win_freq_a", summary.win_freq_a, q_start, se_win, z_max))
    for s, visits in sorted(summary.visit_counts.items()):
        if visits < min_visits or s not in solution.states:
            continue
        p = solution.states[s].win_prob_a
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / visits)
        observed = summary.state_a_wins.get(s, 0) / visits
        rows.append(_z_row(f"state_{s}_win_rate", observed, p, se, z_max))
    evaluated = [r for r in rows if not r["skipped"]]
    return {
        "rows": rows,
        "all_pass": all(r["pass"] for r in evaluated) and bool(evaluated),
        "notices": notices,
    }


def _z_row(metric: str, observed: float, expected: float, se: float, z_max: float) -> dict:
    skipped = not math.isfinite(se) or se == 0.0
    z = 0.0 if skipped else (observed - expected) / se
    return {
        "metric": metric,
        "observed": observed,
        "expected": expected,
        "se": se,
        "z": z,
        "pass": bool(skipped or abs(z) <= z_max),
        "skipped": skipped,
    }
