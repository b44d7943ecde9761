"""Seeded Monte Carlo play-out of a solved contest.

Random numbers come from numpy's Philox4x64 counter-based generator keyed by
the seed, which must lie in [0, 2**128).  Each battle step takes two blocks of
k uniforms for the k still-running paths, one after the other through one
reused buffer: the first decides the battles and the second picks the lottery
legs.  Philox buffers its 64-bit words, one a uniform, so this is the stream
of one block of 2k.  Where every lottery has one leg the second block is
passed over unread (``_skip``).  The same seed therefore reproduces the same
summary bit for bit.

The step loop holds the running paths' state only: index, state and accrued
effort, compacted as paths end, beside each path's total effort, the draw
buffer, one float scratch for every gather and the winner codes.  Lengths and
A's wins are counted, not stored.  At 2*10**5 paths the traced peak is about
60 bytes a path.
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
    if seed >= 1 << 128:
        raise DomainError("seed must be below 2**128, the range of a Philox key")
    if not _whole(max_steps) or max_steps < 1:
        raise DomainError("max_steps must be a positive integer")
    paths, seed = int(paths), int(seed)
    m = spec.automaton
    if set(solution.states) != set(m.nonterminal_states):
        raise DomainError("solution does not match the automaton's nonterminal states")
    _absorbed_chain(solution, spec)

    # a path carries its state s as 2s, the code of A's lottery there: a
    # battle's lottery code is that plus the winner code, and the per-state
    # tables are read at 2s
    n = m.n
    p_a = np.zeros(2 * n)
    step_cost = np.zeros(2 * n)
    for s, sv in solution.states.items():
        p_a[2 * s] = sv.win_prob_a
        step_cost[2 * s] = sv.effort_a + sv.effort_b
    legs = m.legs
    outcome = np.repeat(legs.outcome, 2)  # the winner code at a terminal, -1 elsewhere
    # padded lottery tables, one row per (state, winner) at 2 * state + winner code
    group = 2 * legs.src + legs.win  # legs of one lottery are adjacent
    pos = np.arange(len(group)) - np.searchsorted(group, group)
    at = (group, pos)
    width = pos.max(initial=0) + 1
    targets = np.zeros((2 * n, width), dtype=np.intp)
    targets[at] = 2 * legs.tgt
    chance = np.zeros(targets.shape)
    chance[at] = legs.prob
    cumprob = np.full(targets.shape, 2.0)  # padding above any uniform draw
    cumprob[at] = np.cumsum(chance, axis=1)[at]  # a running sum, leg by leg
    top = np.diff(pos, append=0) <= 0  # the next leg starts a lottery, or none follows
    cumprob[group[top], pos[top]] = 1.0 + 1e-12  # guard the top leg
    bounds, targets = cumprob.ravel(), targets.ravel()

    rng = np.random.Generator(np.random.Philox(key=seed))
    try:
        effort = np.empty(paths)  # each path's total, written when it ends
        # the running paths, compacted: index, state and accrued effort travel
        # together
        alive = np.arange(paths)
        cur = np.full(paths, 2 * m.start, dtype=np.intp)
        accrued = np.zeros(paths)
        draws = np.empty(paths)  # the battles' block, then the legs' block
        gathered = np.empty(paths)  # float scratch for every gather
        won = np.empty(paths, dtype=np.int8)
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"too many paths: arrays for {paths} paths cannot be allocated") from exc
    tally = np.zeros(2 * n, dtype=np.int64)  # battles per lottery code
    # A's wins, the summed lengths of the ended paths, the words drawn
    wins_a = ended = steps = drawn = 0
    # every gather indexes in range; mode="clip" lets np.take write into its
    # out unbuffered, where the default mode="raise" buffers it
    while True:
        k = alive.size
        code = np.take(outcome, cur, out=won[:k], mode="clip")  # -1 while running
        done = np.flatnonzero(code >= 0)
        if done.size:
            effort[alive[done]] = np.take(accrued, done, out=gathered[: done.size], mode="clip")
            wins_a += int(np.count_nonzero(code == 0))
            ended += done.size * steps
            keep = np.flatnonzero(code < 0)
            del done  # freed before the copies, which are made one at a time
            alive = np.take(alive, keep, mode="clip")
            cur = np.take(cur, keep, mode="clip")
            accrued = np.take(accrued, keep, mode="clip")
            del keep  # freed before the step's arrays
            k = alive.size
        if not k or steps >= max_steps:
            break
        u, scratch = draws[:k], gathered[:k]
        rng.random(out=u)  # the battles' block
        leg = np.add(cur, u >= np.take(p_a, cur, out=scratch, mode="clip"))  # lottery code
        tally += np.bincount(leg, minlength=2 * n)
        accrued += np.take(step_cost, cur, out=scratch, mode="clip")
        if width == 1:  # one-leg lotteries: the legs' block is passed over unread
            _skip(rng.bit_generator, drawn + k, k)
        else:
            rng.random(out=u)  # the legs' block
            # a row's running sums rise and its top guard and padding exceed
            # every draw, so the draw passes the bounds of a prefix of the
            # legs: stepping the index while it passes the next bound counts
            # the bounds below it
            leg *= width
            for _ in range(width - 1):
                leg += u > np.take(bounds, leg, out=scratch, mode="clip")
        np.take(targets, leg, out=cur, mode="clip")
        del leg  # released before the next compaction
        drawn += 2 * k
        steps += 1
    effort[alive] = accrued
    ended += alive.size * steps
    a_wins = tally[0::2]
    visit_counts = a_wins + tally[1::2]

    truncated = int(alive.size)
    mean_effort = float(np.mean(effort))
    se_effort = (
        float(np.std(effort, ddof=1) / math.sqrt(paths)) if paths > 1 else math.inf
    )
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
        mean_length=ended / paths,
        truncated_paths=truncated,
        visit_counts={s: int(c) for s, c in enumerate(visit_counts) if c},
        state_a_wins={s: int(c) for s, c in enumerate(a_wins) if visit_counts[s]},
    )


def _skip(bitgen: np.random.Philox, drawn: int, k: int) -> None:
    """Pass over the next ``k`` words of a Philox stream that has given
    ``drawn``: those left in its four-word buffer, then whole counter blocks
    (``advance`` moves the counter and empties the buffer), then the rest."""
    head = min(-drawn % 4, k)
    blocks, tail = divmod(k - head, 4)
    bitgen.random_raw(head, output=False)
    if blocks:
        bitgen.advance(blocks)
    bitgen.random_raw(tail, output=False)


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
