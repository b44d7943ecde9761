"""Derived equilibrium diagnostics: rent dissipation, overall win
probabilities, transient-dominance certification, and parameter sweeps."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import splu

from .automaton import (
    ContestAutomaton,
    ContestSpec,
    build_best_of,
    build_consecutive_win,
    build_mk1,
    build_tug_of_war,
    min_length,
)
from .errors import DegenerateChainError, DomainError
from .solver import ValueSolution, solve, solve_consecutive_closed, solve_tow_closed
from .success import SuccessFunction, solve_battle

__all__ = [
    "DissipationReport",
    "TransientDominanceReport",
    "SweepTable",
    "balanced_gain_ratio",
    "rent_dissipation",
    "win_probabilities",
    "advantage_profile",
    "transient_dominance",
    "transient_dominance_auto",
    "sweep",
    "extrapolate_supremum",
    "SWEEP_COLUMNS",
]

SWEEP_COLUMNS = ["param", "V0_A", "V0_B", "total_effort", "dissipation", "thm1_bound", "min_length"]


@dataclass(frozen=True)
class DissipationReport:
    """Expected total effort and the nontriviality upper bound."""

    total_effort: float
    dissipation_ratio: float
    v0_a: float
    v0_b: float
    thm1_bound: float
    bound_satisfied: bool
    prize: float
    min_length: float
    balanced_gain: float

    def to_dict(self) -> dict:
        return {
            "total_effort": self.total_effort,
            "dissipation_ratio": self.dissipation_ratio,
            "v0_a": self.v0_a,
            "v0_b": self.v0_b,
            "thm1_bound": self.thm1_bound,
            "bound_satisfied": self.bound_satisfied,
            "prize": self.prize,
            "min_length": (self.min_length if math.isfinite(self.min_length) else "inf"),
            "balanced_gain": self.balanced_gain,
        }


@dataclass(frozen=True)
class TransientDominanceReport:
    """Certificate that every lead is reversible with high probability."""

    epsilon: float
    set_a_minus: tuple
    set_b_minus: tuple
    reach_both_prob: float
    satisfied: bool
    implied_effort_floor: float
    prize: float
    measured_total_effort: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "set_a_minus": list(self.set_a_minus),
            "set_b_minus": list(self.set_b_minus),
            "reach_both_prob": self.reach_both_prob,
            "satisfied": self.satisfied,
            "implied_effort_floor": self.implied_effort_floor,
            "prize": self.prize,
            "measured_total_effort": self.measured_total_effort,
        }


def balanced_gain_ratio(sf: SuccessFunction, prize: float = 1.0) -> float:
    """Gain ratio of an even battle; the dissipation bound's base factor.

    Homogeneous kinds give the scale-free value phi(1); ratio-form kinds are
    scale dependent, so the minimum over a logarithmic stake grid spanning
    [1e-6 * prize, prize] is reported.
    """
    if sf.homogeneous:
        return float(sf.phi(1.0))
    stakes = np.logspace(-6, 0, 13) * prize
    return min(solve_battle(sf, d, d).gain_ratio_a for d in stakes)


def rent_dissipation(solution: ValueSolution, spec: ContestSpec) -> DissipationReport:
    """Total effort elicited by the contest and the shortest-history bound."""
    v = spec.prize
    length = min_length(spec.automaton)
    pi1 = balanced_gain_ratio(spec.sf, v)
    if math.isinf(length):
        return DissipationReport(
            total_effort=0.0,
            dissipation_ratio=0.0,
            v0_a=solution.v0_a,
            v0_b=solution.v0_b,
            thm1_bound=1.0,
            bound_satisfied=True,
            prize=v,
            min_length=length,
            balanced_gain=pi1,
        )
    effort = v - solution.v0_a - solution.v0_b
    ratio = effort / v
    bound = 1.0 - pi1**length
    return DissipationReport(
        total_effort=effort,
        dissipation_ratio=ratio,
        v0_a=solution.v0_a,
        v0_b=solution.v0_b,
        thm1_bound=bound,
        bound_satisfied=ratio < bound,
        prize=v,
        min_length=float(length),
        balanced_gain=pi1,
    )


# ---------------------------------------------------------------------------
# Overall win probabilities (absorption system)
# ---------------------------------------------------------------------------


class _SolvedChain(NamedTuple):
    """The chain of play under the solved battle odds, as an edge list.

    One entry per leg of positive mass, in the order of the automaton's leg
    table; ``src`` is the source's row.  ``row`` maps a state id to its
    position among the nonterminal states and holds -1 at terminals.
    """

    nonterminal: tuple
    row: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    mass: np.ndarray


def _solved_chain(solution: ValueSolution, spec: ContestSpec) -> _SolvedChain:
    legs = spec.automaton.legs
    nt = spec.automaton.nonterminal_states
    src = legs.row[legs.src]
    win_a = np.array([solution.states[s].win_prob_a for s in nt])[src]
    mass = np.where(legs.win == 0, win_a, 1.0 - win_a) * legs.prob
    keep = mass > 0.0
    return _SolvedChain(nt, legs.row, src[keep], legs.tgt[keep], mass[keep])


def _absorbing_lu(size: int, rows, cols, mass, leaks):
    """Sparse LU factor of I - M for a transient block M of positive COO
    entries, where ``leaks`` lists the rows that send mass out of the block.

    Absorption is almost sure, and I - M invertible, exactly when every row
    reaches a leaking row (Kemeny & Snell, *Finite Markov Chains*, 1960): a
    breadth-first search over the reversed entries from a virtual sink
    (index ``size``) that feeds every leaking row.  Otherwise, or should
    splu still meet a singular pivot, raises DegenerateChainError.
    """
    diag = np.arange(size)
    i = np.concatenate([diag, rows, leaks])
    j = np.concatenate([diag, cols, np.full(len(leaks), size)])
    reverse = csr_matrix((np.ones(len(i)), (j, i)), shape=(size + 1, size + 1))
    trapped = size + 1 - len(breadth_first_order(reverse, size, return_predecessors=False))
    if trapped:
        raise DegenerateChainError(
            f"{trapped} of {size} transient states cannot leave: absorption is not almost sure"
        )
    entries = size + len(rows)
    lhs = csc_matrix(
        (np.concatenate([np.ones(size), -mass]), (i[:entries], j[:entries])), shape=(size, size)
    )
    try:
        return splu(lhs)
    except RuntimeError as exc:
        raise DegenerateChainError(f"transient block is singular ({exc})") from exc


def _play_factor(solution: ValueSolution, spec: ContestSpec):
    """The chain of play, the mask of its legs into terminals and the LU
    factor of its transient block; raises DegenerateChainError unless
    absorption is almost sure."""
    chain = _solved_chain(solution, spec)
    col = chain.row[chain.tgt]
    leak = col < 0
    inner = ~leak
    size = len(chain.nonterminal)
    lu = _absorbing_lu(size, chain.src[inner], col[inner], chain.mass[inner], chain.src[leak])
    return chain, leak, lu


def win_probabilities(solution: ValueSolution, spec: ContestSpec) -> dict:
    """Probability of overall victory per state, by exact sparse solve.

    Raises DegenerateChainError when some nonterminal state cannot reach a
    terminal under the solved battle probabilities.
    """
    m = spec.automaton
    out = {t: (1.0, 0.0) if w == "A" else (0.0, 1.0) for t, w in m.terminal.items()}
    chain, leak, lu = _play_factor(solution, spec)
    rhs = np.zeros((len(chain.nonterminal), 2))
    np.add.at(rhs, (chain.src[leak], m.legs.outcome[chain.tgt[leak]]), chain.mass[leak])
    q = np.clip(lu.solve(rhs), 0.0, 1.0)
    out.update((s, (float(qa), float(qb))) for s, (qa, qb) in zip(chain.nonterminal, q))
    return out


# ---------------------------------------------------------------------------
# Family advantage profiles
# ---------------------------------------------------------------------------


def advantage_profile(
    family: str,
    param: int,
    sf: SuccessFunction,
    prize: float = 1.0,
    reset_p: float = 0.0,
) -> list:
    """Per-position overall win probabilities and (tug-of-war) value tail ratios.

    Rows are ordered by position index.  For the chance-free tug-of-war each
    row also carries the tail ratio (v - V(i+1)) / (v - V(i)) together with
    its partial-sum reconstruction from the per-state gain ratios, whose
    agreement is a solver invariant.
    """
    if family == "tug_of_war":
        n = int(param)
        sol = solve_tow_closed(n, reset_p, 0, sf, prize)
        spec = ContestSpec(build_tug_of_war(n, reset_p, 0), sf, prize)
        q = win_probabilities(sol, spec)
        # per-ring win/loss gap ratios from the closed recursion stay exact
        # far past the point where value differences saturate in floats
        ring = sol.extras.get("ring_theta", [])
        pis = {0: float(sf.phi(1.0))}
        # loss-to-gain factors (1 - pi)/pi per position, built from the gain
        # complement so they stay exact where the capped gain saturates
        phi1 = float(sf.phi(1.0))
        fac = {0: float(sf.phi_complement(1.0)) / phi1}
        for k, theta in enumerate(ring, start=1):
            if math.isinf(theta):
                pis[k], pis[-k] = 1.0, 0.0
                fac[k], fac[-k] = 0.0, math.inf
                continue
            pis[k] = float(sf.phi(theta))
            pis[-k] = float(sf.phi(1.0 / theta))
            fac[k] = float(sf.phi_complement(theta)) / float(sf.phi(theta))
            lo = float(sf.phi(1.0 / theta))
            fac[-k] = float(sf.phi_complement(1.0 / theta)) / lo if lo > 0.0 else math.inf
        d_plus = sol.extras.get("delta_plus", [])
        d_minus = sol.extras.get("delta_minus", [])
        span = sol.extras.get("gap_scale", 1.0)
        gap_top = sum(d_plus)
        h = [0.0]
        for d in d_minus:
            h.append(h[-1] + d)
        tail_plus = [0.0] * (n + 1)  # sum of d_plus above level i
        for i in range(n - 1, -1, -1):
            tail_plus[i] = tail_plus[i + 1] + d_plus[i]
        rows = []
        for i in range(-n, n + 1):
            s = i + n
            row = {
                "i": i,
                "value": sol.values_a[s],
                "q_win": q[s][0],
                "q_lose": q[s][1],
                "pi": pis.get(i) if abs(i) < n else None,
                "tail_ratio": None,
                "tail_ratio_values": None,
                "tail_ratio_partial_sums": None,
            }
            if i < n and reset_p == 0.0:
                if i >= 0:
                    if tail_plus[i] > 0.0:
                        row["tail_ratio"] = tail_plus[i + 1] / tail_plus[i]
                else:
                    j = -i
                    row["tail_ratio"] = (gap_top + h[j - 1]) / (gap_top + h[j])
                denom = prize - sol.values_a[s]
                if denom >= 1e-9 * prize:
                    row["tail_ratio_values"] = (prize - sol.values_a[s + 1]) / denom
                row["tail_ratio_partial_sums"] = _tail_from_partial_sums(fac, i, n)
            rows.append(row)
        return rows
    if family == "consecutive_win":
        k = int(param)
        sol = solve_consecutive_closed(k, sf, prize)
        spec = ContestSpec(build_consecutive_win(k), sf, prize)
        q = win_probabilities(sol, spec)
        rows = []
        for i in range(-k, k + 1):
            s = i + k
            rows.append(
                {
                    "i": i,
                    "value": sol.values_a[s],
                    "q_win": q[s][0],
                    "q_lose": q[s][1],
                }
            )
        return rows
    raise DomainError(f"advantage_profile supports tug_of_war and consecutive_win, got {family}")


def _tail_from_partial_sums(fac: dict, i: int, n: int) -> float:
    """(v - V(i+1)) / (v - V(i)) rebuilt from products of (1-pi)/pi factors.

    Terms below 1e-30 of the running sum cannot move the ratio at the tested
    tolerance and are truncated; a diverging product means the tail cannot
    decay and the ratio is 1.
    """
    total = 0.0
    prod = 1.0
    for j in range(i + 1, n):
        fj = fac[j]
        if fj <= 0.0:
            # a surely-won battle ahead: no tail mass beyond this point
            break
        prod *= fj
        total += prod
        if not math.isfinite(prod):
            return 1.0
        if prod < 1e-30 * max(total, 1.0):
            break
    return total / (1.0 + total)


def reinforcement_residuals(solution: ValueSolution, family: str) -> list:
    """Win self-reinforcement identity diagnostics per interior position.

    For the tug-of-war the identity links the win/loss stake ratio at one
    lead to the next through two amplification factors, both above 1; the
    consecutive-win family has a single factor.  Ratios come from the closed
    solvers' ring diagnostics (tug-of-war) or the state stakes, so the check
    stays exact beyond float saturation of the values themselves.
    """
    rows = []
    if family == "tug_of_war":
        ring = solution.extras.get("ring_theta")
        if not ring:
            raise DomainError("tug-of-war reinforcement check needs closed-solver diagnostics")
        n = len(ring) + 1
        sf = _sf_of(solution)
        theta = {0: 1.0}
        for k, t in enumerate(ring, start=1):
            theta[k] = t
        gap_ratio = lambda i: theta[i] if i >= 0 else 1.0 / theta[-i]  # noqa: E731
        for i in range(-(n - 2), n - 1):
            t_next = gap_ratio(i + 1)
            t_cur = gap_ratio(i)
            if not (math.isfinite(t_next) and math.isfinite(t_cur)):
                rows.append({"i": i, "relative_gap": None, "factor_one": None, "factor_two": None})
                continue
            f1 = float(sf.phi_complement(gap_ratio(-i - 1)) / sf.phi(gap_ratio(i + 1)))
            f2 = float(sf.phi_complement(gap_ratio(i)) / sf.phi(gap_ratio(-i)))
            predicted = f1 * f2 * t_cur
            rows.append(
                {
                    "i": i,
                    "relative_gap": abs(predicted - t_next) / max(abs(t_next), 1e-300),
                    "factor_one": f1,
                    "factor_two": f2,
                }
            )
        return rows
    if family == "consecutive_win":
        sf = _sf_of(solution)
        k = (len(solution.values_a) - 1) // 2
        ratio = {}
        for i in range(-(k - 1), k):
            sv = solution.states[i + k]
            ratio[i] = sv.stake_a / sv.stake_b
        for i in range(0, k - 1):
            f1 = float(sf.phi_complement(ratio[-i - 1]) / sf.phi(ratio[i + 1]))
            predicted = f1 * ratio[i]
            rows.append(
                {
                    "i": i,
                    "relative_gap": abs(predicted - ratio[i + 1]) / abs(ratio[i + 1]),
                    "factor_one": f1,
                    "factor_two": None,
                }
            )
        return rows
    raise DomainError(f"no reinforcement identity for family {family!r}")


def _sf_of(solution: ValueSolution):
    sf = solution.extras.get("sf")
    if sf is None:
        raise DomainError("solution does not carry its success function")
    return sf


# ---------------------------------------------------------------------------
# Transient dominance
# ---------------------------------------------------------------------------


def transient_dominance(
    solution: ValueSolution, spec: ContestSpec, epsilon: float
) -> TransientDominanceReport:
    """Certify Def-3-style transient dominance at a given epsilon.

    Weak sets collect the nonterminal states where a player's continuation
    value is at most epsilon * prize.  The probability that equilibrium play
    visits both sets is computed exactly on the chain augmented with two
    visited bits, by one sparse LU solve, and the certificate demands at
    least 1 - epsilon.  Raises DegenerateChainError when some state of that
    system can reach neither a terminal nor both weak sets.
    """
    return _certificate(
        solution,
        spec,
        epsilon,
        lambda set_a, set_b: _reach_both_probability(
            _solved_chain(solution, spec), spec.automaton.start, set_a, set_b
        ),
    )


def _weak_sets(solution: ValueSolution, spec: ContestSpec, epsilon: float):
    cut = epsilon * spec.prize
    nt = spec.automaton.nonterminal_states
    return (
        frozenset(s for s in nt if solution.values_a[s] <= cut),
        frozenset(s for s in nt if solution.values_b[s] <= cut),
    )


def _certificate(
    solution: ValueSolution, spec: ContestSpec, epsilon: float, reach_both
) -> TransientDominanceReport:
    """The report at epsilon, with ``reach_both(set_a, set_b)`` giving the
    probability of visiting both nonempty weak sets."""
    if not 0.0 < epsilon < 0.25:
        raise DomainError("epsilon must lie in (0, 1/4)")
    v = spec.prize
    set_a, set_b = _weak_sets(solution, spec, epsilon)
    effort = v - solution.v0_a - solution.v0_b
    reach = reach_both(set_a, set_b) if set_a and set_b else 0.0
    satisfied = bool(set_a) and bool(set_b) and reach >= 1.0 - epsilon
    return TransientDominanceReport(
        epsilon=epsilon,
        set_a_minus=tuple(sorted(set_a)),
        set_b_minus=tuple(sorted(set_b)),
        reach_both_prob=reach,
        satisfied=satisfied,
        implied_effort_floor=(1.0 - 4.0 * epsilon) * v if satisfied else 0.0,
        prize=v,
        measured_total_effort=effort,
    )


def _reach_both_probability(
    chain: _SolvedChain, start: int, set_a: frozenset, set_b: frozenset
) -> float:
    """Exact probability that play from ``start`` visits both weak sets
    before absorption.

    The system runs over (state, visited bits) in three layers: 0 = neither
    set seen, 1 = A's seen, 2 = B's seen; a leg that completes both bits
    pays into the right-hand side, and a leg into a terminal pays nothing.
    Its COO entries come straight from the edge list, and one sparse LU
    factorisation solves it, so no dense (3n)x(3n) array is formed.  Raises
    DegenerateChainError when play can be trapped away from every terminal
    without completing both bits.
    """
    flag = np.zeros(len(chain.row), dtype=np.intp)
    flag[list(set_a)] |= 1
    flag[list(set_b)] |= 2
    if flag[start] == 3:
        return 1.0
    col = chain.row[chain.tgt]
    inner = col >= 0
    src, col, tgt = chain.src[inner], col[inner], chain.tgt[inner]
    mass = np.broadcast_to(chain.mass[inner], (3, len(src)))
    bits = np.arange(3)[:, None]
    nb = bits | flag[tgt]
    rows = 3 * src + bits
    done = nb == 3
    stay = ~done
    size = 3 * len(chain.nonterminal)
    rhs = np.bincount(rows[done], weights=mass[done], minlength=size)
    leaks = np.concatenate([rows[done], (3 * chain.src[~inner] + bits).ravel()])
    lu = _absorbing_lu(size, rows[stay], (3 * col + nb)[stay], mass[stay], leaks)
    return float(lu.solve(rhs)[3 * chain.row[start] + flag[start]])


def transient_dominance_auto(
    solution: ValueSolution, spec: ContestSpec, resolution: float = 1e-4
) -> TransientDominanceReport:
    """Binary-search the smallest epsilon whose certificate is satisfied.

    Satisfaction is monotone in epsilon (weak sets grow, the reach threshold
    falls), so bisection returns the certificate frontier to the requested
    resolution.  When no epsilon below 1/4 certifies, the report at the upper
    end is returned unsatisfied.  The edge list is built once, and the reach
    probability is solved once per distinct pair of weak sets, since many
    bisection steps share one.  Raises DegenerateChainError as
    ``transient_dominance`` does.
    """
    chain = _solved_chain(solution, spec)
    reach = {}

    def reach_both(set_a, set_b):
        key = (set_a, set_b)
        if key not in reach:
            reach[key] = _reach_both_probability(chain, spec.automaton.start, set_a, set_b)
        return reach[key]

    def certify(epsilon):
        return _certificate(solution, spec, epsilon, reach_both)

    hi = 0.25 - 1e-9
    report_hi = certify(hi)
    if not report_hi.satisfied:
        return report_hi
    lo = resolution
    report_lo = certify(lo)
    if report_lo.satisfied:
        return report_lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if certify(mid).satisfied:
            hi = mid
        else:
            lo = mid
    return certify(hi)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepTable:
    """One solved row per parameter value, ordered by parameter."""

    family: str
    rows: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_dict(self) -> dict:
        return {"family": self.family, "columns": SWEEP_COLUMNS, "rows": self.rows}


def _sweep_row(family: str, param: int, sf: SuccessFunction, prize: float, reset_p: float) -> dict:
    spec = ContestSpec(_build_family(family, param, reset_p), sf, prize)
    sol = solve(spec)
    rep = rent_dissipation(sol, spec)
    return {
        "param": int(param),
        "V0_A": sol.v0_a,
        "V0_B": sol.v0_b,
        "total_effort": rep.total_effort,
        "dissipation": rep.dissipation_ratio,
        "thm1_bound": rep.thm1_bound,
        "min_length": rep.min_length,
    }


def _build_family(family: str, param: int, reset_p: float) -> ContestAutomaton:
    if family == "best_of":
        return build_best_of(param)
    if family == "tug_of_war":
        return build_tug_of_war(param, reset_p)
    if family == "consecutive_win":
        return build_consecutive_win(param)
    if family == "mk1":
        return build_mk1(param)
    raise DomainError(f"unknown sweep family {family!r}")


def sweep(
    family: str,
    params,
    sf: SuccessFunction,
    prize: float = 1.0,
    reset_p: float = 0.0,
) -> SweepTable:
    """Solve one row per parameter; rows keep parameter order.

    Rows run concurrently when CONTEST_LAB_THREADS asks for more than one
    worker.  A failing row is recorded in ``errors`` and emitted with NaN
    metrics so the remaining rows survive.
    """
    if family not in ("best_of", "tug_of_war", "consecutive_win", "mk1"):
        raise DomainError(f"unknown sweep family {family!r}")
    params = list(params)
    if any(int(p) != p for p in params):
        raise DomainError("sweep parameters must be integers")
    table = SweepTable(family=family)
    workers = _worker_count()

    def run(param):
        try:
            return _sweep_row(family, int(param), sf, prize, reset_p), None
        except Exception as exc:  # noqa: BLE001 - row-level flagging by design
            nan_row = {
                "param": int(param),
                "V0_A": math.nan,
                "V0_B": math.nan,
                "total_effort": math.nan,
                "dissipation": math.nan,
                "thm1_bound": math.nan,
                "min_length": math.nan,
            }
            return nan_row, str(exc)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, params))
    else:
        results = [run(p) for p in params]
    for param, (row, err) in zip(params, results):
        table.rows.append(row)
        if err is not None:
            table.errors[int(param)] = err
    return table


def _worker_count() -> int:
    raw = os.environ.get("CONTEST_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def extrapolate_supremum(values, tail: int = 5) -> float:
    """Geometric-tail extrapolation of a nondecreasing sequence's supremum.

    Uses the mean ratio of the last ``tail`` positive increments; a
    non-contracting tail yields +inf (no finite certificate).  A sequence
    whose increments have already fallen below float resolution is treated
    as saturated at its last value.
    """
    values = list(values)
    if len(values) < 3:
        raise DomainError("need at least 3 values to extrapolate")
    incs = [b - a for a, b in zip(values[:-1], values[1:])]
    if any(d < 0 for d in incs):
        raise DomainError("extrapolation requires a nondecreasing sequence")
    if incs[-1] == 0.0:
        return values[-1]
    positive = [d for d in incs if d > 0][-tail:]
    if len(positive) < 2:
        return values[-1] + incs[-1]
    ratios = [b / a for a, b in zip(positive[:-1], positive[1:])]
    rho = sum(ratios) / len(ratios)
    if rho >= 1.0:
        return math.inf
    return values[-1] + incs[-1] * rho / (1.0 - rho)
