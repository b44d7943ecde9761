"""Derived equilibrium diagnostics: rent dissipation, overall win
probabilities, transient-dominance certification, and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .automaton import (
    _FAMILIES,
    ContestSpec,
    _build_family,
    _check_prize,
    _hops,
    min_length,
)
from .errors import DegenerateChainError, DomainError
from .solver import ValueSolution, _cw_closed, _tow_closed, solve
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


def _fields(report, **override) -> dict:
    """A report's fields in declaration order, shallow, with ``override``
    replacing the named ones: the one serialising rule of the reports."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out.update(override)
    return out


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

    @classmethod
    def of(
        cls, sf: SuccessFunction, prize: float, v0_a: float, v0_b: float, effort: float, length: int
    ) -> DissipationReport:
        """The report of a contest whose shortest history has ``length``
        battles: the bound is 1 - pi1**length, pi1 the balanced gain ratio."""
        pi1 = balanced_gain_ratio(sf, prize)
        ratio = effort / prize
        bound = 1.0 - pi1**length
        return cls(effort, ratio, v0_a, v0_b, bound, ratio < bound, prize, float(length), pi1)

    def to_dict(self) -> dict:
        return _fields(self)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.25:
        raise DomainError("epsilon must lie in (0, 1/4)")


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

    @classmethod
    def of(
        cls, epsilon: float, set_a: tuple, set_b: tuple, reach: float, weak_ok: bool,
        prize: float, effort: float,
    ) -> TransientDominanceReport:
        """The certificate at epsilon: satisfied when the weak sets qualify
        (``weak_ok``) and play visits both with chance at least 1 - epsilon,
        which floors the total effort at (1 - 4 epsilon) * prize."""
        satisfied = weak_ok and reach >= 1.0 - epsilon
        floor = (1.0 - 4.0 * epsilon) * prize if satisfied else 0.0
        return cls(epsilon, set_a, set_b, reach, satisfied, floor, prize, effort)

    def to_dict(self) -> dict:
        return _fields(self, set_a_minus=list(self.set_a_minus), set_b_minus=list(self.set_b_minus))


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
    effort = spec.prize - solution.v0_a - solution.v0_b
    length = min_length(spec.automaton)
    return DissipationReport.of(spec.sf, spec.prize, solution.v0_a, solution.v0_b, effort, length)


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


def _absorbing_lu(size: int, rows, cols, mass):
    """Sparse LU factor of I - M for an absorbing transient block M of
    positive COO entries; should splu still meet a singular pivot, raises
    DegenerateChainError."""
    diag = np.arange(size)
    i = np.concatenate([diag, rows])
    j = np.concatenate([diag, cols])
    lhs = csc_matrix((np.concatenate([np.ones(size), -mass]), (i, j)), shape=(size, size))
    try:
        return splu(lhs)
    except RuntimeError as exc:
        raise DegenerateChainError(f"transient block is singular ({exc})") from exc


def _absorbed_chain(solution: ValueSolution, spec: ContestSpec) -> _SolvedChain:
    """The chain of play; raises DegenerateChainError unless absorption is
    almost sure from every state.

    It is, and I - M for the transient block M is invertible, exactly when
    every nonterminal state reaches a leg into a terminal (Kemeny & Snell,
    *Finite Markov Chains*, 1960): a search over the reversed legs from the
    sources of those legs.
    """
    chain = _solved_chain(solution, spec)
    col = chain.row[chain.tgt]
    leak = col < 0
    size = len(chain.nonterminal)
    trapped = int(np.sum(_hops(size, chain.src[leak], col[~leak], chain.src[~leak]) < 0))
    if trapped:
        raise DegenerateChainError(
            f"{trapped} of {size} transient states cannot leave: absorption is not almost sure"
        )
    return chain


def win_probabilities(solution: ValueSolution, spec: ContestSpec) -> dict:
    """Probability of overall victory per state, by exact sparse solve.

    Raises DegenerateChainError when some nonterminal state cannot reach a
    terminal under the solved battle probabilities.
    """
    m = spec.automaton
    out = {t: (1.0, 0.0) if w == "A" else (0.0, 1.0) for t, w in m.terminal.items()}
    chain = _absorbed_chain(solution, spec)
    col = chain.row[chain.tgt]
    leak = col < 0
    inner = ~leak
    lu = _absorbing_lu(len(chain.nonterminal), chain.src[inner], col[inner], chain.mass[inner])
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
    if family not in ("tug_of_war", "consecutive_win"):
        raise DomainError(
            f"advantage_profile supports tug_of_war and consecutive_win, got {family}"
        )
    spec = ContestSpec(_build_family(family, param, reset_p), sf, prize)
    if family == "tug_of_war":
        n = spec.automaton.n // 2
        sol = _tow_closed(spec, reset_p)
        q = win_probabilities(sol, spec)
        # per-ring win/loss gap ratios from the closed recursion stay exact
        # far past the point where value differences saturate in floats
        ring = sol.extras.get("ring_theta", [])
        pis = {0: float(sf.phi(1.0))}
        # loss-to-gain factors (1 - pi)/pi per position, built from the gain
        # complement so they stay exact where the capped gain saturates
        fac = {0: float(sf.phi_complement(1.0)) / pis[0]}
        for k, theta in enumerate(ring, start=1):
            if math.isinf(theta):
                pis[k], pis[-k] = 1.0, 0.0
                fac[k], fac[-k] = 0.0, math.inf
                continue
            pis[k] = float(sf.phi(theta))
            pis[-k] = float(sf.phi(1.0 / theta))
            fac[k] = float(sf.phi_complement(theta)) / pis[k]
            fac[-k] = float(sf.phi_complement(1.0 / theta)) / pis[-k] if pis[-k] > 0.0 else math.inf
        d_plus = sol.extras.get("delta_plus", [])
        d_minus = sol.extras.get("delta_minus", [])
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
    k = spec.automaton.n // 2
    sol = _cw_closed(spec)
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
    least 1 - epsilon.  Raises DegenerateChainError, before the weak sets are
    formed, unless absorption is almost sure from every state.
    """
    chain = _absorbed_chain(solution, spec)
    return _certificate(
        solution,
        spec,
        epsilon,
        lambda set_a, set_b: _reach_both_probability(
            chain, spec.automaton.start, set_a, set_b
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
    _check_epsilon(epsilon)
    set_a, set_b = _weak_sets(solution, spec, epsilon)
    weak_ok = bool(set_a) and bool(set_b)
    reach = reach_both(set_a, set_b) if weak_ok else 0.0
    effort = spec.prize - solution.v0_a - solution.v0_b
    return TransientDominanceReport.of(
        epsilon, tuple(sorted(set_a)), tuple(sorted(set_b)), reach, weak_ok, spec.prize, effort
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
    factorisation solves it, so no dense (3n)x(3n) array is formed.  The
    chain must come from ``_absorbed_chain``: every state of this system then
    follows a path of the chain to a terminal, so it is absorbing too.
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
    lu = _absorbing_lu(size, rows[stay], (3 * col + nb)[stay], mass[stay])
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
    chain = _absorbed_chain(solution, spec)
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
        # JSON has no NaN: a flagged row's metrics are written as null
        rows = [
            dict.fromkeys(row, None) | {"param": row["param"]} if row["param"] in self.errors else row
            for row in self.rows
        ]
        return {"family": self.family, "columns": SWEEP_COLUMNS, "rows": rows}


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


def sweep(
    family: str,
    params,
    sf: SuccessFunction,
    prize: float = 1.0,
    reset_p: float = 0.0,
) -> SweepTable:
    """Solve one row per parameter; rows keep parameter order.

    A failing row is recorded in ``errors`` and emitted with NaN
    metrics so the remaining rows survive.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown sweep family {family!r}")
    _check_prize(prize)
    params = list(params)
    if any(int(p) != p for p in params):
        raise DomainError("sweep parameters must be integers")
    table = SweepTable(family=family)
    for param in params:
        try:
            row = _sweep_row(family, int(param), sf, prize, reset_p)
        except Exception as exc:  # noqa: BLE001 - row-level flagging by design
            row = dict.fromkeys(SWEEP_COLUMNS, math.nan) | {"param": int(param)}
            table.errors[int(param)] = str(exc)
        table.rows.append(row)
    return table


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
