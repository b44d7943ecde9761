"""Derived equilibrium diagnostics: rent dissipation, overall win
probabilities, transient-dominance certification, and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .automaton import (
    _FAMILIES,
    ContestSpec,
    _build_family,
    _check_prize,
    _hops,
    _levels,
    _refuse_tow_options,
    _whole,
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


def _absorbing_solve(size: int, rows, cols, mass, rhs, leave) -> np.ndarray:
    """Solve x = rhs + M x for an absorbing transient block M of positive
    COO entries; ``leave`` is each row's mass out of the block, so that a
    row of M plus its ``leave`` sums to 1.

    Nothing is ever subtracted, so every solved entry keeps its relative
    accuracy however nearly the block fails to leak.  States are solved
    first by ``_levels`` (an acyclic chain ends there); the cyclic remainder
    is then eliminated one state at a time, nearest an exit first, each
    pivot the row's leaving mass plus its legs to states not yet eliminated,
    never 1 - sum (Grassmann, Taksar & Heyman, *Operations Research* 33(5),
    1985).  The chain must come from ``_absorbed_chain``, whose states all
    leave, so no pivot is zero.
    """
    x = np.array(rhs, dtype=float)
    columns = (x[:, None] if x.ndim == 1 else x).T  # views into x
    done = np.zeros(size, dtype=bool)
    for ready in _levels(done, rows, cols):
        legs = ready[rows]
        for col in columns:
            col += np.bincount(rows[legs], weights=mass[legs] * col[cols[legs]], minlength=size)
    rest = np.flatnonzero(~done)
    if not rest.size:
        return x

    # legs into solved states leave the remainder: their mass joins the exits
    # and their value the right-hand side
    legs = ~done[rows]
    src, tgt, w = rows[legs], cols[legs], mass[legs]
    out = done[tgt]
    for col in columns:
        col += np.bincount(src[out], weights=w[out] * col[tgt[out]], minlength=size)
    leave = leave + np.bincount(src[out], weights=w[out], minlength=size)
    src, tgt, w = src[~out], tgt[~out], w[~out]
    local = np.full(size, -1)
    local[rest] = np.arange(rest.size)
    exits = np.flatnonzero(leave[rest] > 0.0)
    order = rest[np.argsort(_hops(rest.size, exits, local[tgt], local[src]), kind="stable")]
    leave = leave.tolist()

    row = {i: {} for i in rest.tolist()}  # row[i][j]: the current mass i -> j
    holders = {i: set() for i in row}  # rows that hold a leg into i
    for i, j, m in zip(src.tolist(), tgt.tolist(), w.tolist()):
        row[i][j] = row[i].get(j, 0.0) + m
        holders[j].add(i)
    b = [col.tolist() for col in columns]
    pivot = {}
    for k in order.tolist():
        legs_k = row[k]
        legs_k.pop(k, None)  # a self-loop's mass is what the pivot leaves out
        pivot[k] = d = leave[k] + sum(legs_k.values())
        for j in legs_k:
            holders[j].discard(k)
        for i in holders[k]:
            if i == k:
                continue
            row_i = row[i]
            f = row_i.pop(k) / d
            leave[i] += f * leave[k]
            for col in b:
                col[i] += f * col[k]
            for j, m in legs_k.items():
                if j in row_i:
                    row_i[j] += f * m
                else:
                    row_i[j] = f * m
                    holders[j].add(i)
    for k in reversed(order.tolist()):
        for col in b:
            col[k] = (col[k] + sum([m * col[j] for j, m in row[k].items()])) / pivot[k]
    for col, solved in zip(columns, b):
        col[rest] = np.array(solved)[rest]
    return x


def _absorbed_chain(solution: ValueSolution, spec: ContestSpec) -> _SolvedChain:
    """The chain of play; raises DegenerateChainError unless absorption is
    almost sure from every state.

    It is, and I - M for the transient block M is invertible, exactly when
    every nonterminal state reaches a leg into a terminal (Kemeny & Snell,
    *Finite Markov Chains*, 1960): a search over the reversed legs from the
    sources of those legs.
    """
    legs = spec.automaton.legs
    nt = spec.automaton.nonterminal_states
    src = legs.row[legs.src]
    win_a = np.array([solution.states[s].win_prob_a for s in nt])[src]
    mass = np.where(legs.win == 0, win_a, 1.0 - win_a) * legs.prob
    keep = mass > 0.0
    chain = _SolvedChain(nt, legs.row, src[keep], legs.tgt[keep], mass[keep])
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
    """Probability of overall victory per state, by one absorbing-chain
    solve (``_absorbing_solve``).

    Raises DegenerateChainError when some nonterminal state cannot reach a
    terminal under the solved battle probabilities.
    """
    m = spec.automaton
    out = {t: (1.0, 0.0) if w == "A" else (0.0, 1.0) for t, w in m.terminal.items()}
    chain = _absorbed_chain(solution, spec)
    col = chain.row[chain.tgt]
    leak = col < 0
    inner = ~leak
    size = len(chain.nonterminal)
    rhs = np.zeros((size, 2))
    np.add.at(rhs, (chain.src[leak], m.legs.outcome[chain.tgt[leak]]), chain.mass[leak])
    leave = rhs.sum(axis=1)
    q = _absorbing_solve(size, chain.src[inner], col[inner], chain.mass[inner], rhs, leave)
    q = np.clip(q, 0.0, 1.0)
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
        # the closed recursion's gains at each lead's win/loss gap ratio stay
        # exact far past the point where value differences saturate in floats
        pis, comps = sol.extras["lead_phi"], sol.extras["lead_phi_complement"]
        # loss-to-gain factors (1 - pi)/pi per position, built from the gain
        # complement so they stay exact where the capped gain saturates
        fac = {i: comps[i] / pi if pi > 0.0 else math.inf for i, pi in pis.items()}
        d_plus = sol.extras["delta_plus"]
        gap_top, h = sol.extras["gap"][n], sol.extras["h"]
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
        theta = [1.0, *ring]
        pis, comps = solution.extras["lead_phi"], solution.extras["lead_phi_complement"]
        gap_ratio = lambda i: theta[i] if i >= 0 else 1.0 / theta[-i]  # noqa: E731
        for i in range(-(n - 2), n - 1):
            # a ring saturated on either side, or a gain that underflows,
            # leaves the identity nothing to compare
            finite = math.isfinite(theta[abs(i)]) and math.isfinite(theta[abs(i + 1)])
            if not (finite and pis[i + 1] > 0.0 and pis[-i] > 0.0):
                rows.append({"i": i, "relative_gap": None, "factor_one": None, "factor_two": None})
                continue
            t_next, t_cur = gap_ratio(i + 1), gap_ratio(i)
            f1 = comps[-i - 1] / pis[i + 1]
            f2 = comps[i] / pis[-i]
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
    value over the prize is at most epsilon.  The probability that
    equilibrium play visits both sets is computed exactly on the chain
    augmented with two visited bits, by one absorbing-chain solve, and the
    certificate demands at least 1 - epsilon.  Raises DegenerateChainError,
    before the weak sets are formed, unless absorption is almost sure from
    every state.
    """
    return _certificate(solution, spec, epsilon, _absorbed_chain(solution, spec))


def _weak_sets(solution: ValueSolution, spec: ContestSpec, epsilon: float):
    # V/prize is the very float transient_dominance_auto cuts at
    nt, prize = spec.automaton.nonterminal_states, spec.prize
    return (
        frozenset(s for s in nt if solution.values_a[s] / prize <= epsilon),
        frozenset(s for s in nt if solution.values_b[s] / prize <= epsilon),
    )


def _certificate(
    solution: ValueSolution, spec: ContestSpec, epsilon: float, chain: _SolvedChain, reach=None
) -> TransientDominanceReport:
    """The report at epsilon on ``_absorbed_chain``'s chain; ``reach``, when
    given, is the known probability of visiting both nonempty weak sets."""
    _check_epsilon(epsilon)
    set_a, set_b = _weak_sets(solution, spec, epsilon)
    weak_ok = bool(set_a) and bool(set_b)
    if not weak_ok:
        reach = 0.0
    elif reach is None:
        reach = _reach_both_probability(chain, spec.automaton.start, set_a, set_b)
    effort = spec.prize - solution.v0_a - solution.v0_b
    sets = tuple(sorted(set_a)), tuple(sorted(set_b))
    return TransientDominanceReport.of(epsilon, *sets, reach, weak_ok, spec.prize, effort)


def _reach_both_probability(
    chain: _SolvedChain, start: int, set_a: frozenset, set_b: frozenset
) -> float:
    """Exact probability that play from ``start`` visits both weak sets
    before absorption.

    The system runs over (state, visited bits) in three layers: 0 = neither
    set seen, 1 = A's seen, 2 = B's seen; a leg that completes both bits
    pays into the right-hand side, and a leg into a terminal pays nothing.
    Its COO entries come straight from the edge list, and one
    ``_absorbing_solve`` solves it, so no dense (3n)x(3n) array is formed;
    a row leaves through its legs into terminals and its completing legs.  The
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
    ends = np.bincount(chain.src[~inner], weights=chain.mass[~inner], minlength=size // 3)
    leave = np.repeat(ends, 3) + rhs
    x = _absorbing_solve(size, rows[stay], (3 * col + nb)[stay], mass[stay], rhs, leave)
    return float(x[3 * chain.row[start] + flag[start]])


def transient_dominance_auto(solution: ValueSolution, spec: ContestSpec) -> TransientDominanceReport:
    """The certificate at its frontier, the least epsilon in (0, 1/4) that
    satisfies it, or unsatisfied at 1/4 - 1e-9.

    The weak sets change only at the cuts V/prize, so between neighbouring
    cuts the certificate holds from max(cut, 1 - reach) on, up to the
    rounding of 1 - epsilon.  It holds at the start's cut, where the reach
    is 1.  The interval just below is tested first, and only if it
    certifies are the cuts below bisected, one reach solve per probe.
    Raises DegenerateChainError as ``transient_dominance`` does.
    """
    chain = _absorbed_chain(solution, spec)

    def cut(value):
        return max(value / spec.prize, math.ulp(0.0))  # epsilon = 0 is out of range

    top = min(cut(max(solution.v0_a, solution.v0_b)), 0.25 - 1e-9)
    best = _certificate(solution, spec, top, chain)
    if not best.satisfied:
        return best
    nt = spec.automaton.nonterminal_states
    cuts = sorted({cut(v[s]) for v in (solution.values_a, solution.values_b) for s in nt})
    cuts = [c for c in cuts if c < top] + [top]

    def frontier(k):  # the report at the least certifying epsilon in [cuts[k], cuts[k + 1])
        report = _certificate(solution, spec, cuts[k], chain)
        if report.satisfied:
            return report
        epsilon = 1.0 - report.reach_both_prob
        if epsilon < cuts[k + 1]:
            return _certificate(solution, spec, epsilon, chain, report.reach_both_prob)
        return None

    lo, hi = -1, len(cuts) - 1  # the interval at hi certifies, the one at lo does not
    k = hi - 1
    while k > lo:
        found = frontier(k)
        if found is None:
            lo = k
        else:
            best, hi = found, k
        k = (lo + hi) // 2
    return best


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
    _refuse_tow_options(family, reset_p)
    _check_prize(prize)
    params = list(params)
    if not all(map(_whole, params)):
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
