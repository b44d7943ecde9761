"""Iterated incumbency contests.

An N-round competition in which an exogenous shock (probability q per round)
reopens a biased subcontest for the incumbent position; surviving round N as
incumbent wins the prize.  Round 0 is a fair coin toss for the initial
incumbency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .automaton import (
    ContestAutomaton, ContestSpec, _check_prize, build_mk1, build_tug_of_war, min_length
)
from .errors import DomainError, UnsupportedKindError
from .metrics import (
    DissipationReport,
    TransientDominanceReport,
    _check_epsilon,
    _fields,
    win_probabilities,
)
from .solver import ValueSolution, solve
from .success import SuccessFunction

__all__ = [
    "MK1",
    "TowHeadStart",
    "IncumbencySpec",
    "IncumbencyReport",
    "subcontest_automaton",
    "solve_subcontest",
    "bias_ratio",
    "log_bias_ratio",
    "solve_incumbency",
    "incumbency_transient_dominance",
]


@dataclass(frozen=True)
class MK1:
    """Subcontest: the challenger must win k battles before the incumbent wins one."""

    k: int

    def describe(self) -> str:
        return f"mk1:k={self.k}"


@dataclass(frozen=True)
class TowHeadStart:
    """Subcontest: tug-of-war with margin k+1 where the incumbent leads by k."""

    k: int

    def describe(self) -> str:
        return f"tow-head-start:k={self.k}"


@dataclass(frozen=True)
class IncumbencySpec:
    rounds: int
    shock_q: float
    sub: object
    sf: SuccessFunction
    prize: float = 1.0

    def __post_init__(self):
        if self.rounds < 1 or int(self.rounds) != self.rounds:
            raise DomainError("rounds must be a positive integer")
        if not 0.0 < self.shock_q <= 1.0:
            raise DomainError("shock probability must lie in (0, 1]")
        if not isinstance(self.sub, (MK1, TowHeadStart)):
            raise DomainError("sub must be an MK1 or TowHeadStart spec")
        if self.sub.k < 1:
            raise DomainError("subcontest parameter must be a positive integer")
        _check_prize(self.prize)


@dataclass
class IncumbencyReport:
    """Backward-induction output of an iterated incumbency contest.

    Round arrays are indexed 1..N (list position n-1); ``w_plus[n-1]`` is the
    incumbent's continuation value at the start of round n.  ``v_rounds`` are
    the per-round stakes W+(n+1) - W-(n+1).  The trajectory lists the two
    incumbent-identity value points per round, from the last round backward.
    """

    rounds: int
    shock_q: float
    sub: str
    prize: float
    w_plus: list
    w_minus: list
    v_rounds: list
    v_plus_unit: float
    v_minus_unit: float
    bias_ratio: float
    log_bias_ratio: float
    upset_prob: float
    start_value_a: float
    start_value_b: float
    dissipation: DissipationReport
    trajectory: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        # JSON has no inf: an overflowed ratio is written as null, and
        # log_bias_ratio still carries it
        bias = self.bias_ratio if math.isfinite(self.bias_ratio) else None
        return _fields(self, bias_ratio=bias, dissipation=self.dissipation.to_dict())


def subcontest_automaton(sub) -> ContestAutomaton:
    """Automaton of the standalone subcontest with player A as the incumbent."""
    if isinstance(sub, MK1):
        return build_mk1(sub.k)
    if isinstance(sub, TowHeadStart):
        return build_tug_of_war(sub.k + 1, 0.0, sub.k)
    raise DomainError("unknown subcontest kind")


def solve_subcontest(sub, sf: SuccessFunction, prize: float = 1.0) -> tuple[ValueSolution, ContestSpec]:
    """Solve the standalone subcontest at the given prize (A = incumbent)."""
    spec = ContestSpec(subcontest_automaton(sub), sf, prize)
    return solve(spec), spec


def upset_probability(sub, sf: SuccessFunction) -> float:
    """Probability that the challenger wins the standalone subcontest."""
    sol, spec = solve_subcontest(sub, sf, 1.0)
    q = win_probabilities(sol, spec)
    return q[spec.automaton.start][1]


def log_bias_ratio(sub, sf: SuccessFunction) -> float:
    """log of (1 - V+) / V- for the unit-prize standalone subcontest.

    Both shipped families are evaluated through log-space gap recursions:
    the incumbent's shortfall 1 - V+ and the challenger value V- underflow
    any fixed-precision direct solve long before k reaches 10.
    """
    return _log_bias_ratio(sub, sf, lambda: solve_subcontest(sub, sf, 1.0)[0])


def _log_bias_ratio(sub, sf: SuccessFunction, unit_solution) -> float:
    """``log_bias_ratio`` with the unit-prize subcontest solution given by
    the callable ``unit_solution``, called only where the value needs it."""
    if isinstance(sub, MK1) and sf.homogeneous:
        return _mk1_log_gap_recursion(sf, sub.k)
    sol = unit_solution()
    if isinstance(sub, TowHeadStart) and sf.homogeneous:
        # the closed tug-of-war answered: at head start k in a margin-(k+1)
        # contest, the bias ratio equals the outermost ring's win/loss gap ratio
        return sol.extras["ring_log_ratio"][-1]
    shortfall, challenger = 1.0 - sol.v0_a, sol.v0_b
    if shortfall == 0.0 or challenger == 0.0:
        raise UnsupportedKindError(
            f"{sf.kind} has no log-space bias ratio, and the direct solve "
            f"gives 1 - V+ = {shortfall:g} and V- = {challenger:g}"
        )
    return math.log(shortfall / challenger)


def bias_ratio(sub, sf: SuccessFunction) -> float:
    """(1 - V+) / V- of the unit-prize subcontest; may overflow to inf."""
    return _exp_or_inf(log_bias_ratio(sub, sf))


def _exp_or_inf(log_ratio: float) -> float:
    return math.exp(log_ratio) if log_ratio < 700 else math.inf


def _mk1_log_gap_recursion(sf: SuccessFunction, k: int) -> float:
    """Backward induction over the MK1 chain in gap variables.

    Tracks log(1 - V+) and log(V-).  One round maps the incumbent shortfall
    a to a * (1 - phi(a/b)) and the challenger value b to b * phi(b/a).
    Beyond float range the gain curves are read at the log ratio itself,
    and a log ratio past the largest float is +inf.
    """
    la = sf.log_phi_complement(1.0)
    lb = sf.log_phi(1.0)
    for _ in range(1, k):
        lt = la - lb
        if lt == math.inf:
            return lt
        if lt > 700.0:
            la += sf.log_phi_complement_at_log(lt)
            lb += sf.log_phi_at_log(-lt)
            continue
        theta = math.exp(lt)
        la += sf.log_phi_complement(theta)
        lb += sf.log_phi(1.0 / theta)
    return la - lb


def solve_incumbency(spec: IncumbencySpec) -> IncumbencyReport:
    """Backward induction over rounds with q-adjusted round payoffs.

    Round n plays for the stake v_n = W+(n+1) - W-(n+1): with probability q
    the subcontest runs for it, otherwise the incumbent keeps the lead.  Under
    a homogeneous technology the unit-prize subcontest solution scales
    linearly with the stake, so it is solved once and reused; otherwise each
    round re-solves at its own stake.
    """
    sf = spec.sf
    n_rounds = int(spec.rounds)
    q = float(spec.shock_q)
    v = float(spec.prize)
    homogeneous = sf.homogeneous
    # unit-prize solve: the reusable fast path under homogeneity, and the
    # bias/upset probe otherwise
    unit_sol, unit_spec = solve_subcontest(spec.sub, sf, 1.0)
    v_plus_unit, v_minus_unit = unit_sol.v0_a, unit_sol.v0_b
    upset = win_probabilities(unit_sol, unit_spec)[unit_spec.automaton.start][1]

    w_plus = [0.0] * (n_rounds + 2)  # index n = 1..N+1
    w_minus = [0.0] * (n_rounds + 2)
    w_plus[n_rounds + 1] = v
    w_minus[n_rounds + 1] = 0.0
    v_rounds = [0.0] * (n_rounds + 1)
    for n in range(n_rounds, 0, -1):
        stake = w_plus[n + 1] - w_minus[n + 1]
        v_rounds[n] = stake
        if homogeneous or stake == 0.0:
            sub_plus = stake * v_plus_unit
            sub_minus = stake * v_minus_unit
        else:
            round_sol, _ = solve_subcontest(spec.sub, sf, stake)
            sub_plus, sub_minus = round_sol.v0_a, round_sol.v0_b
        round_plus = (1.0 - q) * stake + q * sub_plus
        round_minus = q * sub_minus
        w_plus[n] = w_minus[n + 1] + round_plus
        w_minus[n] = w_minus[n + 1] + round_minus

    start_value = 0.5 * (w_plus[1] + w_minus[1])
    trajectory = []
    for n in range(n_rounds, 0, -1):
        trajectory.append(
            {"round": n, "incumbent": "A", "V_A": w_plus[n], "V_B": w_minus[n]}
        )
        trajectory.append(
            {"round": n, "incumbent": "B", "V_A": w_minus[n], "V_B": w_plus[n]}
        )

    effort = v - w_plus[1] - w_minus[1]
    # conservative minimum battle count: every round's shock branch must still
    # traverse the subcontest's shortest history
    battles_floor = n_rounds * min_length(unit_spec.automaton)
    dissipation = DissipationReport.of(sf, v, start_value, start_value, effort, battles_floor)
    lbr = _log_bias_ratio(spec.sub, sf, lambda: unit_sol)
    notes = []
    if not homogeneous:
        notes.append(
            "non-homogeneous technology: the bias ratio is prize dependent and "
            "was probed at the unit prize and the realized round stakes only"
        )
    return IncumbencyReport(
        rounds=n_rounds,
        shock_q=q,
        sub=spec.sub.describe(),
        prize=v,
        w_plus=w_plus[1 : n_rounds + 1],
        w_minus=w_minus[1 : n_rounds + 1],
        v_rounds=v_rounds[1:],
        v_plus_unit=v_plus_unit,
        v_minus_unit=v_minus_unit,
        bias_ratio=_exp_or_inf(lbr),
        log_bias_ratio=lbr,
        upset_prob=upset,
        start_value_a=start_value,
        start_value_b=start_value,
        dissipation=dissipation,
        trajectory=trajectory,
        notes=notes,
    )


def incumbency_transient_dominance(
    report: IncumbencyReport, spec: IncumbencySpec, epsilon: float
) -> TransientDominanceReport:
    """Transient-dominance certificate for an iterated incumbency contest.

    The weak sets are the round-start states at which a player is the
    laggard.  Both sets are visited exactly when the incumbency flips at
    least once before the final round; flips are independent across rounds
    with probability q * upset each.
    """
    _check_epsilon(epsilon)
    if not spec.sf.homogeneous:
        raise UnsupportedKindError(
            "incumbency transient dominance requires a homogeneous technology"
        )
    n_rounds = report.rounds
    v = report.prize
    flip = spec.shock_q * report.upset_prob
    reach = 1.0 - (1.0 - flip) ** (n_rounds - 1)
    worst_laggard_value = max(report.w_minus) if report.w_minus else 0.0
    return TransientDominanceReport.of(
        epsilon,
        tuple(f"round {n}: laggard A" for n in range(1, n_rounds + 1)),
        tuple(f"round {n}: laggard B" for n in range(1, n_rounds + 1)),
        reach,
        worst_laggard_value <= epsilon * v,
        v,
        v - report.w_plus[0] - report.w_minus[0],
    )


def rounds_for_reach(spec_sub, sf: SuccessFunction, shock_q: float, epsilon: float) -> int:
    """Smallest N whose no-flip probability drops below epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    flip = shock_q * upset_probability(spec_sub, sf)
    if flip <= 0.0:
        raise DomainError("flip probability is zero; no finite round count works")
    return 1 + math.ceil(math.log(epsilon) / math.log1p(-flip))
