"""Iterated incumbency contests.

An N-round competition in which an exogenous shock (probability q per round)
reopens a biased subcontest for the incumbent position; surviving round N as
incumbent wins the prize.  Round 0 is a fair coin toss for the initial
incumbency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .automaton import ContestAutomaton, ContestSpec, build_mk1, build_tug_of_war, min_length
from .errors import DomainError, UnsupportedKindError
from .metrics import (
    DissipationReport,
    TransientDominanceReport,
    balanced_gain_ratio,
    win_probabilities,
)
from .solver import ValueSolution, solve, solve_tow_closed
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
        if not 0.0 < self.prize < math.inf:
            raise DomainError("prize must be positive and finite")


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
        return {
            "rounds": self.rounds,
            "shock_q": self.shock_q,
            "sub": self.sub,
            "prize": self.prize,
            "w_plus": self.w_plus,
            "w_minus": self.w_minus,
            "v_rounds": self.v_rounds,
            "v_plus_unit": self.v_plus_unit,
            "v_minus_unit": self.v_minus_unit,
            "bias_ratio": self.bias_ratio,
            "log_bias_ratio": self.log_bias_ratio,
            "upset_prob": self.upset_prob,
            "start_value_a": self.start_value_a,
            "start_value_b": self.start_value_b,
            "dissipation": self.dissipation.to_dict(),
            "trajectory": self.trajectory,
            "notes": self.notes,
        }


def subcontest_automaton(sub) -> ContestAutomaton:
    """Automaton of the standalone subcontest with player A as the incumbent."""
    if isinstance(sub, MK1):
        return build_mk1(sub.k)
    if isinstance(sub, TowHeadStart):
        return build_tug_of_war(sub.k + 1, 0.0, sub.k)
    raise DomainError("unknown subcontest kind")


def solve_subcontest(sub, sf: SuccessFunction, prize: float = 1.0) -> tuple[ValueSolution, ContestSpec]:
    """Solve the standalone subcontest at the given prize (A = incumbent)."""
    auto = subcontest_automaton(sub)
    spec = ContestSpec(auto, sf, prize)
    if isinstance(sub, TowHeadStart) and sf.homogeneous:
        return solve_tow_closed(sub.k + 1, 0.0, sub.k, sf, prize), spec
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
    if isinstance(sub, MK1) and sf.homogeneous:
        return _mk1_log_gap_recursion(sf, sub.k)
    if isinstance(sub, TowHeadStart) and sf.homogeneous:
        # at head start k in a margin-(k+1) contest, the bias ratio equals
        # the outermost ring's win/loss gap ratio
        sol = solve_tow_closed(sub.k + 1, 0.0, sub.k, sf, 1.0)
        return sol.extras["ring_log_ratio"][-1]
    sol, _spec = solve_subcontest(sub, sf, 1.0)
    return math.log((1.0 - sol.v0_a) / sol.v0_b)


def bias_ratio(sub, sf: SuccessFunction) -> float:
    """(1 - V+) / V- of the unit-prize subcontest; may overflow to inf."""
    return math.exp(log_bias_ratio(sub, sf))


def _mk1_log_gap_recursion(sf: SuccessFunction, k: int) -> float:
    """Backward induction over the MK1 chain in gap variables.

    Tracks log(1 - V+) and log(V-).  One round maps the incumbent shortfall
    a to a * (1 - phi(a/b)) and the challenger value b to b * phi(b/a).
    """
    la = sf.log_phi_complement(1.0)
    lb = sf.log_phi(1.0)
    for _ in range(1, k):
        lt = la - lb
        if lt > 700.0:
            raise DomainError(
                "bias ratio exceeds the representable range; use log_bias_ratio trends"
            )
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
    sub_len = min_length(subcontest_automaton(spec.sub))
    battles_floor = n_rounds * sub_len
    pi1 = balanced_gain_ratio(sf, v)
    bound = 1.0 - pi1**battles_floor
    dissipation = DissipationReport(
        total_effort=effort,
        dissipation_ratio=effort / v,
        v0_a=start_value,
        v0_b=start_value,
        thm1_bound=bound,
        bound_satisfied=effort / v < bound,
        prize=v,
        min_length=float(battles_floor),
        balanced_gain=pi1,
    )
    lbr = log_bias_ratio(spec.sub, sf)
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
        bias_ratio=math.exp(lbr) if lbr < 700 else math.inf,
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
    if not 0.0 < epsilon < 0.25:
        raise DomainError("epsilon must lie in (0, 1/4)")
    if not spec.sf.homogeneous:
        raise UnsupportedKindError(
            "incumbency transient dominance requires a homogeneous technology"
        )
    n_rounds = report.rounds
    v = report.prize
    flip = spec.shock_q * report.upset_prob
    reach = 1.0 - (1.0 - flip) ** (n_rounds - 1)
    worst_laggard_value = max(report.w_minus) if report.w_minus else 0.0
    value_ok = worst_laggard_value <= epsilon * v
    satisfied = value_ok and reach >= 1.0 - epsilon
    ids_a = tuple(f"round {n}: laggard A" for n in range(1, n_rounds + 1))
    ids_b = tuple(f"round {n}: laggard B" for n in range(1, n_rounds + 1))
    effort = v - report.w_plus[0] - report.w_minus[0]
    return TransientDominanceReport(
        epsilon=epsilon,
        set_a_minus=ids_a,
        set_b_minus=ids_b,
        reach_both_prob=reach,
        satisfied=satisfied,
        implied_effort_floor=(1.0 - 4.0 * epsilon) * v if satisfied else 0.0,
        prize=v,
        measured_total_effort=effort,
    )


def rounds_for_reach(spec_sub, sf: SuccessFunction, shock_q: float, epsilon: float) -> int:
    """Smallest N whose no-flip probability drops below epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    flip = shock_q * upset_probability(spec_sub, sf)
    if flip <= 0.0:
        raise DomainError("flip probability is zero; no finite round count works")
    return 1 + math.ceil(math.log(epsilon) / math.log1p(-flip))
