"""Iterated incumbency contest tests."""

import math

import pytest

from contestlab import (
    MK1,
    ContestAutomaton,
    ContestSpec,
    DomainError,
    IncumbencySpec,
    Serial,
    TowHeadStart,
    Tullock,
    bias_ratio,
    incumbency_transient_dominance,
    log_bias_ratio,
    solve_incumbency,
    upset_probability,
    win_probabilities,
)
from contestlab import incumbency
from contestlab.incumbency import rounds_for_reach, solve_subcontest
from contestlab.solver import solve
from contestlab.success import parse_sf

SF1 = Tullock(1.0)


class TestBiasRatio:
    def test_single_battle_base_case(self):
        # a one-battle subcontest is symmetric: (1 - phi(1)) / phi(1) = 3
        assert bias_ratio(MK1(1), SF1) == pytest.approx(3.0, rel=1e-12)

    def test_exact_small_cases(self):
        # exact rational backward induction gives V+(2) = 43/64, V-(2) = 1/64
        assert bias_ratio(MK1(2), SF1) == pytest.approx(21.0, rel=1e-12)
        assert bias_ratio(MK1(3), SF1) == pytest.approx(903.0, rel=1e-12)
        assert bias_ratio(MK1(4), SF1) == pytest.approx(1631721.0, rel=1e-12)

    def test_matches_direct_solver_while_representable(self):
        # the gap recursion must agree with a plain backward induction as
        # long as the incumbent's shortfall stays well above float
        # granularity; by k = 5 the direct solve itself has lost six digits
        for k in (1, 2, 3, 4):
            sol, _spec = solve_subcontest(MK1(k), SF1, 1.0)
            direct = (1.0 - sol.v0_a) / sol.v0_b
            assert bias_ratio(MK1(k), SF1) == pytest.approx(direct, rel=1e-9)
        sol, _spec = solve_subcontest(MK1(5), SF1, 1.0)
        direct = (1.0 - sol.v0_a) / sol.v0_b
        assert bias_ratio(MK1(5), SF1) == pytest.approx(direct, rel=1e-5)

    def test_strictly_increasing_mk1(self):
        logs = [log_bias_ratio(MK1(k), SF1) for k in range(1, 11)]
        assert all(b > a for a, b in zip(logs[:-1], logs[1:]))

    def test_strictly_increasing_head_start(self):
        logs = [log_bias_ratio(TowHeadStart(k), SF1) for k in range(1, 11)]
        assert all(b > a for a, b in zip(logs[:-1], logs[1:]))
        # the trend diverges: increments do not die out
        increments = [b - a for a, b in zip(logs[:-1], logs[1:])]
        assert increments[-1] > 1.0

    def test_serial_technology(self):
        logs = [log_bias_ratio(MK1(k), Serial(0.5)) for k in range(1, 8)]
        assert all(b > a for a, b in zip(logs[:-1], logs[1:]))

    def test_overflow_gives_inf(self):
        # log ratios of about 1150 and 959 lie past exp's float range
        assert bias_ratio(TowHeadStart(9), SF1) == math.inf
        assert bias_ratio(MK1(10), SF1) == math.inf

    def test_mk1_past_float_range(self):
        # from k = 11 the gap ratio itself overflows, and the recursion reads
        # the gain curves at its log; below that the floats are unchanged
        logs = [log_bias_ratio(MK1(k), SF1) for k in range(1, 21)]
        assert all(math.isfinite(x) for x in logs)
        assert all(b > a for a, b in zip(logs[:-1], logs[1:]))
        assert logs[7:10] == [
            float.fromhex("0x1.de8f2058dce7bp+7"),
            float.fromhex("0x1.df409270d4b98p+8"),
            float.fromhex("0x1.df994b7cd0a28p+9"),
        ]

    def test_head_start_values(self):
        # tow margin 2 with head start 1: ratio (1 - V(1)) / V(-1)
        sol, _ = solve_subcontest(TowHeadStart(1), SF1, 1.0)
        assert bias_ratio(TowHeadStart(1), SF1) == pytest.approx(
            (1 - sol.v0_a) / sol.v0_b, rel=1e-10
        )


class TestUpset:
    def test_mk1_upset_probability(self):
        # the challenger must win three lopsided battles in a row:
        # (1/22)(1/4)(1/2) from the exact stake ratios 21, 3, 1
        assert upset_probability(MK1(3), SF1) == pytest.approx(1 / 176, rel=1e-10)

    def test_single_battle_upset(self):
        assert upset_probability(MK1(1), SF1) == pytest.approx(0.5, abs=1e-12)


class TestSolveIncumbency:
    @pytest.mark.parametrize(
        "sf, calls",
        [(SF1, 1), (parse_sf("ratio:pow,alpha=0.7"), 6)],
        ids=["homogeneous", "ratio-form"],
    )
    def test_unit_subcontest_solved_once(self, monkeypatch, sf, calls):
        # one unit-prize solve serves the values, the upset odds and the bias
        # ratio; only a non-homogeneous kind re-solves at each round's stake
        specs = []

        def counting_solve(spec, **options):
            specs.append(spec)
            return solve(spec, **options)

        monkeypatch.setattr(incumbency, "solve", counting_solve)
        solve_incumbency(IncumbencySpec(5, 0.5, TowHeadStart(3), sf))
        assert len(specs) == calls

    def test_single_round_collapses_to_battle(self):
        spec = IncumbencySpec(rounds=1, shock_q=1.0, sub=MK1(1), sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        assert rep.v_rounds[-1] == pytest.approx(1.0)
        assert rep.w_plus[0] == pytest.approx(0.25, abs=1e-14)
        assert rep.w_minus[0] == pytest.approx(0.25, abs=1e-14)
        assert rep.start_value_a == pytest.approx(0.25, abs=1e-14)
        assert rep.dissipation.total_effort == pytest.approx(0.5, abs=1e-13)

    def test_round_payoff_ratio_invariant_in_q(self):
        # (v' - adjusted incumbent payoff) / adjusted laggard payoff is the
        # same with and without the status-quo lottery
        def normalized_ratio(q):
            spec = IncumbencySpec(rounds=1, shock_q=q, sub=MK1(1), sf=SF1, prize=1.0)
            rep = solve_incumbency(spec)
            v1 = rep.v_rounds[-1]
            adj_plus = rep.w_plus[-1]  # W-(N+1) = 0, so the round payoff itself
            adj_minus = rep.w_minus[-1]
            return (v1 - adj_plus) / adj_minus

        assert normalized_ratio(1.0) == pytest.approx(normalized_ratio(0.5), rel=1e-12)
        assert normalized_ratio(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_incumbent_dominates_each_round(self):
        spec = IncumbencySpec(rounds=12, shock_q=0.6, sub=MK1(2), sf=SF1, prize=2.0)
        rep = solve_incumbency(spec)
        for wp, wm in zip(rep.w_plus, rep.w_minus):
            assert wp >= wm >= 0.0
            assert wp <= 2.0

    def test_trajectory_converges_backward(self):
        spec = IncumbencySpec(rounds=10, shock_q=0.5, sub=MK1(2), sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        gaps = [wp - wm for wp, wm in zip(rep.w_plus, rep.w_minus)]
        # the two incumbent-identity points drift together in earlier rounds
        assert all(a <= b + 1e-15 for a, b in zip(gaps[:-1], gaps[1:]))
        assert rep.trajectory[0]["round"] == 10
        assert rep.trajectory[0]["incumbent"] == "A"
        assert {"round", "incumbent", "V_A", "V_B"} == set(rep.trajectory[0])

    def test_homogeneous_scaling_fast_path(self):
        spec1 = IncumbencySpec(rounds=6, shock_q=0.7, sub=MK1(2), sf=SF1, prize=1.0)
        spec5 = IncumbencySpec(rounds=6, shock_q=0.7, sub=MK1(2), sf=SF1, prize=5.0)
        rep1, rep5 = solve_incumbency(spec1), solve_incumbency(spec5)
        for a, b in zip(rep1.w_plus, rep5.w_plus):
            assert b == pytest.approx(5 * a, rel=1e-12)

    def test_non_homogeneous_resolves_per_round(self):
        from contestlab import RatioForm

        spec = IncumbencySpec(
            rounds=3, shock_q=0.8, sub=MK1(2), sf=RatioForm("powsum", 0.5, 0.9), prize=1.0
        )
        rep = solve_incumbency(spec)
        assert 0.0 < rep.start_value_a < 0.5
        assert rep.dissipation.total_effort > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            IncumbencySpec(rounds=0, shock_q=0.5, sub=MK1(1), sf=SF1)
        with pytest.raises(DomainError):
            IncumbencySpec(rounds=2, shock_q=0.0, sub=MK1(1), sf=SF1)
        with pytest.raises(DomainError):
            IncumbencySpec(rounds=2, shock_q=0.5, sub="mk1", sf=SF1)


class TestIncumbencyTransientDominance:
    def test_symmetric_battle_rounds(self):
        # per-round upset 1/2 at q = 1: both weak sets reached unless the
        # coin lands the same way every remaining round
        spec = IncumbencySpec(rounds=10, shock_q=1.0, sub=MK1(1), sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        cert = incumbency_transient_dominance(rep, spec, 0.2)
        assert cert.reach_both_prob == pytest.approx(1 - 2 * 0.5**10, rel=1e-12)
        # a symmetric subcontest is not biased: the value condition fails
        assert not cert.satisfied

    def test_single_round_cannot_visit_both(self):
        spec = IncumbencySpec(rounds=1, shock_q=1.0, sub=MK1(1), sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        cert = incumbency_transient_dominance(rep, spec, 0.05)
        assert cert.reach_both_prob == 0.0
        assert not cert.satisfied

    def test_biased_long_contest_certifies(self):
        eps = 0.01
        sub = MK1(3)
        assert bias_ratio(sub, SF1) >= 1 / eps
        n_rounds = rounds_for_reach(sub, SF1, 0.5, eps)
        spec = IncumbencySpec(rounds=n_rounds, shock_q=0.5, sub=sub, sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        cert = incumbency_transient_dominance(rep, spec, eps)
        assert cert.satisfied
        assert cert.reach_both_prob >= 1 - eps
        assert max(rep.w_minus) <= eps
        assert rep.dissipation.total_effort >= cert.implied_effort_floor
        assert rep.dissipation.dissipation_ratio >= 0.96

    def test_epsilon_domain(self):
        spec = IncumbencySpec(rounds=2, shock_q=0.5, sub=MK1(1), sf=SF1, prize=1.0)
        rep = solve_incumbency(spec)
        with pytest.raises(DomainError):
            incumbency_transient_dominance(rep, spec, 0.25)


def _unrolled_mk1(rounds: int, q: float, k: int) -> tuple[ContestAutomaton, dict]:
    """MK1(k) incumbency unrolled into one rule, and each state's id.

    States are (round m, incumbent, challenger wins j) from (1, "A", 0), and
    the terminals ("A",) and ("B",).  When the incumbent wins a battle, or
    the challenger its k-th and takes over, a lottery sends the holder to
    the next shock at round m' with chance q(1-q)^(m'-m-1), or to its
    terminal with chance (1-q)^(N-m).
    """

    def lottery(m, holder):
        legs = [((r, holder, 0), q * (1.0 - q) ** (r - m - 1)) for r in range(m + 1, rounds + 1)]
        legs.append(((holder,), (1.0 - q) ** (rounds - m)))
        return [(state, p) for state, p in legs if p > 0.0]

    ids, moves, todo = {}, {}, [(1, "A", 0)]
    while todo:
        state = todo.pop()
        if state in ids:
            continue
        ids[state] = len(ids)
        if len(state) == 1:
            continue
        m, holder, j = state
        challenger = "B" if holder == "A" else "A"
        moves[state, holder] = lottery(m, holder)
        moves[state, challenger] = (
            lottery(m, challenger) if j + 1 == k else [((m, holder, j + 1), 1.0)]
        )
        todo.extend(t for w in "AB" for t, _ in moves[state, w])
    transitions = {(ids[s], w): [(ids[t], p) for t, p in dist] for (s, w), dist in moves.items()}
    terminal = {ids[s]: s[0] for s in ids if len(s) == 1}
    return ContestAutomaton(0, transitions, terminal), ids


class TestUnrolledIncumbency:
    @pytest.mark.parametrize(
        "rounds, q, k, sf",
        [(5, 0.5, 2, SF1), (30, 0.5, 3, SF1), (40, 0.3, 2, Tullock(0.8))],
    )
    def test_recursion_matches_generic_solver(self, rounds, q, k, sf):
        # at a subcontest start in round m the incumbent's value is
        # W-(m+1) + (W+(m+1) - W-(m+1)) * v_plus_unit, the challenger's the
        # same with v_minus_unit, where W+(N+1) = prize and W-(N+1) = 0
        rule, ids = _unrolled_mk1(rounds, q, k)
        sol = solve(ContestSpec(rule, sf, 1.0))
        assert sol.method == "backward"
        rep = solve_incumbency(IncumbencySpec(rounds, q, MK1(k), sf))
        w_plus, w_minus = rep.w_plus + [1.0], rep.w_minus + [0.0]
        gaps = []
        for state, s in ids.items():
            if len(state) == 1 or state[2] != 0:
                continue
            m, holder = state[:2]
            stake = w_plus[m] - w_minus[m]
            lead = w_minus[m] + stake * rep.v_plus_unit
            lag = w_minus[m] + stake * rep.v_minus_unit
            value_a, value_b = (lead, lag) if holder == "A" else (lag, lead)
            gaps += [abs(sol.values_a[s] - value_a), abs(sol.values_b[s] - value_b)]
        assert len(gaps) >= 2 * rounds
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize(
        "rounds, q, k, sf",
        [(5, 0.5, 2, SF1), (30, 0.5, 3, SF1), (40, 0.3, 2, Tullock(0.8))],
    )
    def test_upset_probability_matches_win_probabilities(self, rounds, q, k, sf):
        # a round-start holder keeps the seat this round with chance 1 - u and
        # keeps it at the end if the later N - m rounds flip it an even number
        # of times, each flipping with chance f = q u: E = (1 + (1 - 2f)^(N-m)) / 2
        rule, ids = _unrolled_mk1(rounds, q, k)
        spec = ContestSpec(rule, sf, 1.0)
        sol = solve(spec)
        assert sol.method == "backward"
        reach = win_probabilities(sol, spec)
        upset = solve_incumbency(IncumbencySpec(rounds, q, MK1(k), sf)).upset_prob
        flip = q * upset
        gaps = []
        for state, s in ids.items():
            if len(state) == 1 or state[2] != 0:
                continue
            m, holder = state[:2]
            even = (1.0 + (1.0 - 2.0 * flip) ** (rounds - m)) / 2.0
            keeps = (1.0 - upset) * even + upset * (1.0 - even)
            gaps.append(abs(reach[s]["AB".index(holder)] - keeps))
        assert len(gaps) >= rounds
        assert max(gaps) <= 1e-12


class TestRoundsForReach:
    def test_matches_closed_form(self):
        # flip probability 1/2: need 1 + ceil(log eps / log 1/2) rounds
        n = rounds_for_reach(MK1(1), SF1, 1.0, 0.01)
        assert n == 1 + math.ceil(math.log(0.01) / math.log(0.5))

    def test_guard(self):
        with pytest.raises(DomainError):
            rounds_for_reach(MK1(1), SF1, 1.0, 1.5)
