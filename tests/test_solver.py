"""Equilibrium solver tests.

The backward-induction oracles are recomputed here with exact rational
arithmetic before being compared against the float implementation; the
closed-form recursions are cross-checked against the generic fixed-point
engine and against high-precision frozen constants.
"""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from contestlab import (
    MK1,
    ContestAutomaton,
    ContestSpec,
    ConvergenceError,
    CyclicAutomatonError,
    DomainError,
    IncumbencySpec,
    Noisy,
    Serial,
    Tullock,
    UnsupportedKindError,
    build_best_of,
    build_consecutive_win,
    build_mk1,
    build_tug_of_war,
    parse_sf,
    residual,
    solve,
    solve_battle,
    solve_consecutive_closed,
    solve_cyclic,
    solve_finite,
    solve_tow_closed,
)
from contestlab.metrics import reinforcement_residuals
from contestlab.solver import _Layer

SF1 = Tullock(1.0)


def phi_rational(theta: F) -> F:
    """Gain function of the unit Tullock curve in exact arithmetic."""
    return theta * theta / ((1 + theta) ** 2)


def best_of_three_rational():
    """Exact backward induction of the first-to-two race at unit prize."""
    v11 = phi_rational(F(1))  # deciding battle
    d_lead = 1 - v11
    d_trail = v11
    va_10 = v11 + d_lead * phi_rational(d_lead / d_trail)
    vb_10 = d_trail * phi_rational(d_trail / d_lead)
    d0 = va_10 - vb_10
    v00 = vb_10 + d0 * phi_rational(F(1))
    return v00, va_10, vb_10


class TestBackwardInduction:
    def test_best_of_three_exact(self):
        v00, va10, vb10 = best_of_three_rational()
        assert (v00, va10, vb10) == (F(23, 128), F(43, 64), F(1, 64))
        m = build_best_of(1)
        sol = solve_finite(ContestSpec(m, SF1, 1.0))
        assert sol.v0_a == pytest.approx(float(v00), abs=1e-15)
        assert sol.v0_b == pytest.approx(float(v00), abs=1e-15)
        s10 = next(s for s in m.states() if m.labels[s] == "score 1-0")
        assert sol.values_a[s10] == pytest.approx(float(va10), abs=1e-15)
        assert sol.values_b[s10] == pytest.approx(float(vb10), abs=1e-15)
        assert sol.residual <= 1e-13

    def test_single_battle(self):
        sol = solve_finite(ContestSpec(build_best_of(0), SF1, 1.0))
        assert sol.v0_a == pytest.approx(0.25, abs=1e-15)

    def test_prize_scaling(self):
        sol = solve_finite(ContestSpec(build_best_of(1), SF1, 3.0))
        assert sol.v0_a == pytest.approx(3 * 23 / 128, abs=1e-14)

    def test_mk1_recursion_identity(self):
        # the first battle of the biased race couples to the shorter race:
        # V+(2) = V+(1) + pi*(1 - V+(1), V-(1)) (1 - V+(1))
        sol = solve_finite(ContestSpec(build_mk1(2), SF1, 1.0))
        v_plus_1 = v_minus_1 = 0.25
        gain = solve_battle(SF1, 1 - v_plus_1, v_minus_1)
        assert sol.v0_a == pytest.approx(v_plus_1 + gain.payoff_a, abs=1e-14)
        assert sol.v0_a == pytest.approx(43 / 64, abs=1e-15)
        assert sol.v0_b == pytest.approx(1 / 64, abs=1e-15)

    def test_cycle_detected(self):
        with pytest.raises(CyclicAutomatonError):
            solve_finite(ContestSpec(build_tug_of_war(2), SF1, 1.0))

    def test_feasibility(self):
        sol = solve_finite(ContestSpec(build_best_of(4), SF1, 1.0))
        for s, sv in sol.states.items():
            assert 0.0 <= sv.value_a <= 1.0
            assert sv.value_a + sv.value_b <= 1.0 + 1e-12
            assert sv.stake_a > 0.0 and sv.stake_b > 0.0


# 50-digit evaluation of the margin-2 closed form: the win/loss gap ratio at
# the first ring solves t^2 - 3t - 6 = 0, and the boundary scaling gives
TOW2_THETA1 = 4.372281323269014
TOW2_V0 = 0.18614066163450716
TOW2_V1 = 0.7252142484392586
TOW2_VM1 = 0.006449466032923364


class TestTowClosed:
    def test_margin_one_collapses_to_single_battle(self):
        sol = solve_tow_closed(1, 0.0, 0, SF1, 1.0)
        assert sol.v0_a == pytest.approx(0.25, abs=1e-15)
        assert 1.0 - sol.v0_a - sol.v0_b == pytest.approx(0.5, abs=1e-15)

    def test_margin_two_frozen_values(self):
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        assert sol.values_a[2] == pytest.approx(TOW2_V0, abs=1e-14)
        assert sol.values_a[3] == pytest.approx(TOW2_V1, abs=1e-14)
        assert sol.values_a[1] == pytest.approx(TOW2_VM1, abs=1e-14)
        # ring ratio equals the quadratic root
        assert sol.extras["ring_theta"][0] == pytest.approx(TOW2_THETA1, rel=1e-13)

    def test_margin_two_initial_gaps(self):
        # normalized post-battle gaps start at (1 - phi(1), -phi(1))
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        assert sol.extras["delta_plus"][0] == pytest.approx(0.75, abs=1e-15)
        assert sol.extras["delta_minus"][0] == pytest.approx(0.25, abs=1e-15)

    def test_oracle_fixed_point(self):
        # independent damped fixed-point solve of the post-battle equations
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        values = _tow_reference_fixed_point(2, 0.0)
        for i in (-1, 0, 1):
            assert sol.values_a[i + 2] == pytest.approx(values[i], abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.6])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_reference_fixed_point_grid(self, n, p):
        sol = solve_tow_closed(n, p, 0, SF1, 1.0)
        values = _tow_reference_fixed_point(n, p)
        for i in range(-n, n + 1):
            assert sol.values_a[i + n] == pytest.approx(values[i], abs=1e-9)

    def test_monotone_values(self):
        sol = solve_tow_closed(8, 0.3, 0, Serial(0.5), 1.0)
        vals = [sol.values_a[s] for s in range(17)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_zero_bellman_residual(self):
        for sf in (SF1, Tullock(0.5), Serial(0.4), Noisy(Tullock(1.0), 0.7)):
            for n, p in ((4, 0.0), (6, 0.35)):
                sol = solve_tow_closed(n, p, 0, sf, 1.0)
                spec = ContestSpec(build_tug_of_war(n, p), sf, 1.0)
                assert residual(spec, sol) <= 1e-13

    def test_head_start_moves_start_values(self):
        sol = solve_tow_closed(4, 0.0, 2, SF1, 1.0)
        base = solve_tow_closed(4, 0.0, 0, SF1, 1.0)
        assert sol.values_a == base.values_a
        assert sol.v0_a == base.values_a[2 + 4]

    def test_prize_scaling_exact(self):
        unit = solve_tow_closed(5, 0.2, 0, SF1, 1.0)
        scaled = solve_tow_closed(5, 0.2, 0, SF1, 7.0)
        for s in range(11):
            assert scaled.values_a[s] == pytest.approx(7 * unit.values_a[s], rel=1e-12)

    def test_rejects_ratio_form(self):
        from contestlab import RatioForm

        with pytest.raises(UnsupportedKindError):
            solve_tow_closed(3, 0.0, 0, RatioForm("pow", 0.8), 1.0)


class TestConsecutiveClosed:
    def test_k2_exact_rationals(self):
        # streak root 2 solves psi(r) = r^2/(r+2) = 1; the unique-solution
        # algebra then gives the full value ladder in nineteenths
        rho = F(2)
        p2 = 1 - phi_rational(1 / rho)
        w = 1 / (1 + rho - p2)
        u = 1 - rho * w
        v0 = u + phi_rational(F(1)) * (w - u)
        assert (p2, w, u, v0) == (F(8, 9), F(9, 19), F(1, 19), F(3, 19))
        sol = solve_consecutive_closed(2, SF1, 1.0)
        assert sol.values_a[3] == pytest.approx(float(w), abs=1e-14)
        assert sol.values_a[1] == pytest.approx(float(u), abs=1e-14)
        assert sol.values_a[2] == pytest.approx(float(v0), abs=1e-14)
        assert 1 - sol.v0_a - sol.v0_b == pytest.approx(13 / 19, abs=1e-13)

    def test_k1_single_battle(self):
        sol = solve_consecutive_closed(1, SF1, 1.0)
        assert sol.v0_a == pytest.approx(0.25, abs=1e-15)

    def test_pivot_fixed_point_residual(self):
        # iterating the two-sided ladder from (0, v) must return exactly to
        # the pivotal pair (value after one loss, value after one win)
        for k in (2, 4, 7):
            sol = solve_consecutive_closed(k, SF1, 1.0)
            u, w = sol.values_a[k - 1], sol.values_a[k + 1]
            a, b = 0.0, 1.0
            for _ in range(k - 1):
                a, b = (
                    a + (w - a) * SF1.phi((w - a) / (b - u)),
                    u + (b - u) * SF1.phi((b - u) / (w - a)),
                )
            assert abs(a - u) <= 1e-12
            assert abs(b - w) <= 1e-12

    def test_strict_monotonicity(self):
        for sf in (SF1, Serial(0.6), Noisy(Tullock(0.5), 0.8)):
            sol = solve_consecutive_closed(6, sf, 1.0)
            vals = [sol.values_a[s] for s in range(13)]
            assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_zero_bellman_residual(self):
        for k in (2, 5, 9):
            sol = solve_consecutive_closed(k, SF1, 2.5)
            spec = ContestSpec(build_consecutive_win(k), SF1, 2.5)
            assert residual(spec, sol) <= 1e-12 * 2.5

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_consecutive_closed(0, SF1, 1.0)


class TestCyclicEngine:
    def test_margin_one_exact(self):
        # the single state touches only terminal continuations, so the first
        # (undamped) sweep already lands on the battle solution
        sol = solve_cyclic(ContestSpec(build_tug_of_war(1), SF1, 1.0))
        assert sol.v0_a == pytest.approx(0.25, abs=1e-13)
        assert sol.iterations <= 2

    @pytest.mark.parametrize("n,p", [(4, 0.0), (4, 0.3), (9, 0.3)])
    def test_matches_tow_closed(self, n, p):
        spec = ContestSpec(build_tug_of_war(n, p), SF1, 1.0)
        cyc = solve_cyclic(spec)
        clo = solve_tow_closed(n, p, 0, SF1, 1.0)
        for s in range(spec.automaton.n):
            assert cyc.values_a[s] == pytest.approx(clo.values_a[s], abs=1e-8)

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_matches_consecutive_closed(self, k):
        spec = ContestSpec(build_consecutive_win(k), SF1, 1.0)
        cyc = solve_cyclic(spec)
        clo = solve_consecutive_closed(k, SF1, 1.0)
        for s in range(spec.automaton.n):
            assert cyc.values_a[s] == pytest.approx(clo.values_a[s], abs=1e-8)

    def test_deterministic(self):
        spec = ContestSpec(build_tug_of_war(5, 0.4), SF1, 1.0)
        a = solve_cyclic(spec)
        b = solve_cyclic(spec)
        assert a.values_a == b.values_a and a.values_b == b.values_b

    def test_reports_nonconvergence(self):
        spec = ContestSpec(build_tug_of_war(8, 0.3), Tullock(0.5), 1.0)
        with pytest.raises(ConvergenceError) as err:
            solve_cyclic(spec, max_iter=2)
        assert math.isfinite(err.value.residual) or err.value.residual == math.inf

    def test_ratio_form_cyclic(self):
        from contestlab import RatioForm

        sf = RatioForm("pow", alpha=0.8)
        spec = ContestSpec(build_tug_of_war(2), sf, 1.0)
        sol = solve_cyclic(spec, tol=1e-11)
        ref = solve_tow_closed(2, 0.0, 0, Tullock(0.8), 1.0)
        assert sol.v0_a == pytest.approx(ref.v0_a, abs=1e-8)

    def test_non_homogeneous_reset_tow(self):
        # no closed form exists here; the engine must still report a
        # verified fixed point, and the prize genuinely matters
        from contestlab import RatioForm

        sf = RatioForm("powsum", alpha=0.5, beta=0.9)
        unit = solve_cyclic(ContestSpec(build_tug_of_war(3, 0.3), sf, 1.0), tol=1e-10)
        assert unit.residual <= 1e-10
        vals = [unit.values_a[s] for s in range(7)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        double = solve_cyclic(ContestSpec(build_tug_of_war(3, 0.3), sf, 2.0), tol=1e-10)
        scale = double.values_a[3] / unit.values_a[3]
        assert scale != pytest.approx(2.0, abs=1e-3)

    def test_trust_region_rescue(self):
        # The sweeps and the quasi-Newton search only find an idle fixed point
        # here; the trust-region rescue at the end of a phase finds the one
        # reported (without it the answer is 0.52413 / 0.12396).
        m = ContestAutomaton(
            start=0,
            transitions={
                (0, "A"): ((4, 0.1828665948649654), (3, 0.8171334051350346)),
                (0, "B"): ((2, 1.0),),
                (1, "A"): ((2, 1.0),),
                (1, "B"): ((3, 1.0),),
                (2, "A"): ((6, 1.0),),
                (2, "B"): ((5, 1.0),),
                (3, "A"): ((0, 1.0),),
                (3, "B"): ((2, 1.0),),
                (4, "A"): ((1, 1.0),),
                (4, "B"): ((3, 1.0),),
                (5, "A"): ((7, 1.0),),
                (5, "B"): ((1, 1.0),),
            },
            terminal={6: "A", 7: "B"},
        )
        sol = solve_cyclic(ContestSpec(m, Serial(0.5), 1.0))
        assert sol.v0_a == pytest.approx(0.578301608705025, abs=1e-9)
        assert sol.v0_b == pytest.approx(0.2562987836164205, abs=1e-9)
        assert sol.residual <= 1e-12


class TestResidual:
    def test_solved_profiles_have_zero_residual(self):
        spec = ContestSpec(build_best_of(1), SF1, 1.0)
        assert residual(spec, solve_finite(spec)) <= 1e-13

    def test_perturbation_sensitivity(self):
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        pairs = {s: (sol.values_a[s], sol.values_b[s]) for s in spec.automaton.nonterminal_states}
        center = 2
        pairs[center] = (pairs[center][0] + 0.01, pairs[center][1])
        assert residual(spec, pairs) >= 1e-3

    def test_all_zero_profile(self):
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        pairs = {s: (0.0, 0.0) for s in spec.automaton.nonterminal_states}
        assert residual(spec, pairs) >= 0.25  # at least the balanced gain share

    def test_dimension_mismatch(self):
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        with pytest.raises(DomainError):
            residual(spec, {0: (0.1, 0.1)})


class TestOneSidedBattle:
    """A start state where only player A has a positive stake.

    A's win leads to a fair lottery over the terminals, B's win to a single
    deciding battle worth a quarter of the prize to each side, so B's stake
    at the start is negative and the start battle is one-sided.
    """

    RULE = {
        "states": [
            {"id": 0, "label": "start", "terminal": None},
            {"id": 1, "label": "decider", "terminal": None},
            {"id": 2, "label": "A wins", "terminal": "A"},
            {"id": 3, "label": "B wins", "terminal": "B"},
        ],
        "start": 0,
        "edges": [
            {"from": 0, "winner": "A",
             "to": [{"state": 2, "prob": 0.5}, {"state": 3, "prob": 0.5}]},
            {"from": 0, "winner": "B", "to": [{"state": 1, "prob": 1.0}]},
            {"from": 1, "winner": "A", "to": [{"state": 2, "prob": 1.0}]},
            {"from": 1, "winner": "B", "to": [{"state": 3, "prob": 1.0}]},
        ],
    }

    @pytest.mark.parametrize(
        "text",
        [
            "tullock:r=1",
            "noisy:q=0.5,base=tullock:r=1",
            "ratio:pow,alpha=0.8",
            "ratio:powsum,alpha=0.6,beta=0.9",
            "noisy:q=0.5,base=ratio:pow,alpha=0.8",
        ],
    )
    def test_values_match_the_operator(self, text):
        from contestlab import automaton_from_dict, parse_sf

        sf = parse_sf(text)
        spec = ContestSpec(automaton_from_dict(self.RULE), sf, 1.0)
        sol = solve(spec)
        assert sol.method == "backward"
        assert residual(spec, sol) <= 1e-12
        ea_w = 0.5 * sol.values_a[2] + 0.5 * sol.values_a[3]
        ea_l = sol.values_a[1]
        eb_w = sol.values_b[1]
        eb_l = 0.5 * sol.values_b[2] + 0.5 * sol.values_b[3]
        da = ea_w - ea_l
        assert da > 0.0 > eb_w - eb_l
        assert sol.v0_a == pytest.approx(ea_l + sf.gain_limit * da, abs=1e-15)
        row = sol.states[0]
        assert (row.effort_a, row.effort_b, row.win_prob_a) == (0.0, 0.0, sf.win_limit)


def race_rule(k: int = 4, bonus_p: float = 0.3) -> ContestAutomaton:
    """First to k battle wins, where a win jumps two steps with chance
    ``bonus_p`` unless that overshoots k.  Acyclic and symmetric."""
    ids = {}

    def sid(a, b):
        return ids.setdefault((a, b), len(ids))

    transitions = {}
    for a in range(k):
        for b in range(k):
            s = sid(a, b)
            for w, da, db in (("A", 1, 0), ("B", 0, 1)):
                one, two = sid(a + da, b + db), (a + 2 * da, b + 2 * db)
                transitions[(s, w)] = (
                    ((one, 1.0),) if max(two) > k else ((one, 1.0 - bonus_p), (sid(*two), bonus_p))
                )
    terminal = {s: "A" if a >= k else "B" for (a, b), s in ids.items() if max(a, b) >= k}
    return ContestAutomaton(ids[(0, 0)], transitions, terminal)


class TestOneOperator:
    """Backward induction runs through the operator that measures the
    residual, so the residual is exactly zero and symmetric rules give
    bitwise-symmetric start values."""

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("text", ["serial:alpha=0.5", "tullock:r=0.8"])
    def test_best_of(self, text, k):
        sol = solve(ContestSpec(build_best_of(k), parse_sf(text), 1.0))
        assert sol.method == "backward"
        assert sol.residual == 0.0
        assert sol.v0_a == sol.v0_b

    @pytest.mark.parametrize(
        "text",
        [
            "tullock:r=1",
            "tullock:r=0.8",
            "serial:alpha=0.5",
            "ratio:pow,alpha=0.7",
            "noisy:q=0.5,base=ratio:pow,alpha=0.7",
        ],
    )
    def test_bonus_race(self, text):
        sol = solve(ContestSpec(race_rule(), parse_sf(text), 1.0))
        assert sol.method == "backward"
        assert sol.residual == 0.0
        assert sol.v0_a == sol.v0_b

    def test_stakes_equal_per_state_sums(self):
        m = race_rule()
        spec = ContestSpec(m, Tullock(0.8), 1.0)
        sol = solve(spec)
        va = np.array([sol.values_a[s] for s in range(m.n)])
        vb = np.array([sol.values_b[s] for s in range(m.n)])
        layer = _Layer(spec)

        def by_hand(rows):
            sums = []
            for i in rows:
                s = layer.nt[i]
                win_a, win_b = m.successors(s, "A"), m.successors(s, "B")
                sums.append((
                    sum(p * va[t] for t, p in win_a),
                    sum(p * va[t] for t, p in win_b),
                    sum(p * vb[t] for t, p in win_b),
                    sum(p * vb[t] for t, p in win_a),
                ))
            return list(zip(*sums))

        for rows in (None, [5], [3, 5, 11]):
            got = layer.stakes(va, vb, rows)
            want = by_hand(range(len(layer.nt)) if rows is None else rows)
            for column, expected in zip(got, want):
                assert column.tolist() == list(expected)

    def test_leg_table_follows_the_transitions(self):
        m = race_rule()
        legs = m.legs
        walk = [
            (s, code, t, p)
            for s in m.nonterminal_states
            for code, w in enumerate("AB")
            for t, p in m.successors(s, w)
        ]
        table = zip(legs.src.tolist(), legs.win.tolist(), legs.tgt.tolist(), legs.prob.tolist())
        assert list(table) == walk
        nt = m.nonterminal_states
        assert legs.row.tolist() == [nt.index(s) if s in nt else -1 for s in range(m.n)]
        assert legs.outcome.tolist() == [
            {"A": 0, "B": 1}.get(m.winner(s), -1) for s in range(m.n)
        ]
        assert m.legs is legs
        assert not legs.prob.flags.writeable

    def test_backward_route_memory(self):
        # the operator keeps only the leg table: no dense states-by-states arrays
        spec = ContestSpec(build_best_of(40), Tullock(0.8), 1.0)
        tracemalloc.start()
        try:
            residual(spec, solve(spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestPrizeDomain:
    @pytest.mark.parametrize("prize", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_prize(self, prize):
        with pytest.raises(DomainError):
            ContestSpec(build_best_of(2), SF1, prize)
        with pytest.raises(DomainError):
            solve_tow_closed(3, 0.0, 0, SF1, prize)
        with pytest.raises(DomainError):
            solve_consecutive_closed(3, SF1, prize)
        with pytest.raises(DomainError):
            IncumbencySpec(rounds=3, shock_q=0.5, sub=MK1(2), sf=SF1, prize=prize)


class TestSelfReinforcement:
    def test_tug_of_war_identity(self):
        sol = solve_tow_closed(10, 0.0, 0, SF1, 1.0)
        rows = reinforcement_residuals(sol, "tug_of_war")
        checked = [r for r in rows if r["relative_gap"] is not None]
        assert len(checked) >= 2 * 10 - 3
        assert max(r["relative_gap"] for r in checked) <= 1e-10
        assert all(r["factor_one"] > 1.0 for r in checked)
        assert all(r["factor_two"] > 1.0 for r in checked)

    def test_consecutive_identity(self):
        sol = solve_consecutive_closed(10, SF1, 1.0)
        rows = reinforcement_residuals(sol, "consecutive_win")
        assert len(rows) == 9
        assert max(r["relative_gap"] for r in rows) <= 1e-10
        assert all(r["factor_one"] > 1.0 for r in rows)


class TestAggregatePayoffShare:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: solve_tow_closed(4, 0.0, 0, SF1, 1.0),
            lambda: solve_consecutive_closed(4, SF1, 1.0),
            lambda: solve_finite(ContestSpec(build_best_of(2), SF1, 1.0)),
        ],
    )
    def test_battle_share_floor(self, make):
        # each state's aggregate payoff exceeds the balanced gain ratio times
        # the larger outcome-wise aggregate continuation value
        sol = make()
        pi1 = float(SF1.phi(1.0))
        family = {2 * 4 + 1: None}
        values_a, values_b = sol.values_a, sol.values_b
        spec_map = {
            "closed_tow": build_tug_of_war(4),
            "closed_cw": build_consecutive_win(4),
            "backward": build_best_of(2),
        }
        m = spec_map[sol.method]
        for s in m.nonterminal_states:
            ea_w = sum(p * values_a[t] for t, p in m.successors(s, "A"))
            eb_l = sum(p * values_b[t] for t, p in m.successors(s, "A"))
            ea_l = sum(p * values_a[t] for t, p in m.successors(s, "B"))
            eb_w = sum(p * values_b[t] for t, p in m.successors(s, "B"))
            agg_best = max(ea_w + eb_l, ea_l + eb_w)
            assert values_a[s] + values_b[s] > pi1 * agg_best - 1e-12


class TestDispatch:
    def test_routes_families(self):
        assert solve(ContestSpec(build_tug_of_war(3), SF1, 1.0)).method == "closed_tow"
        assert solve(ContestSpec(build_consecutive_win(3), SF1, 1.0)).method == "closed_cw"
        assert solve(ContestSpec(build_best_of(2), SF1, 1.0)).method == "backward"
        from contestlab import RatioForm

        spec = ContestSpec(build_tug_of_war(2), RatioForm("pow", 0.8), 1.0)
        assert solve(spec, tol=1e-11).method == "fixed_point"


def _tow_reference_fixed_point(n: int, p: float) -> dict:
    """Independent damped iteration of the post-battle value equations.

    Works directly on the two-node-type formulation (pre/post lottery) with
    a plain simultaneous update, providing an oracle that shares no code
    with the production solvers.
    """
    phi = lambda t: t * t / (1 + t) ** 2  # noqa: E731 - unit Tullock
    values = {i: 0.5 + 0.4 * i / n for i in range(-n + 1, n)}
    values[n], values[-n] = 1.0, 0.0
    for _ in range(400000):
        tilde = {
            i: (p * values[0] + (1 - p) * values[i] if abs(i) < n else values[i])
            for i in range(-n, n + 1)
        }
        err = 0.0
        new = {}
        for i in range(-n + 1, n):
            da = tilde[i + 1] - tilde[i - 1]
            db = tilde[1 - i] - tilde[-i - 1]
            gain = da * phi(da / db) if da > 0 and db > 0 else max(da, 0.0)
            new[i] = tilde[i - 1] + gain
            err = max(err, abs(new[i] - values[i]))
        for i in new:
            values[i] = 0.5 * values[i] + 0.5 * new[i]
        if err < 1e-11:
            break
    return values
