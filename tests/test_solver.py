"""Equilibrium solver tests.

The backward-induction oracles are recomputed here with exact rational
arithmetic before being compared against the float implementation; the
closed-form recursions are cross-checked against the generic fixed-point
engine and against high-precision frozen constants.
"""

import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from contestlab import (
    MK1,
    ContestAutomaton,
    ContestError,
    ContestSpec,
    ConvergenceError,
    CyclicAutomatonError,
    DomainError,
    IncumbencySpec,
    Noisy,
    Serial,
    Tullock,
    UnsupportedKindError,
    automaton_from_dict,
    automaton_to_dict,
    build_best_of,
    build_consecutive_win,
    build_extension,
    build_mk1,
    build_tug_of_war,
    parse_sf,
    residual,
    simulate,
    solve,
    solve_battle,
    solve_consecutive_closed,
    solve_cyclic,
    solve_finite,
    solve_tow_closed,
)
from contestlab.metrics import reinforcement_residuals, win_probabilities
from contestlab import solver
from contestlab.automaton import swap_involution
from contestlab.solver import (
    _DAMPING,
    _distance_start,
    _HybrResidual,
    _Layer,
    _newton_search,
    _sweep,
)
from contestlab.success import battle_gain
from test_automaton import _random_rule

SF1 = Tullock(1.0)


def by_hand_vectors(m, x, sigma=None):
    """Full value lists of a unit-prize profile x: A's nonterminal values in
    state order, then B's, or under a swap involution ``sigma`` only A's,
    B's value at a state being A's at its image."""
    nt = m.nonterminal_states
    own_a, own_b = dict(zip(nt, x)), dict(zip(nt, x[len(nt):]))
    va = [own_a[s] if s in own_a else float(m.winner(s) == "A") for s in range(m.n)]
    if sigma is not None:
        return va, [va[sigma[s]] for s in range(m.n)]
    return va, [own_b[s] if s in own_b else float(m.winner(s) == "B") for s in range(m.n)]


def oracle_row(m, sf, va, vb, s):
    """The Bellman operator at state s by hand: its sums (ea_w, ea_l, eb_w,
    eb_l) over ``m.successors`` in order and A's and B's updates, from the
    value lists (va, vb) and the scalar ``battle_gain``."""
    ea_w = ea_l = eb_w = eb_l = 0.0
    for t, p in m.successors(s, "A"):
        ea_w += p * va[t]
        eb_l += p * vb[t]
    for t, p in m.successors(s, "B"):
        ea_l += p * va[t]
        eb_w += p * vb[t]
    da, db = ea_w - ea_l, eb_w - eb_l
    return (ea_w, ea_l, eb_w, eb_l), ea_l + battle_gain(sf, da, db), eb_l + battle_gain(sf, db, da)


def involution_perm(m):
    """The swap involution as an array over states, or None."""
    sigma = swap_involution(m)
    return None if sigma is None else np.array([sigma[s] for s in range(m.n)])


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

    @pytest.mark.parametrize("n,p", [(4, 0.0), (4, 0.3), (9, 0.3), (25, 0.3)])
    def test_matches_tow_closed(self, n, p):
        spec = ContestSpec(build_tug_of_war(n, p), SF1, 1.0)
        cyc = solve_cyclic(spec)
        clo = solve_tow_closed(n, p, 0, SF1, 1.0)
        for s in range(spec.automaton.n):
            assert cyc.values_a[s] == pytest.approx(clo.values_a[s], abs=1e-8)

    @pytest.mark.parametrize("k", [3, 5, 10, 18])
    def test_matches_consecutive_closed(self, k):
        spec = ContestSpec(build_consecutive_win(k), SF1, 1.0)
        cyc = solve_cyclic(spec)
        clo = solve_consecutive_closed(k, SF1, 1.0)
        for s in range(spec.automaton.n):
            assert cyc.values_a[s] == pytest.approx(clo.values_a[s], abs=1e-8)

    @pytest.mark.parametrize("text", ["tullock:r=0.5", "tullock:r=1"])
    @pytest.mark.parametrize(
        "m",
        [
            build_tug_of_war(3),
            build_tug_of_war(3, 0.3),
            build_tug_of_war(5),
            build_tug_of_war(5, 0.3),
            build_consecutive_win(3),
        ],
        ids=["tow3", "tow3-reset", "tow5", "tow5-reset", "cw3"],
    )
    def test_json_round_trip_solves_identically(self, m, text):
        # the engine reads only the transition table, and the JSON form
        # keeps all of it
        sf = parse_sf(text)
        built = solve_cyclic(ContestSpec(m, sf, 1.0))
        loaded = solve_cyclic(ContestSpec(automaton_from_dict(automaton_to_dict(m)), sf, 1.0))
        assert loaded.values_a == built.values_a
        assert loaded.values_b == built.values_b
        assert loaded.iterations == built.iterations

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

    def test_idle_fallback_is_verified(self):
        # The sweeps and the quasi-Newton search find only idle fixed points
        # here, whose residuals tie at rounding level, so the engine's
        # guarantee is checked rather than which of them it reports.
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
        assert sol.method == "fixed_point"
        assert sol.residual <= 1e-12
        for s in range(m.n):
            va, vb = sol.values_a[s], sol.values_b[s]
            assert 0.0 <= va <= 1.0 and 0.0 <= vb <= 1.0
            assert va + vb <= 1.0

    def test_idle_fallback_keeps_the_lowest_residual(self):
        # Every phase's sweeps end idle within tol: the first, from the
        # distance start, at V0_A 0.4999999999994 (residual 5.6e-13), the
        # last, from zero, on the exact idle profile.  Sweep iterates compete
        # by residual like roots do, so the exact one is reported.
        m = ContestAutomaton(
            start=0,
            transitions={
                (0, "A"): ((2, 1.0),),
                (0, "B"): ((0, 1.0),),
                (1, "A"): ((3, 1.0),),
                (1, "B"): ((1, 1.0),),
                (2, "A"): ((4, 1.0),),
                (2, "B"): ((1, 1.0),),
            },
            terminal={3: "A", 4: "B"},
        )
        sol = solve_cyclic(ContestSpec(m, Serial(0.5), 1.0))
        assert (sol.method, sol.residual, sol.v0_a) == ("fixed_point", 0.0, 0.5)
        assert all(row.effort_a == row.effort_b == 0.0 for row in sol.states.values())
        assert sol.extras["idle"] is True

    def test_rule_without_battles(self):
        sol = solve_cyclic(ContestSpec(ContestAutomaton(0, {}, {0: "A"}), SF1))
        assert (sol.method, sol.iterations, sol.residual) == ("fixed_point", 0, 0.0)
        assert sol.states == {}
        assert sol.extras["idle"] is False

    def test_reset_ring_through_json_with_shifted_ids(self, relabel):
        # the sweeps from zero, the truncated contest's values, escape the
        # idle flat plateaus that are also fixed points of this ring
        sf = Tullock(0.5)
        ids = [(s + 7) % 35 for s in range(35)]
        twin = automaton_from_dict(relabel(automaton_to_dict(build_tug_of_war(17, 0.3)), ids))
        sol = solve_cyclic(ContestSpec(twin, sf, 1.0))
        clo = solve_tow_closed(17, 0.3, 0, sf)
        for s in range(35):
            assert sol.values_a[ids[s]] == pytest.approx(clo.values_a[s], abs=1e-8)
            assert sol.values_b[ids[s]] == pytest.approx(clo.values_b[s], abs=1e-8)
        assert sol.extras["idle"] is False

    def test_only_one_player_has_a_terminal(self):
        # every path that ends ends at A's terminal, so A holds the prize
        # everywhere and B's values and stakes are zero
        m = ContestAutomaton(
            2,
            {
                (0, "A"): ((5, 0.9918947829531001), (0, 0.008105217046899926)),
                (0, "B"): ((4, 1.0),),
                (2, "A"): ((4, 1.0),),
                (2, "B"): ((5, 1.0),),
                (3, "A"): ((2, 1.0),),
                (3, "B"): ((6, 1.0),),
                (4, "A"): ((7, 1.0),),
                (4, "B"): ((3, 1.0),),
                (5, "A"): ((5, 1.0),),
                (5, "B"): ((7, 0.9925958169581804), (1, 0.0074041830418195564)),
                (6, "A"): ((2, 1.0),),
                (6, "B"): ((4, 1.0),),
                (7, "A"): ((0, 1.0),),
                (7, "B"): ((5, 1.0),),
            },
            {1: "A"},
        )
        spec = ContestSpec(m, parse_sf("tullock:r=1"), 1.0)
        sol = solve_cyclic(spec)
        assert sol.residual == 0.0
        assert sol.values_a == {s: 1.0 for s in range(m.n)}
        assert sol.values_b == {s: 0.0 for s in range(m.n)}
        assert win_probabilities(sol, spec) == {s: (1.0, 0.0) for s in range(m.n)}

    @pytest.mark.parametrize(
        "family, size, reset, r",
        [
            ("tow", 20, 0.5, 1.0),
            ("tow", 30, 0.5, 1.0),
            ("tow", 15, 0.5, 0.5),
            ("cw", 25, 0.0, 0.5),
            ("tow", 12, 0.3, 1.0),
        ],
    )
    def test_a_wrong_answer_is_never_competitive(self, family, size, reset, r):
        # the engine may end on an idle (mutual-discouragement) fallback,
        # but an answer it does not mark idle is the closed form's
        sf = Tullock(r)
        if family == "tow":
            m, clo = build_tug_of_war(size, reset), solve_tow_closed(size, reset, 0, sf)
        else:
            m, clo = build_consecutive_win(size), solve_consecutive_closed(size, sf)
        spec = ContestSpec(m, sf, 1.0)
        sol = solve_cyclic(spec)
        va, vb = (np.array([v[s] for s in range(m.n)]) for v in (sol.values_a, sol.values_b))
        exact = all(
            np.allclose(v, [ref[s] for s in range(m.n)], rtol=0.0, atol=1e-8)
            for v, ref in ((va, clo.values_a), (vb, clo.values_b))
        )
        assert sol.extras["idle"] == _Layer(spec).verdict(va, vb).idle
        assert exact or sol.extras["idle"]


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

    @pytest.mark.parametrize("player", [0, 1])
    @pytest.mark.parametrize("state", [0, 4])  # the start and the 1-1 score
    def test_a_nan_value_gives_a_nan_residual(self, player, state):
        spec = ContestSpec(build_best_of(1), SF1, 1.0)
        sol = solve_finite(spec)
        pairs = {s: [sol.values_a[s], sol.values_b[s]] for s in spec.automaton.nonterminal_states}
        pairs[state][player] = math.nan
        assert math.isnan(residual(spec, pairs))


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
        assert sol.v0_a == pytest.approx(ea_l + sf.win_limit * da, abs=1e-15)
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
        nt = m.nonterminal_states
        perm = involution_perm(m)
        assert perm is not None
        x = [sol.values_a[s] for s in nt] + [sol.values_b[s] for s in nt]
        for sigma in (None, perm):
            layer = _Layer(spec, sigma)
            va, vb = by_hand_vectors(m, x, sigma)
            sums = [oracle_row(m, spec.sf, va, vb, s)[0] for s in nt]
            ea_w, ea_l, eb_w, eb_l = (np.array(column) for column in zip(*sums))
            da, db = ea_w - ea_l, eb_w - eb_l
            # A's unknowns, then B's: each one's sum after its own loss and
            # its (own, opponent) stakes
            want = [np.concatenate(pair) for pair in ((ea_l, eb_l), (da, db), (db, da))]
            got = layer.stakes(np.array(x[: layer.width])[None])
            assert [c.tobytes() for c in got] == [c[: layer.width].tobytes() for c in want]

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

    def test_cyclic_route_memory(self):
        # the engine's sweep reads the leg table too: 801 states stay far
        # below one dense 801x801 array (5.1 MB)
        spec = ContestSpec(build_tug_of_war(400, 0.3), Tullock(0.8), 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                solve_cyclic(spec, max_iter=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize(
        "spec",
        [
            ContestSpec(build_tug_of_war(3, 0.3), Tullock(0.8), 1.0),
            ContestSpec(build_consecutive_win(3), Tullock(1.0), 1.0),
            ContestSpec(build_best_of(1), Tullock(1.0), 1.0),
        ],
        ids=["tow-3-0.3", "cw-3", "best-of-1"],
    )
    def test_simulator_memory_per_path(self, spec):
        # the step loop holds the running paths' index, state and accrued
        # effort, each path's total, one draw buffer, one float scratch and
        # the winner codes: no per-path length or winner arrays
        sol = solve(spec)
        paths = 200_000
        tracemalloc.start()
        try:
            simulate(sol, spec, paths, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / paths <= 72

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_tug_of_war(6, 0.3),
            lambda: build_tug_of_war(5, 1 / 3, -2),
            lambda: build_consecutive_win(5),
            lambda: build_best_of(4),
            lambda: build_mk1(4),
            race_rule,
        ],
        ids=["tow-6-0.3", "tow-5-third-head-start", "cw-5", "best-of-4", "mk1-4", "race"],
    )
    def test_sweep_stakes_equal_the_layer_rows(self, make):
        self._check_sweep_stakes(make(), np.random.default_rng(3))

    def test_sweep_stakes_on_random_rules(self):
        rng = np.random.default_rng(4)
        for seed in range(200):
            self._check_sweep_stakes(_random_rule(random.Random(seed)), rng)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["sigma", "no-sigma"])
    @pytest.mark.parametrize(
        "text",
        [
            "tullock:r=0.8",
            "serial:alpha=0.5",
            "ratio:powsum,alpha=0.5,beta=0.8",
            "noisy:q=0.7,base=tullock:r=0.8",
        ],
    )
    def test_sweeps_equal_a_reference_gauss_seidel_pass(self, text, symmetric):
        """``_sweep`` on the layer's rows gives, row for row, the bits of
        Gauss-Seidel updates through the by-hand operator."""
        if symmetric:
            m = build_tug_of_war(4, 0.3)
        else:
            rng = random.Random(3)
            m = _random_rule(rng)
            while swap_involution(m) is not None or len(m.nonterminal_states) < 4:
                m = _random_rule(rng)
        sigma = swap_involution(m)
        assert (sigma is None) != symmetric
        sf = parse_sf(text)
        layer = _Layer(ContestSpec(m, sf, 1.0), involution_perm(m))
        order, start_a, start_b = _distance_start(m, 1.0)
        x = np.concatenate([start_a, start_b])[: layer.width].tolist()
        va, vb = by_hand_vectors(m, x, sigma)
        z = [0.0, 1.0, *x]
        rows = layer.sweep_rows(order.tolist())
        nt = m.nonterminal_states
        for sweep in range(10):
            lam = 1.0 if sweep == 0 else _DAMPING
            moved = 0.0
            for i in order.tolist():
                s = nt[i]
                _, ua, ub = oracle_row(m, sf, va, vb, s)
                new_a = (1.0 - lam) * va[s] + lam * ua
                moved = max(moved, abs(new_a - va[s]))
                if sigma is None:
                    new_b = (1.0 - lam) * vb[s] + lam * ub
                    moved = max(moved, abs(new_b - vb[s]))
                    vb[s] = new_b
                else:
                    vb[sigma[s]] = new_a
                va[s] = new_a
            assert _sweep(rows, sf, z, lam) == moved > 0.0
            got = np.array(by_hand_vectors(m, z[2:], sigma))
            assert got.tobytes() == np.array([va, vb]).tobytes()

    @staticmethod
    def _check_sweep_stakes(m, rng):
        """Each of the layer's sweep rows, run alone as a pure sweep, moves
        its state's unknowns to the by-hand updates and nothing else, with
        the involution and without."""
        nt = m.nonterminal_states
        sigma = involution_perm(m)
        for perm in [None] if sigma is None else [None, sigma]:
            layer = _Layer(ContestSpec(m, SF1, 1.0), perm)
            rows = layer.sweep_rows(range(len(nt)))
            for scale in (1.0, 1e-8):
                x = (scale * rng.random(layer.width)).tolist()
                va, vb = by_hand_vectors(m, x, perm)
                for i, (s, row) in enumerate(zip(nt, rows)):
                    _, ua, ub = oracle_row(m, SF1, va, vb, s)
                    z = [0.0, 1.0, *x]
                    want = list(z)
                    want[2 + i] = ua
                    if perm is None:
                        want[2 + len(nt) + i] = ub
                    _sweep([row], SF1, z, 1.0)
                    assert z == want


def _nan_bits(a):
    """The bits of an array, every NaN read as one NaN."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestStackedResidual:
    """The root search's x - T(x) over stacks of profiles, and hybr's
    Jacobian answered from one stack."""

    TECHNOLOGIES = [
        "tullock:r=0.8",
        "serial:alpha=0.5",
        "ratio:pow,alpha=0.7",
        "ratio:powsum,alpha=0.5,beta=0.8",
        "noisy:q=0.5,base=ratio:pow,alpha=0.7",
    ]

    @staticmethod
    def _rules():
        """Rules with a swap involution, under it and without it, and random
        rules that have none."""
        rules = []
        for m in (build_tug_of_war(4, 0.3), build_consecutive_win(4)):
            rules += [(m, involution_perm(m)), (m, None)]
        rng = random.Random(7)
        while len(rules) < 7:
            m = _random_rule(rng)
            if swap_involution(m) is None:
                rules.append((m, None))
        return rules

    @staticmethod
    def _one_profile(m, sf, perm, x):
        """x - T(x) from the by-hand operator on the profile's full value
        lists, and which of the unknowns' battles have both stakes positive."""
        va, vb = by_hand_vectors(m, x.tolist(), perm)
        sums, ua, ub = zip(*(oracle_row(m, sf, va, vb, s) for s in m.nonterminal_states))
        both = [ea_w > ea_l and eb_w > eb_l for ea_w, ea_l, eb_w, eb_l in sums]
        if perm is not None:
            return x - np.array(ua), both
        return x - np.array(ua + ub), both + both

    @pytest.mark.parametrize("text", TECHNOLOGIES)
    def test_rows_equal_the_operator_bit_for_bit(self, text):
        rng = np.random.default_rng(11)
        mixed = 0
        sf = parse_sf(text)
        for m, perm in self._rules():
            system = _Layer(ContestSpec(m, sf, 1.0), perm)
            width = system.width
            # competitive rows, flat rows (zero stakes), rows reaching past
            # the prize both ways (negative stakes) and a row with a NaN
            nan_row = rng.random(width)
            nan_row[rng.integers(width)] = math.nan
            rows = [
                *rng.random((3, width)),
                np.full(width, 0.25),
                np.zeros(width),
                *rng.uniform(-1.0, 2.0, (2, width)),
                nan_row,
            ]
            rng.shuffle(rows)
            stack = np.array(rows)
            got = system(stack)
            assert got.shape == stack.shape and np.isnan(got).any()
            competitive = []
            for x, row in zip(stack, got):
                want, both = self._one_profile(m, sf, perm, x)
                assert _nan_bits(row) == _nan_bits(want)
                assert _nan_bits(system(x[None])[0]) == _nan_bits(want)
                competitive += both
            mixed += any(competitive) and not all(competitive)
        assert mixed  # battle_gain's mixed path ran on part of a stack

    def test_full_vectors_of_a_root(self):
        for m, perm in self._rules():
            system = _Layer(ContestSpec(m, SF1, 1.0), perm)
            x = np.random.default_rng(5).random(system.width)
            want = np.array(by_hand_vectors(m, x.tolist(), perm))
            assert np.array(system.vectors(x)).tobytes() == want.tobytes()

    TOW_8 = ContestSpec(build_tug_of_war(8, 0.0), Tullock(0.7445), 1.0)

    @staticmethod
    def _record(monkeypatch, events):
        """Log each hybr call as "call" and each evaluation as its stack size."""
        evaluate, answer = _Layer.__call__, _HybrResidual.__call__

        def stack(self, xs):
            events.append(len(xs))
            return evaluate(self, xs)

        def call(self, x):
            events.append("call")
            return answer(self, x)

        monkeypatch.setattr(_Layer, "__call__", stack)
        monkeypatch.setattr(_HybrResidual, "__call__", call)

    def test_jacobian_columns_come_from_one_stack(self, monkeypatch):
        events = []
        self._record(monkeypatch, events)
        batched = solve_cyclic(self.TOW_8)
        n = 15  # A's values at the 15 nonterminal states
        stacks = [i for i, e in enumerate(events) if e == n]
        assert stacks
        for i in stacks:
            # the call that asked for column 0, then n - 1 calls answered
            # without another evaluation
            assert events[i - 1] == "call"
            assert events[i + 1 : i + n] == ["call"] * (n - 1)
        assert set(events) <= {"call", 1, n}

        # a cap on the legs one evaluation gathers splits the columns into
        # stacks of 3 (15 rows of 2 legs each)
        events.clear()
        monkeypatch.setattr(solver, "_STACK_LEGS", 100)
        chunked = solve_cyclic(self.TOW_8)
        assert 3 in events and set(events) <= {"call", 1, 3}

        events.clear()
        monkeypatch.setattr(solver, "_fd_column", lambda v: math.nan)  # no column is detected
        points, recorded = [], _HybrResidual.__call__  # (callable, point) of each call

        def call(self, x):
            points.append((self, x.tobytes()))
            return recorded(self, x)

        monkeypatch.setattr(_HybrResidual, "__call__", call)
        plain = solve_cyclic(self.TOW_8)
        assert set(events) == {"call", 1}
        # one evaluation a call, but for a repeat of the point just asked
        repeats = sum(a == b for a, b in zip(points, points[1:]))
        assert repeats and events.count(1) == events.count("call") - repeats
        for sol in (batched, chunked):
            assert plain.values_a == sol.values_a and plain.values_b == sol.values_b
            assert (plain.iterations, plain.residual, plain.method) == (
                sol.iterations, sol.residual, sol.method
            )

    def test_the_start_is_evaluated_once(self, monkeypatch):
        """root's shape probe and hybrd's first calls ask for the start; one
        evaluation answers them, and the search asks for and finds what it
        does without the reuse."""
        m = build_tug_of_war(4, 0.3)
        system = _Layer(ContestSpec(m, Tullock(0.8), 1.0), involution_perm(m))
        x0 = _distance_start(m, 1.0)[1]
        evaluate, answer = _Layer.__call__, _HybrResidual.__call__

        def run(respond):
            events, asked = [], []

            def stack(self, xs):
                events.append(len(xs))
                return evaluate(self, xs)

            def call(self, x):
                events.append("call")
                out = respond(self, x)
                asked.append((x.tobytes(), out.tobytes()))
                return out

            monkeypatch.setattr(_Layer, "__call__", stack)
            monkeypatch.setattr(_HybrResidual, "__call__", call)
            roots = [tuple(v.tobytes() for v in root) for root in _newton_search(system, [x0])]
            return events, asked, roots

        events, asked, roots = run(answer)
        assert events[:4] == ["call", 1, "call", "call"]
        assert asked[0] == asked[1] and asked[0][0] == x0.tobytes()
        assert len(roots) == 1
        plain_events, *plain = run(lambda self, x: self.system(x[None])[0])
        assert plain_events[:4] == ["call", 1, "call", 1]
        assert [asked, roots] == plain

    def test_a_fault_in_the_residual_surfaces(self, monkeypatch):
        def broken(self, xs):
            raise IndexError("stack index out of range")

        monkeypatch.setattr(_Layer, "__call__", broken)
        with pytest.raises(IndexError):
            solve_cyclic(self.TOW_8)


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

    @pytest.mark.parametrize("reset_p", [0.0, 0.3])
    @pytest.mark.parametrize(
        "sf",
        ["tullock:r=1", "tullock:r=0.8", "tullock:r=0.5", "serial:alpha=0.5",
         "noisy:q=0.7,base=tullock:r=0.8"],
    )
    def test_long_rings_give_typed_rows(self, sf, reset_p):
        # from margin 12 under tullock:r=1 the outer rings saturate and the
        # gains at their inverse ratios underflow; those rows are all None
        keys = ("relative_gap", "factor_one", "factor_two")
        for n in range(2, 81):
            sol = solve_tow_closed(n, reset_p, 0, parse_sf(sf))
            if reset_p:  # the identity holds on chance-free rings only
                with pytest.raises(DomainError):
                    reinforcement_residuals(sol, "tug_of_war")
                continue
            rows = reinforcement_residuals(sol, "tug_of_war")
            assert [r["i"] for r in rows] == list(range(-(n - 2), n - 1))
            for r in rows:
                if r["relative_gap"] is None:
                    assert r["factor_one"] is None and r["factor_two"] is None
                    continue
                assert all(math.isfinite(r[key]) for key in keys)
                assert r["relative_gap"] <= 1e-12

    def test_consecutive_identity(self):
        sol = solve_consecutive_closed(10, SF1, 1.0)
        rows = reinforcement_residuals(sol, "consecutive_win")
        assert len(rows) == 9
        assert max(r["relative_gap"] for r in rows) <= 1e-10
        assert all(r["factor_one"] > 1.0 for r in rows)

    @pytest.mark.parametrize("k, seed", [(6, "cw-6"), (2, "cw-2"), (7, "cw-7")])
    def test_relabelled_consecutive_rule_gives_the_builders_rows(self, k, seed, relabel):
        rule = build_consecutive_win(k)
        ids = _shuffled(seed, rule.n)
        twin = solve(ContestSpec(automaton_from_dict(relabel(automaton_to_dict(rule), ids)), SF1))
        assert twin.method == "closed_cw"
        want = reinforcement_residuals(solve(ContestSpec(rule, SF1)), "consecutive_win")
        assert repr(reinforcement_residuals(twin, "consecutive_win")) == repr(want)

    @pytest.mark.parametrize(
        "family, make",
        [
            ("consecutive_win", lambda: solve(ContestSpec(build_best_of(2), SF1))),
            ("tug_of_war", lambda: solve(ContestSpec(build_best_of(2), SF1))),
            ("consecutive_win", lambda: solve_cyclic(ContestSpec(build_consecutive_win(4), SF1))),
            ("tug_of_war", lambda: solve_cyclic(ContestSpec(build_tug_of_war(4), SF1))),
            ("consecutive_win", lambda: solve_tow_closed(4, 0.0, 0, SF1)),
            ("tug_of_war", lambda: solve_consecutive_closed(4, SF1)),
        ],
        ids=["best-of-cw", "best-of-tow", "engine-cw", "engine-tow", "tow-as-cw", "cw-as-tow"],
    )
    def test_solution_without_the_familys_record_is_refused(self, family, make):
        with pytest.raises(DomainError):
            reinforcement_residuals(make(), family)


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


# (name, builder) over every route a homogeneous technology can take; on
# the margin-20 reset rule the engine alone ends on a wrong idle plateau,
# and the k = 18 and 25 rules under r = 1 need its restart from zero
TABLE_RULES = [
    *(
        (f"tow-{n}-{p}-{h}", lambda n=n, p=p, h=h: build_tug_of_war(n, p, h))
        for n, p, h in [
            (1, 0.0, 0), (1, 0.3, 0), (2, 0.5, 1), (3, 0.3, -2), (4, 0.0, 0),
            (5, 0.5, 4), (12, 0.3, 0), (20, 0.5, 0), (30, 0.0, -29),
        ]
    ),
    *((f"cw-{k}", lambda k=k: build_consecutive_win(k)) for k in (1, 2, 3, 7, 18, 25)),
    *((f"bo-{k}", lambda k=k: build_best_of(k)) for k in (0, 3, 5)),
    *((f"mk1-{k}", lambda k=k: build_mk1(k)) for k in (1, 4, 7)),
    ("ext-bo2-2", lambda: build_extension(build_best_of(2), 2)),
    ("race", race_rule),
]


# how a case's twin is written: with its state ids shuffled or not, and the
# digits its chances are rounded to
TWIN_FORMS = {"json": (False, None), "relabelled": (True, None), "rounded": (True, 12)}
TABLE_CASES = [
    pytest.param(
        name, build, form, sf_spec, id=f"{name}{'' if form == 'json' else '-' + form}-{sf_spec}"
    )
    for name, build in TABLE_RULES
    for form in TWIN_FORMS
    for sf_spec in ("tullock:r=1", "tullock:r=0.5", "serial:alpha=0.5")
]


def _shuffled(seed: str, n: int) -> list:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return ids


def _bits(sol, ids=None) -> str:
    """Route, values and rows; repr keeps every float's bits.  ``ids[s]`` is
    the solved rule's id for the reference rule's state s (identity by
    default), so a relabelled rule is read back in the reference's ids."""
    ids = range(len(sol.values_a)) if ids is None else ids

    def read(table):
        return {s: table[t] for s, t in enumerate(ids) if t in table}

    rows = (read(sol.values_a), read(sol.values_b), read(sol.states))
    return repr((sol.method, *rows, sorted(read(sol.labels).items())))


class TestTableRoute:
    """``solve`` picks its route from the transition table alone."""

    @pytest.mark.parametrize("name, build, form, sf_spec", TABLE_CASES)
    def test_json_form_takes_the_builder_route(self, name, build, form, sf_spec, relabel):
        sf = parse_sf(sf_spec)
        rule = build()
        shuffle, digits = TWIN_FORMS[form]
        ids = _shuffled(name, rule.n) if shuffle else range(rule.n)
        twin = automaton_from_dict(relabel(automaton_to_dict(rule), ids, digits))
        assert _bits(solve(ContestSpec(twin, sf)), ids) == _bits(solve(ContestSpec(rule, sf)))

    @pytest.mark.parametrize(
        "rule, ids, digits, v0_a",
        [
            # the engine alone ends on a wrong idle plateau on this rule:
            # V0_A 0.3498 in the builder's ids, 0.1996 in these
            pytest.param(
                build_tug_of_war(20, 0.5), [(s + 7) % 41 for s in range(41)], None,
                0.03420087736951247, id="tow-20-0.5-ids-shifted-by-7",
            ),
            # the other leg typed as 0.3, where 1 - 0.7 = 0.30000000000000004
            pytest.param(
                build_tug_of_war(4, 0.7), range(9), 12, 0.12212648093882078, id="tow-4-0.7-leg-0.3"
            ),
            pytest.param(
                build_tug_of_war(10, 0.7), range(21), 12, 0.056793641345393754,
                id="tow-10-0.7-leg-0.3",
            ),
            pytest.param(
                build_consecutive_win(6), _shuffled("cw-6", 13), None, 0.05162535614897574,
                id="cw-6-relabelled",
            ),
            # ids reversed: A's terminal is state 0 and the start is state 4
            pytest.param(
                build_tug_of_war(6, 0.3, 2), range(12, -1, -1), None, 0.2820500100923315,
                id="tow-6-0.3-head-start-2-reversed",
            ),
        ],
    )
    def test_family_rule_up_to_ids_and_rounding_takes_the_closed_form(
        self, rule, ids, digits, v0_a, relabel
    ):
        twin = automaton_from_dict(relabel(automaton_to_dict(rule), ids, digits))
        sol = solve(ContestSpec(twin, SF1))
        assert sol.method in ("closed_tow", "closed_cw")
        assert sol.v0_a == v0_a
        assert _bits(sol, ids) == _bits(solve(ContestSpec(rule, SF1)))

    @pytest.mark.parametrize(
        "n, reset_p, head_start, sf_spec",
        [
            (15, 0.5, 0, "tullock:r=0.5"), (20, 0.5, 0, "tullock:r=1"),
            (25, 0.5, 0, "tullock:r=0.8"), (30, 0.5, 0, "tullock:r=1"),
            (40, 0.5, 0, "tullock:r=1"), (50, 0.3, 0, "tullock:r=0.8"),
            (100, 0.3, 0, "tullock:r=0.8"), (200, 0.3, 0, "tullock:r=0.8"),
            (6, 0.3, 2, "tullock:r=1"), (6, 0.7, -3, "tullock:r=1"),
            # B's first win from lead +4 draws lead 0 or lead +3 at equal
            # chance, both new to the labelling: their classes order them
            (5, 0.5, 4, "tullock:r=1"), (5, 0.5, 4, "serial:alpha=0.5"),
            (20, 0.5, 3, "tullock:r=1"),
        ],
    )
    def test_reversed_legs_take_the_closed_form(self, n, reset_p, head_start, sf_spec):
        # the same rule with every lottery's legs listed the other way; the
        # engine alone ends on wrong idle plateaus on the reset rings
        rule = build_tug_of_war(n, reset_p, head_start)
        self._takes_the_closed_form(rule, sf_spec, lambda legs: legs[::-1])

    def test_reversed_even_reset_rules_take_the_closed_form(self):
        # at reset 0.5 the reset leg and the next lead tie in every lottery
        # that can reset, wherever the ring starts
        for n in range(1, 13):
            for head_start in range(1 - n, n):
                rule = build_tug_of_war(n, 0.5, head_start)
                self._takes_the_closed_form(rule, "tullock:r=1", lambda legs: legs[::-1])

    @pytest.mark.parametrize(
        "n, reset_p, head_start, sf_spec",
        [
            (20, 0.5, 0, "tullock:r=1"), (3, 0.3, 0, "tullock:r=1"), (6, 0.3, 2, "tullock:r=1"),
            (10, 0.3, 0, "tullock:r=1"), (6, 0.3, 2, "serial:alpha=0.5"),
        ],
    )
    def test_split_reset_legs_take_the_closed_form(self, n, reset_p, head_start, sf_spec):
        # each reset leg listed as two legs of half its chance, one on
        # either side of the leg to the next lead; the engine alone ends on
        # a wrong idle plateau at 20/0.5 (V0 0.3498 against 0.0342)
        def split(legs):
            if len(legs) == 1:
                return legs
            half = {**legs[0], "prob": 0.5 * legs[0]["prob"]}
            return [half, legs[1], dict(half)]

        self._takes_the_closed_form(build_tug_of_war(n, reset_p, head_start), sf_spec, split)

    @staticmethod
    def _takes_the_closed_form(rule, sf_spec, rewrite):
        """The rule with each lottery's legs rewritten by ``rewrite`` takes
        the tug-of-war's closed form with the builder rule's bits."""
        doc = automaton_to_dict(rule)
        for edge in doc["edges"]:
            edge["to"] = rewrite(edge["to"])
        sf = parse_sf(sf_spec)
        sol = solve(ContestSpec(automaton_from_dict(doc), sf))
        assert sol.method == "closed_tow"
        assert _bits(sol) == _bits(solve(ContestSpec(rule, sf)))

    @staticmethod
    def _edited(rule, transitions=(), terminal=None, start=None):
        table = {**rule.transitions, **dict(transitions)}
        return ContestAutomaton(
            rule.start if start is None else start, table, terminal or rule.terminal
        )

    @pytest.mark.parametrize("sf_spec", ["tullock:r=1", "serial:alpha=0.5"])
    @pytest.mark.parametrize(
        "edit",
        [
            "tow-retarget", "tow-swap-terminals", "cw-retarget", "cw-swap-terminals",
            "reset-chance", "reset-retarget", "cw-start", "five-state", "single-state",
        ],
    )
    def test_one_edit_from_a_family_takes_no_closed_route(self, edit, sf_spec):
        tow, reset, cw = build_tug_of_war(4), build_tug_of_war(3, 0.3), build_consecutive_win(3)
        five = {
            (2, "A"): ((3, 1.0),), (2, "B"): ((1, 1.0),), (3, "A"): ((4, 1.0),),
            (3, "B"): ((0, 1.0),), (0, "A"): ((2, 1.0),), (0, "B"): ((1, 1.0),),
        }
        make = {
            "tow-retarget": lambda: self._edited(tow, {(5, "A"): ((7, 1.0),)}),
            "tow-swap-terminals": lambda: self._edited(tow, terminal={0: "A", 8: "B"}),
            "cw-retarget": lambda: self._edited(cw, {(4, "B"): ((1, 1.0),)}),
            "cw-swap-terminals": lambda: self._edited(cw, terminal={0: "A", 6: "B"}),
            "reset-chance": lambda: self._edited(reset, {(3, "A"): ((3, 0.4), (4, 0.6))}),
            "reset-retarget": lambda: self._edited(reset, {(5, "B"): ((3, 0.3), (2, 0.7))}),
            "cw-start": lambda: self._edited(cw, start=4),
            # state 1 is terminal, so lead -1 has no A-win to probe
            "five-state": lambda: ContestAutomaton(2, five, {1: "B", 4: "A"}),
            "single-state": lambda: ContestAutomaton(0, {}, {0: "A"}),
        }[edit]
        try:
            spec = ContestSpec(make(), parse_sf(sf_spec))
            sol = solve(spec)
        except ContestError:
            return
        assert sol.method in ("backward", "fixed_point")
        assert residual(spec, sol) <= 1e-9

    @pytest.mark.parametrize("rule", [build_tug_of_war(6, 0.3, 2), build_consecutive_win(5)])
    def test_closed_route_builds_one_automaton(self, rule, monkeypatch):
        spec = ContestSpec(rule, SF1)
        built = []
        init = ContestAutomaton.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ContestAutomaton, "__init__", counting)
        assert solve(spec).method in ("closed_tow", "closed_cw")
        assert len(built) == 1


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
