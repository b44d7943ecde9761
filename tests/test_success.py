"""Battle technology tests: curves, gain functions, and single battles.

Expected values carry their derivations: closed-form algebra re-verified by
independent numeric oracles (finite differences, best-response grid search,
bracketed bisection).
"""

import decimal
import math
import random
import re
from decimal import Decimal

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from contestlab import (
    ConvergenceError,
    DomainError,
    Noisy,
    RatioForm,
    Serial,
    Tullock,
    UnsupportedKindError,
    augmented_gain,
    eval_gamma,
    parse_sf,
    phi,
    psi,
    psi_inverse,
    solve_battle,
)
from contestlab import solver, success
from contestlab.incumbency import MK1, log_bias_ratio
from contestlab.solver import streak_root
from contestlab.success import _brentq, battle_gain
from test_solver import _nan_bits

THETA_GRID = np.logspace(-6, 6, 121)

HOMOGENEOUS = [
    Tullock(1.0),
    Tullock(0.5),
    Tullock(0.3),
    Serial(0.5),
    Serial(0.25),
    Noisy(Tullock(1.0), 0.7),
    Noisy(Serial(0.5), 0.4),
]


class TestGamma:
    def test_tullock_values(self):
        sf = Tullock(1.0)
        assert eval_gamma(sf, 1.0) == 0.5  # symmetry forces the half
        # theta/(1+theta) by substituting the ratio into the winning odds
        assert eval_gamma(sf, 3.0) == pytest.approx(0.75, abs=1e-15)
        assert eval_gamma(sf, 0.0) == 0.0

    @pytest.mark.parametrize("sf", [s for s in HOMOGENEOUS if not isinstance(s, Noisy)])
    def test_boundary_limits(self, sf):
        assert eval_gamma(sf, 0.0) == 0.0
        assert eval_gamma(sf, math.inf) == 1.0

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_complement_symmetry(self, sf):
        lhs = eval_gamma(sf, THETA_GRID) + eval_gamma(sf, 1.0 / THETA_GRID)
        np.testing.assert_allclose(lhs, 1.0, atol=1e-12)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_monotone(self, sf):
        vals = eval_gamma(sf, THETA_GRID)
        assert np.all(np.diff(vals) > 0)

    def test_noisy_mixture(self):
        base = Tullock(1.0)
        sf = Noisy(base, 0.7)
        expected = 0.7 * eval_gamma(base, THETA_GRID) + 0.15
        np.testing.assert_allclose(eval_gamma(sf, THETA_GRID), expected, rtol=1e-15)

    def test_ratio_form_rejected(self):
        with pytest.raises(UnsupportedKindError):
            eval_gamma(RatioForm("pow", alpha=0.8), 1.0)


class TestPhi:
    def test_tullock_values(self):
        sf = Tullock(1.0)
        # theta^2/(1+theta)^2 by differentiating theta/(1+theta)
        assert phi(sf, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert phi(sf, 3.0) == pytest.approx(9.0 / 16.0, abs=1e-15)
        assert phi(sf, 0.0) == 0.0

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_finite_difference_oracle(self, sf):
        # phi(t) = gamma(t) - t gamma'(t), with gamma' from central differences;
        # the even-count grid keeps the stencil off the piecewise curves' joint
        for theta in np.logspace(-3, 3, 24):
            h = 1e-6 * theta
            slope = (eval_gamma(sf, theta + h) - eval_gamma(sf, theta - h)) / (2 * h)
            expected = eval_gamma(sf, theta) - theta * slope
            assert phi(sf, theta) == pytest.approx(expected, abs=5e-9)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_strictly_increasing(self, sf):
        vals = phi(sf, THETA_GRID)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("sf", [s for s in HOMOGENEOUS if not isinstance(s, Noisy)])
    def test_balanced_value_in_open_half(self, sf):
        assert 0.0 < phi(sf, 1.0) < 0.5

    def test_large_theta_guard(self):
        sf = Tullock(1.0)
        assert phi(sf, 1e18) <= 1.0 - 1e-15
        assert phi(sf, math.inf) == 1.0

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_complement_consistency(self, sf):
        for theta in np.logspace(-4, 4, 17):
            assert sf.phi_complement(theta) == pytest.approx(1.0 - phi(sf, theta), abs=1e-13)

    @pytest.mark.parametrize("text", ["tullock:r=0.5", "tullock:r=1", "serial:alpha=0.5"])
    @pytest.mark.parametrize(
        "log_theta", [700.0 - 1e-9, 700.0 + 1e-9, -700.0 - 1e-9, -700.0 + 1e-9]
    )
    def test_log_asymptotes_continue_the_curves(self, text, log_theta):
        # past |log theta| = 700 the log-argument forms switch to their
        # asymptotes; theta itself is still a normal float there, so the
        # direct log forms are the reference on both sides of the switch
        sf = parse_sf(text)
        theta = math.exp(log_theta)
        assert math.isclose(sf.log_phi_at_log(log_theta), sf.log_phi(theta), rel_tol=1e-12)
        assert math.isclose(
            sf.log_phi_complement_at_log(log_theta), sf.log_phi_complement(theta), rel_tol=1e-12
        )


class TestFloatRatioPath:
    """A float ratio evaluates one side, with numpy's power and Python-float
    arithmetic; 0-d and 1-d arrays take the array path, whose bits the float
    path must reproduce."""

    KINDS = [
        Tullock(1.0),
        Tullock(0.8),
        Tullock(0.5),
        Tullock(0.3),
        Serial(0.5),
        Serial(0.2),
        Noisy(Tullock(0.8), 0.7),
        Noisy(Serial(0.2), 0.4),
    ]
    RATIOS = [0.0, 5e-324, 1.0, 1e308, math.inf] + np.exp(
        np.random.default_rng(12).uniform(-60.0, 60.0, 600)
    ).tolist()

    @pytest.mark.parametrize("method", ["phi", "phi_complement", "gamma", "gamma_prime"])
    @pytest.mark.parametrize("sf", KINDS)
    def test_float_equals_0d_array(self, sf, method):
        f = getattr(sf, method)
        with np.errstate(divide="ignore"):  # gamma_prime raises 0 to a negative power
            for theta in self.RATIOS:
                got = f(theta)
                assert type(got) is float
                assert got == f(np.asarray(theta)), theta

    @pytest.mark.parametrize("method", ["phi", "phi_complement", "gamma", "gamma_prime"])
    @pytest.mark.parametrize("sf", KINDS)
    def test_float_equals_1d_array_element(self, sf, method):
        # the stacked operator's path: one array of every
        # ratio, a NaN among them
        f = getattr(sf, method)
        ratios = self.RATIOS + [math.nan]
        with np.errstate(divide="ignore", invalid="ignore"):
            got = np.array([f(theta) for theta in ratios])
            assert _nan_bits(got) == _nan_bits(f(np.array(ratios)))

    @pytest.mark.parametrize("sf", KINDS)
    def test_battle_gain_on_floats_equals_1d_arrays(self, sf):
        # zeros, one-sided pairs, +inf ratios and a NaN in the same arrays
        rng = np.random.default_rng(13)
        stakes = [0.0, -1.0, 5e-324, 1e-300, 1.0, 1e300, math.nan]
        da, db = (g.ravel() for g in np.meshgrid(stakes, stakes))
        da = np.concatenate([da, np.exp(rng.uniform(-40.0, 40.0, 400))])
        db = np.concatenate([db, np.exp(rng.uniform(-40.0, 40.0, 400))])
        both = (da > 0.0) & (db > 0.0)
        with np.errstate(all="ignore"):  # overflowing ratios, powers of zero
            assert np.isposinf(da[both] / db[both]).any() and np.isnan(da).any()
            scalar = np.array([battle_gain(sf, a, b) for a, b in zip(da.tolist(), db.tolist())])
            assert _nan_bits(scalar) == _nan_bits(battle_gain(sf, da, db))


class TestSolveBattle:
    def test_symmetric_tullock(self):
        eq = solve_battle(Tullock(1.0), 1.0, 1.0)
        assert eq.effort_a == pytest.approx(0.25, abs=1e-15)
        assert eq.effort_b == pytest.approx(0.25, abs=1e-15)
        assert eq.win_prob_a == 0.5
        assert eq.payoff_a == pytest.approx(0.25, abs=1e-15)

    def test_lopsided_tullock(self):
        eq = solve_battle(Tullock(1.0), 3.0, 1.0)
        assert eq.win_prob_a == pytest.approx(0.75, abs=1e-15)
        assert eq.payoff_a == pytest.approx(27.0 / 16.0, abs=1e-14)  # 3 phi(3)
        assert eq.payoff_b == pytest.approx(1.0 / 16.0, abs=1e-14)  # phi(1/3)

    @pytest.mark.parametrize("sf", HOMOGENEOUS + [RatioForm("pow", 0.8), RatioForm("powsum", 0.5, 0.9)])
    @pytest.mark.parametrize("stakes", [(1.0, 1.0), (3.0, 1.0), (0.2, 1.7)])
    def test_best_response_property(self, sf, stakes):
        # perturbing either equilibrium effort must not raise that player's payoff
        da, db = stakes
        eq = solve_battle(sf, da, db)
        assert eq.payoff_a >= 0.0 and eq.payoff_b >= 0.0

        def payoff_a(xa):
            return _win_prob(sf, xa, eq.effort_b) * da - xa

        def payoff_b(xb):
            return (1.0 - _win_prob(sf, eq.effort_a, xb)) * db - xb

        for bump in (1 + 1e-4, 1 - 1e-4):
            assert payoff_a(eq.effort_a * bump) <= eq.payoff_a + 1e-8
            assert payoff_b(eq.effort_b * bump) <= eq.payoff_b + 1e-8

    def test_invariants(self):
        eq = solve_battle(Serial(0.5), 2.0, 0.7)
        assert eq.win_prob_a + eq.win_prob_b == pytest.approx(1.0, abs=1e-15)
        assert eq.payoff_a == pytest.approx(eq.win_prob_a * 2.0 - eq.effort_a, abs=1e-13)
        assert eq.gain_ratio_a == pytest.approx(eq.payoff_a / 2.0, abs=1e-13)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_effort_ratio_equals_stake_ratio(self, sf):
        # a hallmark of ratio-only technologies, via the derivative symmetry
        for da, db in [(2.0, 1.0), (0.3, 1.7), (5.0, 0.2)]:
            eq = solve_battle(sf, da, db)
            assert eq.effort_a / eq.effort_b == pytest.approx(da / db, rel=1e-12)
            assert eq.win_prob_a == pytest.approx(eval_gamma(sf, da / db), rel=1e-13)

    def test_ratio_pow_matches_tullock(self):
        # the power curve makes the ratio-form game identical to the
        # homogeneous closed form, so the numeric FOC path must reproduce it
        rf, tu = RatioForm("pow", alpha=0.8), Tullock(0.8)
        for ratio in np.logspace(-2, 2, 20):
            a = solve_battle(rf, ratio, 1.0)
            b = solve_battle(tu, ratio, 1.0)
            assert a.effort_a == pytest.approx(b.effort_a, abs=1e-8)
            assert a.effort_b == pytest.approx(b.effort_b, abs=1e-8)
            assert a.win_prob_a == pytest.approx(b.win_prob_a, abs=1e-8)
            assert a.payoff_a == pytest.approx(b.payoff_a, abs=1e-8)

    @pytest.mark.parametrize(
        "sf", [RatioForm("pow", 0.8), RatioForm("powsum", 0.6, 0.9), RatioForm("powsum", 0.9, 0.3)]
    )
    def test_loggrad_is_the_curve_ratio(self, sf):
        points = np.exp(np.random.default_rng(5).uniform(-30.0, 30.0, 500)).tolist()
        for x in points:
            assert sf.loggrad(x) == sf.curve_prime(x) / sf.curve_value(x)
        for y in points:
            assert abs(sf.loggrad(sf.loggrad_inverse(y)) - y) <= 4.0 * math.ulp(y)

    @pytest.mark.parametrize("sf", [RatioForm("powsum", 0.6, 0.9), RatioForm("powsum", 0.9, 0.2)])
    def test_loggrad_inverse_matches_scipy_brentq(self, sf):
        # the Newton inversion against scipy's root on the same bracket
        kmin, kmax = sf.loggrad_range
        for y in np.logspace(-4, 4, 17).tolist():
            x = sf.loggrad_inverse(y)
            ref = scipy_brentq(lambda t: sf.loggrad(t) - y, kmin / y, kmax / y,
                               xtol=1e-300, rtol=success._BRENTQ_RTOL)
            assert abs(sf.loggrad(x) - y) <= 4.0 * math.ulp(y)
            assert x == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("a, b", [(0.05, 0.99), (0.5, 0.9), (0.9, 0.2)])
    def test_loggrad_against_decimal(self, a, b):
        # 50-digit g'/g with the float exponents taken exactly
        sf = RatioForm("powsum", a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for x in (m * 10.0**k for m in (1.0, 2.3, 7.1) for k in range(-300, 301, 5)):
                exact = _decimal_loggrad(Decimal(x).ln(), a, b)[0]
                assert abs(Decimal(sf.loggrad(x)) - exact) <= 3 * Decimal(math.ulp(float(exact))), x

    @pytest.mark.parametrize("a, b", [(0.05, 0.99), (0.5, 0.9), (0.9, 0.2)])
    def test_loggrad_inverse_against_decimal(self, a, b):
        # the exact root by 50-digit Newton steps in log x from mid-bracket
        sf = RatioForm("powsum", a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for y in (m * 10.0**k for m in (1.0, 3.7) for k in range(-300, 301, 6)):
                target = Decimal(y).ln()
                u = Decimal(a * b).ln() / 2 - target  # sqrt(ab)/y, the bracket's mid-point
                for _ in range(10):
                    value, slope = _decimal_loggrad(u, a, b)
                    u -= (value.ln() - target) / slope
                exact = u.exp()
                x = sf.loggrad_inverse(y)
                assert abs(Decimal(x) - exact) <= 4 * Decimal(math.ulp(float(exact))), y

    def test_ratio_battle_inverts_twice_per_evaluation(self, monkeypatch):
        # the accepted point is read back from the log-odds search's own
        # evaluations, not solved again
        evaluations, inversions = [], []
        inverse = RatioForm.loggrad_inverse

        def counted_brentq(f, *args, **kwargs):
            return _brentq(lambda l: evaluations.append(l) or f(l), *args, **kwargs)

        monkeypatch.setattr(success, "_brentq", counted_brentq)
        monkeypatch.setattr(RatioForm, "loggrad_inverse",
                            lambda sf, y: inversions.append(y) or inverse(sf, y))
        solve_battle(RatioForm("powsum", 0.5, 0.9), 3.0, 0.7)
        assert len(inversions) == 2 * len(evaluations) > 0

    def test_ratio_powsum_foc_residual(self):
        sf = RatioForm("powsum", alpha=0.5, beta=0.9)
        for da, db in [(1.0, 1.0), (5.0, 1.0), (0.3, 2.0)]:
            eq = solve_battle(sf, da, db)
            ga, gb = sf.curve_value(eq.effort_a), sf.curve_value(eq.effort_b)
            s2 = (ga + gb) ** 2
            assert abs(sf.curve_prime(eq.effort_a) * gb * da / s2 - 1.0) <= 1e-12
            assert abs(sf.curve_prime(eq.effort_b) * ga * db / s2 - 1.0) <= 1e-12

    def test_noisy_scales_base_efforts(self):
        base = Tullock(1.0)
        sf = Noisy(base, 0.6)
        eq = solve_battle(sf, 2.0, 1.0)
        ref = solve_battle(base, 0.6 * 2.0, 0.6 * 1.0)
        assert eq.effort_a == pytest.approx(ref.effort_a, abs=1e-15)
        assert eq.win_prob_a == pytest.approx(0.6 * ref.win_prob_a + 0.2, abs=1e-15)

    def test_noisy_gain_ratio_identity(self):
        base = Tullock(1.0)
        for q in (0.3, 0.7, 1.0):
            sf = Noisy(base, q)
            for ratio in (0.5, 1.0, 4.0):
                eq = solve_battle(sf, ratio, 1.0)
                base_pi = phi(base, ratio)
                assert eq.gain_ratio_a == pytest.approx(
                    0.5 * (1 - q) + q * base_pi, abs=1e-13
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_battle(Tullock(1.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            solve_battle(Tullock(1.0), 1.0, -2.0)

    @pytest.mark.parametrize("stakes", [(4.0, 1e-300), (1e-300, 4.0), (4.0, 1e-200)])
    def test_ratio_lopsided_stakes_raise_typed_error(self, stakes):
        # a curve value underflows to 0 or the log-odds bracket holds no sign
        # change; either way the solver reports a ConvergenceError
        with pytest.raises(ConvergenceError):
            solve_battle(RatioForm("pow", 0.8), *stakes)


class TestGainRatioSum:
    @pytest.mark.parametrize("sf", HOMOGENEOUS + [RatioForm("powsum", 0.5, 0.9)])
    def test_bounded_below_one(self, sf):
        worst = 0.0
        for ratio in np.linspace(1.0, 10.0, 19):
            a = solve_battle(sf, ratio, 1.0)
            worst = max(worst, a.gain_ratio_a + a.gain_ratio_b)
        assert worst < 1.0
        assert 1.0 - worst > 1e-3  # a measurable gap remains


class TestAugmentedGain:
    def test_degenerate_limits(self):
        sf = Tullock(1.0)
        assert augmented_gain(sf, 5.0, 0.0) == 5.0
        assert augmented_gain(sf, 1.0, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert augmented_gain(sf, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "sf",
        [
            Tullock(0.5),
            Serial(0.5),
            RatioForm("powsum", 0.5, 0.9),
            RatioForm("pow", 0.8),
            Noisy(RatioForm("pow", 0.8), 0.5),
        ],
    )
    def test_continuity_toward_zero_stake(self, sf):
        at_zero = augmented_gain(sf, 1.0, 0.0)
        near = augmented_gain(sf, 1.0, 1e-7)
        assert near == pytest.approx(at_zero, abs=1e-3)

    def test_bounds(self):
        sf = Serial(0.3)
        for dp in (0.5, 1.0, 4.0):
            for d in (0.0, 0.1, 2.0):
                value = augmented_gain(sf, dp, d)
                assert 0.0 <= value <= dp

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            augmented_gain(Tullock(1.0), -1.0, 1.0)


class TestBattleGain:
    KINDS = [
        Tullock(1.0),
        Serial(0.5),
        Noisy(Tullock(0.5), 0.6),
        RatioForm("pow", 0.8),
        RatioForm("powsum", 0.6, 0.9),
        Noisy(RatioForm("pow", 0.8), 0.5),
    ]
    STAKES = (-2.0, -0.5, 0.0, 1e-3, 0.3, 1.0, 4.0)
    PAIRS = np.exp(np.random.default_rng(1).uniform(-10.0, 10.0, (2, 20000)))

    @pytest.mark.parametrize("sf", KINDS)
    def test_scalar_path_matches_array_path(self, sf):
        da, db = (g.ravel() for g in np.meshgrid(self.STAKES, self.STAKES))
        array = battle_gain(sf, da, db)
        scalar = [battle_gain(sf, a, b) for a, b in zip(da.tolist(), db.tolist())]
        assert all(isinstance(x, float) for x in scalar)
        assert np.array_equal(array, np.array(scalar))
        if not sf.homogeneous:
            return
        # seeded stake pairs, and the curves at their ratios, bit for bit
        da, db = self.PAIRS
        scalar = [battle_gain(sf, a, b) for a, b in zip(da.tolist(), db.tolist())]
        assert np.array_equal(battle_gain(sf, da, db), np.array(scalar))
        theta = da / db
        for curve in (sf.phi, sf.phi_complement, sf.gamma, sf.gamma_prime):
            assert np.array_equal(curve(theta), np.array([curve(t) for t in theta.tolist()]))

    @pytest.mark.parametrize("sf", KINDS)
    def test_all_competitive_array_matches_masked_path(self, sf):
        da, db = np.exp(np.random.default_rng(8).uniform(-3.0, 2.0, (2, 40)))
        masked = battle_gain(sf, np.append(da, 0.0), np.append(db, 1.0))
        assert np.array_equal(battle_gain(sf, da, db), masked[:-1])

    @pytest.mark.parametrize("sf", KINDS)
    def test_four_cases(self, sf):
        assert battle_gain(sf, 2.0, 1.0) == solve_battle(sf, 2.0, 1.0).payoff_a
        assert battle_gain(sf, 2.0, 0.0) == battle_gain(sf, 2.0, -1.0) == 2.0 * sf.win_limit
        assert battle_gain(sf, 0.0, 1.0) == battle_gain(sf, -1.0, 1.0) == 0.0
        assert battle_gain(sf, -1.0, -3.0) == -0.5
        assert battle_gain(sf, 0.0, 0.0) == 0.0


class TestPsi:
    def test_tullock_unit_closed_form(self):
        # psi(t) = t^2/(t+2) for the unit Tullock curve, by direct algebra
        sf = Tullock(1.0)
        assert psi(sf, 2.0) == pytest.approx(1.0, abs=1e-15)
        for theta in (0.5, 1.0, 3.7, 10.0):
            assert psi(sf, theta) == pytest.approx(theta**2 / (theta + 2), rel=1e-14)

    def test_inverse_known_roots(self):
        sf = Tullock(1.0)
        assert psi_inverse(sf, 1.0) == pytest.approx(2.0, abs=1e-13)
        # root of t^2 - 3t - 6, from psi(t) = 3
        assert psi_inverse(sf, 3.0) == pytest.approx((3 + math.sqrt(33)) / 2, rel=1e-14)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_round_trip(self, sf):
        for y in np.logspace(-3, 5, 17):
            theta = psi_inverse(sf, y)
            assert abs(psi(sf, theta) - y) <= 1e-12 * max(1.0, y)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_increasing_and_below_identity(self, sf):
        grid = np.logspace(-2, 4, 25)
        vals = [psi(sf, t) for t in grid]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        assert all(v < t for v, t in zip(vals, grid))


STAKES_MSG = "battle stakes must be positive and finite"
RATIO_MSG = "ratio must be nonnegative"
REFUSALS = {
    "battle B stake inf": (lambda sf: solve_battle(sf, 1.0, math.inf), STAKES_MSG),
    "battle A stake inf": (lambda sf: solve_battle(sf, math.inf, 1.0), STAKES_MSG),
    "psi_inverse nan": (lambda sf: psi_inverse(sf, math.nan), "psi_inverse requires a finite y > 0"),
    "psi_inverse inf": (lambda sf: psi_inverse(sf, math.inf), "psi_inverse requires a finite y > 0"),
    "psi nan": (lambda sf: psi(sf, math.nan), "psi requires theta > 0"),
    "phi nan": (lambda sf: phi(sf, math.nan), RATIO_MSG),
    "eval_gamma nan": (lambda sf: eval_gamma(sf, math.nan), RATIO_MSG),
    "phi_complement -0.5": (lambda sf: success.phi_complement(sf, -0.5), RATIO_MSG),
    "phi_complement -1": (lambda sf: success.phi_complement(sf, -1.0), RATIO_MSG),
    "phi_complement nan": (lambda sf: success.phi_complement(sf, math.nan), RATIO_MSG),
    "augmented_gain nan own": (lambda sf: augmented_gain(sf, math.nan, 1.0), "stakes must be nonnegative"),
    "augmented_gain nan other": (lambda sf: augmented_gain(sf, 1.0, math.nan), "stakes must be nonnegative"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_typed_refusal(self, case):
        call, message = REFUSALS[case]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(Tullock(1.0))

    def test_infinite_ratios_stay_valid(self):
        sf = Tullock(1.0)
        assert success.phi_complement(sf, math.inf) == 0.0
        assert psi(sf, math.inf) == math.inf


class TestParse:
    @pytest.mark.parametrize(
        "text",
        [
            "tullock:r=1",
            "tullock:r=0.5",
            "serial:alpha=0.5",
            "ratio:pow,alpha=0.8",
            "ratio:powsum,alpha=0.5,beta=0.9",
            "noisy:q=0.7,base=tullock:r=1",
            "noisy:q=0.4,base=ratio:pow,alpha=0.8",
        ],
    )
    def test_round_trip(self, text):
        sf = parse_sf(text)
        assert parse_sf(sf.spec_string()) == sf

    @pytest.mark.parametrize(
        "bad",
        ["tullock", "tullock:r=2", "serial:alpha=1.5", "ratio:cubic,alpha=1",
         "noisy:q=0.5", "pow:alpha=1", "tullock:r=abc"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_sf(bad)

    @pytest.mark.parametrize(
        ("text", "unread"),
        [
            ("tullock:r=1,alpha=0.5", "alpha"),
            ("serial:alpha=0.5,r=1", "r"),
            ("ratio:pow,alpha=0.8,beta=0.5", "beta"),
            ("ratio:powsum,alpha=0.5,beta=0.9,q=1", "q"),
            ("noisy:q=0.5,r=1,base=tullock:r=1", "r"),
            ("noisy:q=0.5,base=tullock:r=1,q=0.5", "q"),
        ],
    )
    def test_refuses_unread_keys(self, text, unread):
        with pytest.raises(DomainError, match=f"does not read {unread}="):
            parse_sf(text)


class TestNoisyLogForms:
    @pytest.mark.parametrize("text", ["tullock:r=1", "tullock:r=0.5", "serial:alpha=0.5"])
    def test_full_weight_is_the_base_bit_for_bit(self, text):
        base = parse_sf(text)
        sf = Noisy(base, 1.0)
        for theta in (1e-300, 1e-8, 0.3, 1.0, 7.0, 1e200):
            assert sf.log_phi(theta) == base.log_phi(theta)
            assert sf.log_phi_complement(theta) == base.log_phi_complement(theta)
        for log_theta in (-1e5, -700.5, -3.0, 0.0, 3.0, 700.5, 1e5):
            assert sf.log_phi_at_log(log_theta) == base.log_phi_at_log(log_theta)
            assert sf.log_phi_complement_at_log(log_theta) == (
                base.log_phi_complement_at_log(log_theta)
            )

    @pytest.mark.parametrize("sf", [s for s in HOMOGENEOUS if isinstance(s, Noisy)])
    def test_match_the_log_of_the_curve(self, sf):
        for theta in np.logspace(-12, 12, 49).tolist():
            assert math.isclose(sf.log_phi(theta), math.log(sf.phi(theta)), rel_tol=1e-13)
            assert math.isclose(
                sf.log_phi_complement(theta), math.log(sf.phi_complement(theta)), rel_tol=1e-13
            )
            log_theta = math.log(theta)
            assert math.isclose(sf.log_phi_at_log(log_theta), sf.log_phi(theta), rel_tol=1e-13)

    def test_hold_where_the_base_curve_underflows(self):
        # phi(1e-200) underflows under tullock:r=1; the coin's share does not
        sf = Noisy(Tullock(1.0), 0.5)
        assert Tullock(1.0).phi(1e-200) == 0.0
        assert sf.log_phi(1e-200) == math.log(0.25)
        assert sf.log_phi_at_log(-1e4) == math.log(0.25)
        assert sf.log_phi_complement_at_log(1e4) == math.log(0.25)

    def test_mk1_bias_ratio_at_full_weight_is_the_base_figure(self):
        noisy = log_bias_ratio(MK1(10), parse_sf("noisy:q=1,base=tullock:r=1"))
        assert noisy == log_bias_ratio(MK1(10), Tullock(1.0))
        assert noisy == pytest.approx(959.1976161974644, rel=1e-12)


def _decimal_loggrad(u, a: float, b: float):
    """g'/g of g(x) = x^a + x^b at x = e^u in the context's precision, and
    the slope of log(g'/g) in u."""
    da, db = Decimal(a), Decimal(b)
    pa, pb = (da * u).exp(), (db * u).exp()
    s = pb / (pa + pb)
    k = da + (db - da) * s  # x g'/g
    return k / u.exp(), (db - da) ** 2 * s * (1 - s) / k - 1


def _win_prob(sf, xa: float, xb: float) -> float:
    """Success probability at an effort profile, for grid-search oracles."""
    if isinstance(sf, Noisy):
        return sf.q * _win_prob(sf.base, xa, xb) + 0.5 * (1.0 - sf.q)
    if isinstance(sf, RatioForm):
        return sf.win_prob(xa, xb)
    if xa == 0.0 and xb == 0.0:
        return 0.5
    if xb == 0.0:
        return 1.0
    return eval_gamma(sf, xa / xb)


# ---------------------------------------------------------------------------
# The in-house Brent root against scipy.optimize.brentq, bit for bit
# ---------------------------------------------------------------------------


def _outcome(fn, f, *args, **kwargs):
    """The hex bits of the root, or the exception type, and the points f saw."""
    seen = []

    def recorded(x):
        seen.append(float(x).hex())
        return f(x)

    try:
        result = float(fn(recorded, *args, **kwargs)).hex()
    except Exception as exc:  # noqa: BLE001 - compared by type below
        result = type(exc)
    return result, seen


def _random_bracket(rng):
    """A function with a sign change on its bracket, drawn from smooth,
    saturating, plateau, step, exponential and NaN-holed shapes."""
    root = rng.uniform(-5.0, 5.0) * 10.0 ** rng.randint(-3, 3)
    a = root - rng.expovariate(1.0) * 10.0 ** rng.randint(-2, 2)
    b = root + rng.expovariate(1.0) * 10.0 ** rng.randint(-2, 2)
    slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
    shape = rng.randrange(7)
    if shape == 0:
        cube = rng.uniform(0.0, 5.0)
        f = lambda x: slope * ((x - root) + cube * (x - root) ** 3)  # noqa: E731
    elif shape == 1:
        f = lambda x: math.tanh(slope * (x - root))  # noqa: E731
    elif shape == 2:
        f = lambda x: max(-1.0, min(1.0, slope * (x - root)))  # noqa: E731
    elif shape == 3:
        f = lambda x: math.copysign(1.0, slope) * (-1.0 if x < root else 1.0)  # noqa: E731
    elif shape == 4:
        level = math.exp(root / 10.0)
        f = lambda x: math.exp(x / 10.0) - level  # noqa: E731
    elif shape == 5:
        hole = root + (b - root) * rng.uniform(0.2, 1.5)
        f = lambda x: math.nan if x > hole else slope * (x - root)  # noqa: E731
    else:
        # a root exactly at an end, or two ends of one sign
        f = lambda x: slope * (x - root)  # noqa: E731
        a, b = rng.choice([(root, b), (a, root), (a, a + 0.5 * (root - a))])
    if rng.random() < 0.3:
        a, b = b, a
    xtol = rng.choice([1e-300, 1e-14, 2e-12, 1e-8, 1e-3])
    rtol = rng.choice([success._BRENTQ_RTOL, 1e-10, 1e-6])
    maxiter = rng.choice([100, 100, 100, 8, 3])
    return f, a, b, {"xtol": xtol, "rtol": rtol, "maxiter": maxiter}


class TestBrentq:
    def test_matches_scipy_on_random_brackets(self):
        rng = random.Random(16)
        kinds = set()
        for _ in range(12_000):
            f, a, b, opts = _random_bracket(rng)
            ours = _outcome(_brentq, f, a, b, **opts)
            assert ours == _outcome(scipy_brentq, f, a, b, **opts), (a, b, opts)
            kinds.add(ours[0] if isinstance(ours[0], type) else float)
        assert kinds == {float, ValueError, RuntimeError}

    def test_plateau_steps_bisect(self):
        # flat ends make the secant divide by zero: C bisects on the
        # non-finite step, and so must the port
        f = lambda x: max(-1.0, min(1.0, 1e3 * (x - 0.3)))  # noqa: E731
        ours = _outcome(_brentq, f, -10.0, 10.0, xtol=1e-14)
        assert ours == _outcome(scipy_brentq, f, -10.0, 10.0, xtol=1e-14)
        assert abs(float.fromhex(ours[0]) - 0.3) < 1e-13

    @pytest.mark.parametrize(
        ("f", "a", "b", "opts", "error"),
        [
            (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),
            (lambda x: math.nan if x > 0.5 else x, -1.0, 2.0, {}, ValueError),
            (lambda x: math.sin(x), 1.0, 6.0, {"maxiter": 2}, RuntimeError),
        ],
        ids=["same_signs", "nan_value", "maxiter"],
    )
    def test_errors(self, f, a, b, opts, error):
        with pytest.raises(error):
            _brentq(f, a, b, xtol=2e-12, **opts)
        with pytest.raises(error):
            scipy_brentq(f, a, b, xtol=2e-12, **opts)


@pytest.fixture
def checked_brentq(monkeypatch):
    """Every ``_brentq`` call of the library also run through scipy's brentq
    and compared bit for bit; returns the list of compared calls."""
    calls = []

    def checked(f, a, b, xtol, rtol=success._BRENTQ_RTOL, maxiter=100):
        ours = _outcome(_brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        assert ours == _outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        calls.append(ours[0])
        return _brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)

    monkeypatch.setattr(success, "_brentq", checked)
    monkeypatch.setattr(solver, "_brentq", checked)
    return calls


class TestBrentqCallSites:
    def test_ratio_form_battle(self, checked_brentq):
        rng = random.Random(3)
        technologies = [RatioForm("pow", 0.7), RatioForm("powsum", 0.5, 0.9),
                        Noisy(RatioForm("powsum", 0.3, 0.8), 0.6)]
        for sf in technologies:
            for _ in range(6):
                da, db = (math.exp(rng.uniform(-8.0, 8.0)) for _ in range(2))
                solve_battle(sf, da, db)
        # lopsided stakes: no log-odds within the span balances the curves
        with pytest.raises(ConvergenceError):
            solve_battle(RatioForm("pow", 0.7), 1.0, 1e-30)
        assert any(call is ValueError for call in checked_brentq)

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_psi_inverse(self, checked_brentq, sf):
        for y in np.logspace(-3, 5, 9).tolist():
            psi_inverse(sf, y)
        assert len(checked_brentq) == 9

    @pytest.mark.parametrize("sf", HOMOGENEOUS)
    def test_streak_root(self, checked_brentq, sf):
        for k in range(2, 12):
            streak_root(sf, k)
        assert len(checked_brentq) >= 10
