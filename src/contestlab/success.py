"""Battle technology: success functions, gain functions, and single-battle equilibria.

A battle is a simultaneous-effort component competition.  Homogeneous
technologies depend on efforts only through their ratio and admit closed-form
equilibria; ratio-form technologies are solved numerically from their
first-order conditions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedKindError

__all__ = [
    "SuccessFunction",
    "Tullock",
    "Serial",
    "RatioForm",
    "Noisy",
    "BattleEquilibrium",
    "eval_gamma",
    "phi",
    "phi_complement",
    "solve_battle",
    "augmented_gain",
    "battle_gain",
    "battle_detail",
    "psi",
    "psi_inverse",
    "parse_sf",
]

# Gain-ratio saturation guard: finite effort ratios never report a gain ratio
# of exactly 1, which keeps downstream ratios well defined.
_PHI_CAP = 1.0 - 1e-15

_EPS = float(np.finfo(float).eps)
_BRENTQ_RTOL = 4.0 * _EPS


def _brentq(f, a: float, b: float, xtol: float, rtol: float = _BRENTQ_RTOL, maxiter: int = 100):
    """A root of f between a and b by Brent's method, step for step as
    scipy's ``brentq.c`` (so ``scipy.optimize.brentq``'s result, bit for bit).

    Raises ValueError when f(a) and f(b) share a sign or f gives NaN, and
    RuntimeError after ``maxiter`` steps.  A trial step whose formula divides
    by zero bisects: in C it is non-finite and fails the acceptance test.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _sides(theta, low, high, at_inf=None, power=None, cap=None):
    """Elementwise ``low`` at ratios up to 1 and ``high`` above 1.

    Each branch sees the ratio on its own side and 1 elsewhere, so neither
    overflows or divides by zero on the other side; with ``power`` p, ``low``
    sees z = ratio^p and ``high`` w = ratio^-p instead, each power taken
    once.  ``cap``, when given, bounds ``high`` from above, and ``at_inf``
    is the value at theta = +inf.  A float ratio evaluates its own side
    only: the power is numpy's, the rest Python-float arithmetic, which
    gives the array path's bits.
    """
    if isinstance(theta, float):
        if theta <= 1.0:
            return float(low(theta if power is None else float(np.power(theta, power))))
        if at_inf is not None and theta == math.inf:
            return at_inf
        out = float(high(theta if power is None else float(np.power(theta, -power))))
        return out if cap is None else min(out, cap)
    th = np.asarray(theta, dtype=float)
    small = th <= 1.0
    lo, hi = np.where(small, th, 1.0), np.where(small, 1.0, th)
    if power is not None:
        lo, hi = lo**power, hi ** (-power)
    out = np.where(small, low(lo), high(hi) if cap is None else np.minimum(high(hi), cap))
    if at_inf is not None:
        out = np.where(th == np.inf, at_inf, out)
    return float(out) if np.ndim(theta) == 0 else out


class SuccessFunction:
    """Common interface of all battle technologies."""

    homogeneous = False

    # Win probability against a vanishing opponent stake: both efforts
    # vanish, so the gain is this chance times the stake.  Every kind states
    # it exactly, with no numeric probe; ``battle_gain`` pays win_limit * d'
    # in every one-sided battle.
    win_limit = 1.0

    # -- homogeneous-kind surface (effort-ratio curve) ----------------------
    def gamma(self, theta):
        raise UnsupportedKindError(f"{self.kind} has no effort-ratio curve")

    def gamma_prime(self, theta):
        raise UnsupportedKindError(f"{self.kind} has no effort-ratio curve")

    def phi(self, theta):
        raise UnsupportedKindError(f"{self.kind} has no gain function")

    def phi_complement(self, theta):
        """1 - phi(theta), evaluated stably for large ratios."""
        raise UnsupportedKindError(f"{self.kind} has no gain function")

    def log_phi(self, theta: float) -> float:
        """log phi(theta), exact where phi underflows; every kind with a
        gain function states its own."""
        raise UnsupportedKindError(f"{self.kind} has no gain function")

    def log_phi_complement(self, theta: float) -> float:
        raise UnsupportedKindError(f"{self.kind} has no gain function")

    # log-argument variants: exact for ratios beyond float range, where each
    # side's log tends to minus the other side's curve
    def log_phi_at_log(self, log_theta: float) -> float:
        if abs(log_theta) <= 700.0:
            return self.log_phi(math.exp(log_theta))
        if log_theta > 0.0:
            return -math.exp(self.log_phi_complement_at_log(log_theta))
        return self._deep_log_phi(log_theta)

    def log_phi_complement_at_log(self, log_theta: float) -> float:
        if abs(log_theta) <= 700.0:
            return self.log_phi_complement(math.exp(log_theta))
        if log_theta > 0.0:
            return self._deep_log_phi_complement(log_theta)
        return -math.exp(self.log_phi_at_log(log_theta))

    def _deep_log_phi(self, log_theta: float) -> float:
        """Asymptote of log phi for log_theta < -700."""
        raise UnsupportedKindError(f"{self.kind} gain function lacks log asymptotics")

    def _deep_log_phi_complement(self, log_theta: float) -> float:
        """Asymptote of log(1 - phi) for log_theta > 700."""
        raise UnsupportedKindError(f"{self.kind} gain function lacks log asymptotics")

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Tullock(SuccessFunction):
    """Ratio-of-powers technology: win probability x^r / (x^r + x'^r)."""

    r: float = 1.0
    homogeneous = True

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise DomainError(f"Tullock exponent must lie in (0, 1], got {self.r}")

    def gamma(self, theta):
        return _sides(theta, lambda z: z / (1.0 + z), lambda w: 1.0 / (1.0 + w), power=self.r)

    def gamma_prime(self, theta):
        r = self.r
        return _sides(
            theta,
            lambda t: r * np.power(t, r - 1.0) / np.square(1.0 + np.power(t, r)),
            lambda t: r * np.power(t, -r - 1.0) / np.square(1.0 + np.power(t, -r)),
        )

    def phi(self, theta):
        r = self.r
        return _sides(
            theta,
            lambda z: z * (1.0 - r + z) / ((t := 1.0 + z) * t),
            lambda w: (1.0 + (1.0 - r) * w) / ((t := 1.0 + w) * t),
            at_inf=1.0,
            power=r,
            cap=_PHI_CAP,
        )

    def phi_complement(self, theta):
        r = self.r
        return _sides(
            theta,
            lambda z: (1.0 + (1.0 + r) * z) / ((t := 1.0 + z) * t),
            lambda w: w * (1.0 + r + w) / ((t := 1.0 + w) * t),
            at_inf=0.0,
            power=r,
        )

    def log_phi(self, theta: float) -> float:
        if theta >= 1.0:
            return math.log1p(-self.phi_complement(theta))
        z = np.power(theta, self.r)
        return self.r * math.log(theta) + math.log(1.0 - self.r + z) - 2.0 * math.log1p(z)

    def log_phi_complement(self, theta: float) -> float:
        if theta <= 1.0:
            return math.log1p(-self.phi(theta))
        w = np.power(theta, -self.r)
        return -self.r * math.log(theta) + math.log(1.0 + self.r + w) - 2.0 * math.log1p(w)

    def _deep_log_phi(self, log_theta: float) -> float:
        # phi(w) = w^r (1 - r + w^r) / (1 + w^r)^2 with log w deeply negative
        if self.r < 1.0:
            return self.r * log_theta + math.log(1.0 - self.r)
        return 2.0 * log_theta

    def _deep_log_phi_complement(self, log_theta: float) -> float:
        return math.log(1.0 + self.r) - self.r * log_theta

    def spec_string(self) -> str:
        return f"tullock:r={self.r:g}"


@dataclass(frozen=True)
class Serial(SuccessFunction):
    """Piecewise-power technology with exponent alpha in (0, 1).

    The effort-ratio curve is theta^alpha / 2 below 1 and 1 - theta^(-alpha)/2
    above 1.  Its slope is alpha/2 from both sides at 1, so the gain function
    stays continuous; the curve is only once continuously differentiable there.
    """

    alpha: float = 0.5
    homogeneous = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"Serial exponent must lie in (0, 1), got {self.alpha}")

    def gamma(self, theta):
        return _sides(theta, lambda z: 0.5 * z, lambda w: 1.0 - 0.5 * w, power=self.alpha)

    def gamma_prime(self, theta):
        a = self.alpha
        return _sides(
            theta,
            lambda t: 0.5 * a * np.power(t, a - 1.0),
            lambda t: 0.5 * a * np.power(t, -a - 1.0),
        )

    def phi(self, theta):
        a = self.alpha
        return _sides(
            theta,
            lambda z: 0.5 * (1.0 - a) * z,
            lambda w: 1.0 - 0.5 * (1.0 + a) * w,
            at_inf=1.0,
            power=a,
            cap=_PHI_CAP,
        )

    def phi_complement(self, theta):
        a = self.alpha
        return _sides(
            theta, lambda z: 1.0 - 0.5 * (1.0 - a) * z, lambda w: 0.5 * (1.0 + a) * w, power=a
        )

    def log_phi(self, theta: float) -> float:
        if theta >= 1.0:
            return math.log1p(-self.phi_complement(theta))
        return math.log(0.5 * (1.0 - self.alpha)) + self.alpha * math.log(theta)

    def log_phi_complement(self, theta: float) -> float:
        if theta <= 1.0:
            return math.log1p(-self.phi(theta))
        return math.log(0.5 * (1.0 + self.alpha)) - self.alpha * math.log(theta)

    def _deep_log_phi(self, log_theta: float) -> float:
        return math.log(0.5 * (1.0 - self.alpha)) + self.alpha * log_theta

    def _deep_log_phi_complement(self, log_theta: float) -> float:
        return math.log(0.5 * (1.0 + self.alpha)) - self.alpha * log_theta

    def spec_string(self) -> str:
        return f"serial:alpha={self.alpha:g}"


# ---------------------------------------------------------------------------
# Ratio-form technologies: win probability g(x) / (g(x) + g(x')) for a
# concave curve g with g(0) = 0 and x g'(x)/g(x) bounded away from zero.
# ---------------------------------------------------------------------------


def _powsum_loggrad_inverse(y: float, a: float, b: float, lo: float, hi: float) -> float:
    """The x in [lo, hi] where g'(x)/g(x) is y, for g(x) = x^a + x^b.

    Each step takes g'/g = (a x^a + b x^b) / x / (x^a + x^b) from its two
    powers, dividing by x first: x (x^a + x^b) overflows near 1e300 and
    underflows near 1e-300.  x g'/g is a + (b - a) s with
    s = x^b / (x^a + x^b); one step of x = (a + (b - a) s) / y from
    mid-bracket gives the start.  Newton steps in log x follow: there
    log(g'/g) has slope (b - a)^2 s (1 - s) / (a + (b - a) s) - 1, which
    lies in (-1, 0), so each heads for the root.  Each value's sign narrows
    the bracket.  A step that leaves it, or would grow x e-fold, goes
    to the end of [lo, hi] it passed if that is not yet evaluated, else to the
    bracket's midpoint in log x; one shorter than eps x is lengthened to eps x.
    Stops at a value within ulp(y) of y, or once the bracket is 2 eps x wide,
    at its evaluated end with the smaller residual: lo or hi itself when the
    root lies within rounding of it.
    """
    d = b - a
    tol = math.ulp(y)
    xl, xh, rl, rh = lo, hi, math.inf, -math.inf
    t = (0.5 * (a + b) / y) ** d
    x = (a + d * t / (1.0 + t)) / y
    for _ in range(100):
        pa, pb = x**a, x**b
        loggrad = (a * pa + b * pb) / x / (pa + pb)
        r = loggrad - y
        if abs(r) <= tol:
            return x
        if r > 0.0:
            xl, rl = x, r
        else:
            xh, rh = x, r
        delta = _EPS * x
        if xh - xl <= 2.0 * delta:
            return xl if rl <= -rh else xh
        s = pb / (pa + pb)
        z = math.log(loggrad / y) / (1.0 - d * d * s * (1.0 - s) / (a + d * s))
        step = x * math.expm1(z) if z < 1.0 else math.inf
        if abs(step) < delta:
            step = delta if r > 0.0 else -delta
        x += step
        if x <= xl:
            x = xl if rl == math.inf else math.sqrt(xl) * math.sqrt(xh)
        elif x >= xh:
            x = xh if rh == -math.inf else math.sqrt(xl) * math.sqrt(xh)
    raise ConvergenceError(f"loggrad inversion at target {y:.3e} did not converge")


@dataclass(frozen=True)
class RatioForm(SuccessFunction):
    """Ratio-form technology over a named concave curve.

    Shipped curves:
      * ``pow``:    g(x) = x^alpha (coincides with the Tullock family)
      * ``powsum``: g(x) = x^alpha + x^beta
    """

    curve: str = "pow"
    alpha: float = 0.8
    beta: float = 0.0
    homogeneous = False

    def __post_init__(self):
        if self.curve not in ("pow", "powsum"):
            raise DomainError(f"unknown ratio-form curve {self.curve!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("ratio-form exponents must lie in (0, 1)")
        if self.curve == "powsum" and not 0.0 < self.beta < 1.0:
            raise DomainError("ratio-form exponents must lie in (0, 1)")

    # concave curve g and derived quantities
    def curve_value(self, x):
        if self.curve == "pow":
            return x**self.alpha
        return x**self.alpha + x**self.beta

    def curve_prime(self, x):
        """g'(x) from the powers of g itself: (alpha x^alpha + beta x^beta) / x."""
        if self.curve == "pow":
            return self.alpha * x**self.alpha / x
        return (self.alpha * x**self.alpha + self.beta * x**self.beta) / x

    def loggrad(self, x: float) -> float:
        """g'(x)/g(x), strictly decreasing on (0, inf)."""
        return self.curve_prime(x) / self.curve_value(x)

    @property
    def loggrad_range(self) -> tuple[float, float]:
        """Bounds (kmin, kmax) of x g'(x)/g(x); both lie in (0, 1)."""
        if self.curve == "pow":
            return self.alpha, self.alpha
        lo = min(self.alpha, self.beta)
        hi = max(self.alpha, self.beta)
        return lo, hi

    def loggrad_inverse(self, y: float) -> float:
        """Solve g'(x)/g(x) = y for x > 0 within [kmin/y, kmax/y]."""
        if not y > 0.0:
            raise DomainError("loggrad_inverse requires a positive target")
        kmin, kmax = self.loggrad_range
        y = float(y)
        if kmin == kmax:
            return kmin / y
        lo, hi = kmin / y, kmax / y
        if not (sys.float_info.min <= lo and hi <= 1.0 / sys.float_info.min):
            raise ConvergenceError(f"loggrad target {y:.3e} puts the effort outside float range")
        # only powsum with alpha != beta gets here
        return _powsum_loggrad_inverse(y, self.alpha, self.beta, lo, hi)

    def win_prob(self, x: float, x_other: float) -> float:
        if x == 0.0 and x_other == 0.0:
            return 0.5
        ga, gb = self.curve_value(x), self.curve_value(x_other)
        return ga / (ga + gb)

    def spec_string(self) -> str:
        if self.curve == "pow":
            return f"ratio:pow,alpha={self.alpha:g}"
        return f"ratio:powsum,alpha={self.alpha:g},beta={self.beta:g}"


@dataclass(frozen=True)
class Noisy(SuccessFunction):
    """Mixture of a base technology with a fair coin: q*p + (1-q)/2."""

    base: SuccessFunction = Tullock(1.0)
    q: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise DomainError(f"noise weight must lie in (0, 1], got {self.q}")

    @property
    def homogeneous(self):  # type: ignore[override]
        return self.base.homogeneous

    def gamma(self, theta):
        return self.q * self.base.gamma(theta) + 0.5 * (1.0 - self.q)

    def gamma_prime(self, theta):
        return self.q * self.base.gamma_prime(theta)

    def phi(self, theta):
        return 0.5 * (1.0 - self.q) + self.q * self.base.phi(theta)

    def phi_complement(self, theta):
        return 0.5 * (1.0 - self.q) + self.q * self.base.phi_complement(theta)

    # log forms: the coin's share mixed into the base's own log forms, so
    # they hold where the base's curve underflows and beyond float range
    def log_phi(self, theta: float) -> float:
        return self._log_mix(self.base.log_phi(theta))

    def log_phi_complement(self, theta: float) -> float:
        return self._log_mix(self.base.log_phi_complement(theta))

    def log_phi_at_log(self, log_theta: float) -> float:
        return self._log_mix(self.base.log_phi_at_log(log_theta))

    def log_phi_complement_at_log(self, log_theta: float) -> float:
        return self._log_mix(self.base.log_phi_complement_at_log(log_theta))

    def _log_mix(self, log_base: float) -> float:
        """log(0.5 (1 - q) + q e^log_base) by a log-sum-exp; log_base at q = 1."""
        if self.q == 1.0:
            return log_base
        a, b = math.log(self.q) + log_base, math.log(0.5 * (1.0 - self.q))
        return max(a, b) + math.log1p(math.exp(-abs(a - b)))

    @property
    def win_limit(self) -> float:
        return 0.5 * (1.0 - self.q) + self.q * self.base.win_limit

    def spec_string(self) -> str:
        return f"noisy:q={self.q:g},base={self.base.spec_string()}"


# ---------------------------------------------------------------------------
# Battle equilibrium
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BattleEquilibrium:
    """Pure-strategy Nash equilibrium of a single battle.

    Efforts are in disutility units; payoffs are net of effort; each gain
    ratio is the player's payoff divided by their winning stake.
    """

    effort_a: float
    effort_b: float
    win_prob_a: float
    payoff_a: float
    payoff_b: float
    gain_ratio_a: float
    gain_ratio_b: float

    @property
    def win_prob_b(self) -> float:
        return 1.0 - self.win_prob_a


def _check_ratio(theta) -> None:
    """Refuse a negative or NaN scalar ratio; +inf is valid, arrays pass."""
    if np.ndim(theta) == 0 and not theta >= 0.0:
        raise DomainError("ratio must be nonnegative")


def eval_gamma(sf: SuccessFunction, theta):
    """Battle win probability as a function of the effort (or stake) ratio."""
    _check_ratio(theta)
    return sf.gamma(theta)


def phi(sf: SuccessFunction, theta):
    """Gain function: the stake fraction kept as equilibrium battle payoff."""
    _check_ratio(theta)
    return sf.phi(theta)


def phi_complement(sf: SuccessFunction, theta):
    """1 - phi(theta), accurate even when phi is within rounding of 1."""
    _check_ratio(theta)
    return sf.phi_complement(theta)


def _homogeneous_battle(sf: SuccessFunction, da, db):
    """The ratio theta = da / db, the efforts db gamma'(1/theta) and
    da gamma'(theta), and A's win probability gamma(theta)."""
    theta = da / db
    return theta, db * sf.gamma_prime(1.0 / theta), da * sf.gamma_prime(theta), sf.gamma(theta)


def _solve_battle_homogeneous(sf: SuccessFunction, delta_a: float, delta_b: float) -> BattleEquilibrium:
    theta, effort_a, effort_b, win = _homogeneous_battle(sf, delta_a, delta_b)
    ga = sf.phi(theta)
    gb = sf.phi(1.0 / theta)
    return BattleEquilibrium(
        effort_a=effort_a,
        effort_b=effort_b,
        win_prob_a=win,
        payoff_a=delta_a * ga,
        payoff_b=delta_b * gb,
        gain_ratio_a=ga,
        gain_ratio_b=gb,
    )


def _solve_battle_ratio(sf: RatioForm, delta_a: float, delta_b: float) -> BattleEquilibrium:
    """Solve the ratio-form first-order conditions numerically.

    The two FOCs reduce to one monotone scalar equation in A's win
    probability: the log-derivative of the curve pins each effort as
    loggrad(x) = 1 / (P (1-P) stake), and P must reproduce itself through
    the curve values.  The root is taken in log-odds so both P and 1-P keep
    full relative precision at lopsided stakes; the inner inversion of
    loggrad is closed-form for ``pow`` and a bracketed Newton iteration in
    log effort for ``powsum`` (``_powsum_loggrad_inverse``).  Each log-odds
    evaluation keeps its efforts and curve values, and the accepted point,
    always one ``_brentq`` evaluated, is read back from them: two
    inversions per evaluation and none after the search.
    """

    def probs(log_odds: float) -> tuple[float, float]:
        if log_odds >= 0.0:
            q = math.exp(-log_odds)
            return 1.0 / (1.0 + q), q / (1.0 + q)
        q = math.exp(log_odds)
        return q / (1.0 + q), 1.0 / (1.0 + q)

    seen = {}  # log-odds -> (xa, xb, g(xa), g(xb))

    def excess(log_odds: float) -> float:
        p, one_minus = probs(log_odds)
        c = p * one_minus
        xa = sf.loggrad_inverse(1.0 / (c * delta_a))
        xb = sf.loggrad_inverse(1.0 / (c * delta_b))
        ga, gb = sf.curve_value(xa), sf.curve_value(xb)
        seen[log_odds] = xa, xb, ga, gb
        return math.log(ga / gb) - log_odds

    span = 45.0  # win probabilities within 1e-19 of the boundary
    try:
        l_star = _brentq(excess, -span, span, xtol=1e-14)
    except (ZeroDivisionError, ValueError) as exc:
        # at lopsided stakes a curve value underflows to 0 (division or log
        # of zero) or no log-odds within the span balances the curves
        raise ConvergenceError(
            f"ratio-form FOC solve failed at stakes ({delta_a:.3e}, {delta_b:.3e}): {exc}"
        ) from exc
    p_star, one_minus = probs(l_star)
    xa, xb, ga, gb = seen[l_star]
    s2 = (ga + gb) ** 2
    res = max(
        abs(sf.curve_prime(xa) * gb * delta_a / s2 - 1.0),
        abs(sf.curve_prime(xb) * ga * delta_b / s2 - 1.0),
    )
    if not res <= 1e-12:
        raise ConvergenceError(
            f"ratio-form FOC solve did not converge (residual {res:.3e})", residual=res
        )
    pa = p_star * delta_a - xa
    pb = one_minus * delta_b - xb
    return BattleEquilibrium(
        effort_a=xa,
        effort_b=xb,
        win_prob_a=p_star,
        payoff_a=pa,
        payoff_b=pb,
        gain_ratio_a=pa / delta_a,
        gain_ratio_b=pb / delta_b,
    )


def solve_battle(sf: SuccessFunction, delta_a: float, delta_b: float) -> BattleEquilibrium:
    """Equilibrium of one battle with finite winning stakes delta_a, delta_b > 0."""
    if not (0.0 < delta_a < math.inf and 0.0 < delta_b < math.inf):
        raise DomainError("battle stakes must be positive and finite")
    if sf.homogeneous:
        return _solve_battle_homogeneous(sf, delta_a, delta_b)
    if isinstance(sf, RatioForm):
        return _solve_battle_ratio(sf, delta_a, delta_b)
    if isinstance(sf, Noisy):
        # The noisy battle at stakes (dA, dB) plays like the base battle at
        # (q dA, q dB); only the win probability is remixed with the coin.
        base = solve_battle(sf.base, sf.q * delta_a, sf.q * delta_b)
        win = sf.q * base.win_prob_a + 0.5 * (1.0 - sf.q)
        pa = win * delta_a - base.effort_a
        pb = (1.0 - win) * delta_b - base.effort_b
        return BattleEquilibrium(
            effort_a=base.effort_a,
            effort_b=base.effort_b,
            win_prob_a=win,
            payoff_a=pa,
            payoff_b=pb,
            gain_ratio_a=pa / delta_a,
            gain_ratio_b=pb / delta_b,
        )
    raise UnsupportedKindError(f"no battle solver for kind {sf.kind}")


def _competitive_gain(sf: SuccessFunction, da, db):
    """Pi*(da, db) for positive stakes: da * phi(da / db) for homogeneous kinds."""
    if sf.homogeneous:
        return da * sf.phi(da / db)
    if not isinstance(da, np.ndarray):
        return solve_battle(sf, da, db).payoff_a
    return np.array([solve_battle(sf, a, b).payoff_a for a, b in zip(da.tolist(), db.tolist())])


def battle_gain(sf: SuccessFunction, da, db):
    """Battle payoff over the losing continuation at winning stakes (da, db).

    The one rule for every stake pair, elementwise on arrays:

    * both stakes positive: the equilibrium payoff Pi*(da, db);
    * only da positive: the opponent does not compete and the player keeps
      da * win_limit at zero effort;
    * only db positive: the player does not compete and gains nothing;
    * neither positive: a zero-effort fair coin, worth da / 2.

    ``battle_detail`` gives the efforts and odds of the same rule.  Scalars
    take a cheap path with the array path's bits.
    """
    if not isinstance(da, np.ndarray):
        if da > 0.0 and db > 0.0:
            return _competitive_gain(sf, da, db)
        return da * (sf.win_limit if da > 0.0 else 0.0 if db > 0.0 else 0.5)
    da = np.asarray(da, dtype=float)
    db = np.asarray(db, dtype=float)
    if da.min(initial=1.0) > 0.0 and db.min(initial=1.0) > 0.0:  # NaN fails too
        return _competitive_gain(sf, da, db)
    # off the both-positive case the gain is linear in da
    out = np.where(da > 0.0, sf.win_limit, np.where(db > 0.0, 0.0, 0.5)) * da
    both = (da > 0.0) & (db > 0.0)
    if np.any(both):
        out[both] = _competitive_gain(sf, da[both], db[both])
    return out


def battle_detail(sf: SuccessFunction, da, db):
    """Efforts and A's win probability at stake arrays (da, db).

    The effort and odds half of ``battle_gain``'s rule: off the both-positive
    case nobody exerts effort, the side with a stake wins with the limit odds
    and an idle battle is a fair coin.
    """
    effort_a, effort_b = np.zeros((2, len(da)))
    win = np.where(da > 0.0, sf.win_limit, np.where(db > 0.0, 1.0 - sf.win_limit, 0.5))
    both = (da > 0.0) & (db > 0.0)
    if sf.homogeneous:
        _, effort_a[both], effort_b[both], win[both] = _homogeneous_battle(sf, da[both], db[both])
        return effort_a, effort_b, win
    for i in np.flatnonzero(both):
        eq = solve_battle(sf, da[i], db[i])
        effort_a[i], effort_b[i], win[i] = eq.effort_a, eq.effort_b, eq.win_prob_a
    return effort_a, effort_b, win


def augmented_gain(sf: SuccessFunction, delta_prime: float, delta: float) -> float:
    """Equilibrium battle payoff Pi*(delta_prime, delta), extended to zero stakes.

    Continuous on the closed quadrant: against a vanishing opponent stake the
    payoff is delta_prime * win_limit, the exact limit for every kind, and
    a player without a stake gains nothing.  This is ``battle_gain`` on
    nonnegative stakes.
    """
    if not (delta_prime >= 0.0 and delta >= 0.0):
        raise DomainError("stakes must be nonnegative")
    return battle_gain(sf, delta_prime, delta)


def psi(sf: SuccessFunction, theta: float) -> float:
    """The streak map theta * phi(theta) / (1 - phi(1/theta)).

    Strictly increasing with psi(theta) < theta for theta > 0.
    """
    if not theta > 0.0:
        raise DomainError("psi requires theta > 0")
    return theta * sf.phi(theta) / sf.phi_complement(1.0 / theta)


def psi_inverse(sf: SuccessFunction, y: float) -> float:
    """Invert the streak map by bracket expansion plus bracketed root finding."""
    if not 0.0 < y < math.inf:
        raise DomainError("psi_inverse requires a finite y > 0")
    lo = y  # psi(t) < t, so psi(lo) - y < 0
    hi = 2.0 * max(y, 1.0)
    while psi(sf, hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("psi_inverse bracket expansion exceeded overflow guard")
    return _brentq(lambda t: psi(sf, t) - y, lo, hi, xtol=1e-300)


# ---------------------------------------------------------------------------
# Text grammar:  kind, colon, comma-separated key=value pairs.
#   tullock:r=1 | serial:alpha=0.5 | ratio:pow,alpha=0.8 |
#   ratio:powsum,alpha=0.6,beta=0.9 | noisy:q=0.7,base=tullock:r=1
# For the noisy kind the base must be the final key.
# ---------------------------------------------------------------------------


def parse_sf(text: str) -> SuccessFunction:
    """Parse a success-function specification string; a key the kind does
    not read is refused."""
    text = text.strip()
    if ":" not in text:
        raise DomainError(f"malformed success-function spec {text!r}")
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind == "tullock":
        kv = _parse_pairs(rest)
        sf = Tullock(r=_pop_float(kv, "r", text))
    elif kind == "serial":
        kv = _parse_pairs(rest)
        sf = Serial(alpha=_pop_float(kv, "alpha", text))
    elif kind == "ratio":
        curve, _, pairs = rest.partition(",")
        curve = curve.strip().lower()
        kv = _parse_pairs(pairs)
        if curve == "pow":
            sf = RatioForm(curve="pow", alpha=_pop_float(kv, "alpha", text))
        elif curve == "powsum":
            sf = RatioForm(
                curve="powsum",
                alpha=_pop_float(kv, "alpha", text),
                beta=_pop_float(kv, "beta", text),
            )
        else:
            raise DomainError(f"unknown ratio-form curve {curve!r}")
    elif kind == "noisy":
        marker = "base="
        idx = rest.find(marker)
        if idx < 0:
            raise DomainError(f"noisy spec needs a base= entry: {text!r}")
        base = parse_sf(rest[idx + len(marker):])
        kv = _parse_pairs(rest[:idx].rstrip(","))
        sf = Noisy(base=base, q=_pop_float(kv, "q", text))
    else:
        raise DomainError(f"unknown success-function kind {kind!r}")
    if kv:
        raise DomainError(f"{kind} does not read {', '.join(kv)}= in {text!r}")
    return sf


def _parse_pairs(raw: str) -> dict:
    out = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise DomainError(f"malformed key=value pair {item!r}")
        k, _, v = item.partition("=")
        out[k.strip().lower()] = v.strip()
    return out


def _pop_float(kv: dict, key: str, text: str) -> float:
    if key not in kv:
        raise DomainError(f"spec {text!r} is missing {key}=")
    try:
        return float(kv.pop(key))
    except ValueError as exc:
        raise DomainError(f"non-numeric value for {key} in {text!r}") from exc
