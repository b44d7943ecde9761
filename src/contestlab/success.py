"""Battle technology: success functions, gain functions, and single-battle equilibria.

A battle is a simultaneous-effort component competition.  Homogeneous
technologies depend on efforts only through their ratio and admit closed-form
equilibria; ratio-form technologies are solved numerically from their
first-order conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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

_BRENTQ_RTOL = 4.0 * np.finfo(float).eps


def _sides(theta, low, high, at_inf=None, power=None):
    """Elementwise ``low`` at ratios up to 1 and ``high`` above 1.

    Each branch sees the ratio on its own side and 1 elsewhere, so neither
    overflows or divides by zero on the other side; with ``power`` p, ``low``
    sees z = ratio^p and ``high`` w = ratio^-p instead, each power taken
    once.  ``at_inf``, when given, is the value at theta = +inf.  A float
    ratio evaluates its own side only, in the array path's 0-d arithmetic.
    """
    if isinstance(theta, float):
        if theta <= 1.0:
            return float(low(theta if power is None else np.power(theta, power)))
        if at_inf is not None and theta == math.inf:
            return at_inf
        return float(high(theta if power is None else np.power(theta, -power)))
    th = np.asarray(theta, dtype=float)
    small = th <= 1.0
    lo, hi = np.where(small, th, 1.0), np.where(small, 1.0, th)
    if power is not None:
        lo, hi = lo**power, hi ** (-power)
    out = np.where(small, low(lo), high(hi))
    if at_inf is not None:
        out = np.where(th == np.inf, at_inf, out)
    return float(out) if np.ndim(theta) == 0 else out


class SuccessFunction:
    """Common interface of all battle technologies."""

    homogeneous = False

    # Limits against a vanishing opponent stake: both efforts vanish and the
    # win probability tends to 1, so the whole stake is kept.  Every kind
    # states them exactly, with no numeric probe; ``battle_gain`` pays
    # gain_limit * d' in every one-sided battle.
    gain_limit = 1.0
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
        """log phi(theta); a kind with no log form of its own raises
        ``UnsupportedKindError`` where the curve underflows to 0."""
        return self._log_of(self.phi(theta), "phi")

    def log_phi_complement(self, theta: float) -> float:
        return self._log_of(self.phi_complement(theta), "1 - phi")

    def _log_of(self, value: float, curve: str) -> float:
        if value == 0.0:
            raise UnsupportedKindError(f"{self.kind} has no log form where {curve} underflows to 0")
        return math.log(value)

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
            lambda t: r * np.power(t, r - 1.0) / (1.0 + np.power(t, r)) ** 2,
            lambda t: r * np.power(t, -r - 1.0) / (1.0 + np.power(t, -r)) ** 2,
        )

    def phi(self, theta):
        r = self.r
        return _sides(
            theta,
            lambda z: z * (1.0 - r + z) / (1.0 + z) ** 2,
            lambda w: np.minimum((1.0 + (1.0 - r) * w) / (1.0 + w) ** 2, _PHI_CAP),
            at_inf=1.0,
            power=r,
        )

    def phi_complement(self, theta):
        r = self.r
        return _sides(
            theta,
            lambda z: (1.0 + (1.0 + r) * z) / (1.0 + z) ** 2,
            lambda w: w * (1.0 + r + w) / (1.0 + w) ** 2,
            at_inf=0.0,
            power=r,
        )

    def log_phi(self, theta: float) -> float:
        if theta >= 1.0:
            return math.log1p(-self.phi_complement(theta))
        z = theta**self.r
        return self.r * math.log(theta) + math.log(1.0 - self.r + z) - 2.0 * math.log1p(z)

    def log_phi_complement(self, theta: float) -> float:
        if theta <= 1.0:
            return math.log1p(-self.phi(theta))
        w = theta ** (-self.r)
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
            lambda w: np.minimum(1.0 - 0.5 * (1.0 + a) * w, _PHI_CAP),
            at_inf=1.0,
            power=a,
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


def _powsum_loggrad(x, a, b):
    return (a * x ** (a - 1.0) + b * x ** (b - 1.0)) / (x**a + x**b)


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
        if self.curve == "pow":
            return self.alpha * x ** (self.alpha - 1.0)
        return self.alpha * x ** (self.alpha - 1.0) + self.beta * x ** (self.beta - 1.0)

    def loggrad(self, x: float) -> float:
        """g'(x)/g(x), strictly decreasing on (0, inf): curve_prime / curve_value, flat."""
        if self.curve == "pow":
            return self.alpha * x ** (self.alpha - 1.0) / x**self.alpha
        return _powsum_loggrad(x, self.alpha, self.beta)

    @property
    def loggrad_range(self) -> tuple[float, float]:
        """Bounds (kmin, kmax) of x g'(x)/g(x); both lie in (0, 1)."""
        if self.curve == "pow":
            return self.alpha, self.alpha
        lo = min(self.alpha, self.beta)
        hi = max(self.alpha, self.beta)
        return lo, hi

    def loggrad_inverse(self, y: float) -> float:
        """Solve g'(x)/g(x) = y for x > 0 by bracketed root finding."""
        if y <= 0.0:
            raise DomainError("loggrad_inverse requires a positive target")
        kmin, kmax = self.loggrad_range
        if kmin == kmax:
            return kmin / y
        lo, hi = kmin / y, kmax / y
        a, b = self.alpha, self.beta  # only powsum with alpha != beta gets here
        return brentq(
            lambda x: _powsum_loggrad(x, a, b) - y, lo, hi, rtol=_BRENTQ_RTOL, xtol=1e-300
        )

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

    @property
    def gain_limit(self) -> float:
        return 0.5 * (1.0 - self.q) + self.q * self.base.gain_limit

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


def eval_gamma(sf: SuccessFunction, theta):
    """Battle win probability as a function of the effort (or stake) ratio."""
    if np.ndim(theta) == 0 and theta < 0:
        raise DomainError("ratio must be nonnegative")
    return sf.gamma(theta)


def phi(sf: SuccessFunction, theta):
    """Gain function: the stake fraction kept as equilibrium battle payoff."""
    if np.ndim(theta) == 0 and theta < 0:
        raise DomainError("ratio must be nonnegative")
    return sf.phi(theta)


def phi_complement(sf: SuccessFunction, theta):
    """1 - phi(theta), accurate even when phi is within rounding of 1."""
    return sf.phi_complement(theta)


def _solve_battle_homogeneous(sf: SuccessFunction, delta_a: float, delta_b: float) -> BattleEquilibrium:
    theta = delta_a / delta_b
    ga = sf.phi(theta)
    gb = sf.phi(1.0 / theta)
    return BattleEquilibrium(
        effort_a=delta_b * sf.gamma_prime(1.0 / theta),
        effort_b=delta_a * sf.gamma_prime(theta),
        win_prob_a=sf.gamma(theta),
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
    full relative precision at lopsided stakes; the inner inversion is a
    bracketed monotone search.
    """

    def probs(log_odds: float) -> tuple[float, float]:
        if log_odds >= 0.0:
            q = math.exp(-log_odds)
            return 1.0 / (1.0 + q), q / (1.0 + q)
        q = math.exp(log_odds)
        return q / (1.0 + q), 1.0 / (1.0 + q)

    def efforts(log_odds: float) -> tuple[float, float]:
        p, one_minus = probs(log_odds)
        c = p * one_minus
        xa = sf.loggrad_inverse(1.0 / (c * delta_a))
        xb = sf.loggrad_inverse(1.0 / (c * delta_b))
        return xa, xb

    def excess(log_odds: float) -> float:
        xa, xb = efforts(log_odds)
        return math.log(sf.curve_value(xa) / sf.curve_value(xb)) - log_odds

    span = 45.0  # win probabilities within 1e-19 of the boundary
    try:
        l_star = brentq(excess, -span, span, rtol=_BRENTQ_RTOL, xtol=1e-14)
    except (ZeroDivisionError, ValueError) as exc:
        # at lopsided stakes a curve value underflows to 0 (division or log
        # of zero) or no log-odds within the span balances the curves
        raise ConvergenceError(
            f"ratio-form FOC solve failed at stakes ({delta_a:.3e}, {delta_b:.3e}): {exc}"
        ) from exc
    p_star, one_minus = probs(l_star)
    xa, xb = efforts(l_star)
    ga, gb = sf.curve_value(xa), sf.curve_value(xb)
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
    """Equilibrium of one battle with winning stakes delta_a, delta_b > 0."""
    if not (delta_a > 0.0 and delta_b > 0.0):
        raise DomainError("battle stakes must be positive")
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
      da * gain_limit at zero effort;
    * only db positive: the player does not compete and gains nothing;
    * neither positive: a zero-effort fair coin, worth da / 2.

    ``battle_detail`` gives the efforts and odds of the same rule.  Scalars
    take a cheap path; its squares go through libm's ``pow``, so a Tullock
    gain can differ from the array path's in its last two bits.
    """
    if not isinstance(da, np.ndarray):
        if da > 0.0 and db > 0.0:
            return _competitive_gain(sf, da, db)
        return da * (sf.gain_limit if da > 0.0 else 0.0 if db > 0.0 else 0.5)
    da = np.asarray(da, dtype=float)
    db = np.asarray(db, dtype=float)
    if da.min(initial=1.0) > 0.0 and db.min(initial=1.0) > 0.0:  # NaN fails too
        return _competitive_gain(sf, da, db)
    # off the both-positive case the gain is linear in da
    out = np.where(da > 0.0, sf.gain_limit, np.where(db > 0.0, 0.0, 0.5)) * da
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
        theta = da[both] / db[both]
        effort_a[both] = db[both] * sf.gamma_prime(1.0 / theta)
        effort_b[both] = da[both] * sf.gamma_prime(theta)
        win[both] = sf.gamma(theta)
        return effort_a, effort_b, win
    for i in np.flatnonzero(both):
        eq = solve_battle(sf, da[i], db[i])
        effort_a[i], effort_b[i], win[i] = eq.effort_a, eq.effort_b, eq.win_prob_a
    return effort_a, effort_b, win


def augmented_gain(sf: SuccessFunction, delta_prime: float, delta: float) -> float:
    """Equilibrium battle payoff Pi*(delta_prime, delta), extended to zero stakes.

    Continuous on the closed quadrant: against a vanishing opponent stake the
    payoff is delta_prime * gain_limit, the exact limit for every kind, and
    a player without a stake gains nothing.  This is ``battle_gain`` on
    nonnegative stakes.
    """
    if delta_prime < 0.0 or delta < 0.0:
        raise DomainError("stakes must be nonnegative")
    return battle_gain(sf, delta_prime, delta)


def psi(sf: SuccessFunction, theta: float) -> float:
    """The streak map theta * phi(theta) / (1 - phi(1/theta)).

    Strictly increasing with psi(theta) < theta for theta > 0.
    """
    if theta <= 0.0:
        raise DomainError("psi requires theta > 0")
    return theta * sf.phi(theta) / sf.phi_complement(1.0 / theta)


def psi_inverse(sf: SuccessFunction, y: float) -> float:
    """Invert the streak map by bracket expansion plus bracketed root finding."""
    if y <= 0.0:
        raise DomainError("psi_inverse requires y > 0")
    lo = y  # psi(t) < t, so psi(lo) - y < 0
    hi = 2.0 * max(y, 1.0)
    while psi(sf, hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("psi_inverse bracket expansion exceeded overflow guard")
    root = brentq(lambda t: psi(sf, t) - y, lo, hi, rtol=_BRENTQ_RTOL, xtol=1e-300)
    return float(root)


# ---------------------------------------------------------------------------
# Text grammar:  kind, colon, comma-separated key=value pairs.
#   tullock:r=1 | serial:alpha=0.5 | ratio:pow,alpha=0.8 |
#   ratio:powsum,alpha=0.6,beta=0.9 | noisy:q=0.7,base=tullock:r=1
# For the noisy kind the base must be the final key.
# ---------------------------------------------------------------------------


def parse_sf(text: str) -> SuccessFunction:
    """Parse a success-function specification string."""
    text = text.strip()
    if ":" not in text:
        raise DomainError(f"malformed success-function spec {text!r}")
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind == "tullock":
        kv = _parse_pairs(rest)
        return Tullock(r=_pop_float(kv, "r", text))
    if kind == "serial":
        kv = _parse_pairs(rest)
        return Serial(alpha=_pop_float(kv, "alpha", text))
    if kind == "ratio":
        parts = rest.split(",")
        curve = parts[0].strip().lower()
        kv = _parse_pairs(",".join(parts[1:])) if len(parts) > 1 else {}
        if curve == "pow":
            return RatioForm(curve="pow", alpha=_pop_float(kv, "alpha", text))
        if curve == "powsum":
            return RatioForm(
                curve="powsum",
                alpha=_pop_float(kv, "alpha", text),
                beta=_pop_float(kv, "beta", text),
            )
        raise DomainError(f"unknown ratio-form curve {curve!r}")
    if kind == "noisy":
        marker = "base="
        idx = rest.find(marker)
        if idx < 0:
            raise DomainError(f"noisy spec needs a base= entry: {text!r}")
        base = parse_sf(rest[idx + len(marker):])
        kv = _parse_pairs(rest[:idx].rstrip(","))
        return Noisy(base=base, q=_pop_float(kv, "q", text))
    raise DomainError(f"unknown success-function kind {kind!r}")


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
