"""Symmetric Markov-perfect-equilibrium value solvers.

Three routes to the same object: exact backward induction for acyclic rules,
closed-form recursions for the tug-of-war (with reset) and consecutive-win
families, and a damped fixed-point engine for arbitrary cyclic rules.  The
closed-form routes double as oracles for the generic engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .automaton import (
    ContestAutomaton,
    ContestSpec,
    build_consecutive_win,
    build_tug_of_war,
    swap_involution,
    terminal_distances,
)
from .errors import (
    ConvergenceError,
    CyclicAutomatonError,
    DomainError,
    UnsupportedKindError,
)
from .success import (
    SuccessFunction,
    battle_gain,
    battle_gain_partials,
    psi,
    psi_inverse,
    solve_battle,
)

__all__ = [
    "StateValues",
    "ValueSolution",
    "solve_finite",
    "solve_tow_closed",
    "solve_consecutive_closed",
    "solve_cyclic",
    "residual",
    "solve",
]

_BRENTQ_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class StateValues:
    """Equilibrium quantities at one nonterminal state."""

    value_a: float
    value_b: float
    stake_a: float
    stake_b: float
    effort_a: float
    effort_b: float
    win_prob_a: float


@dataclass
class ValueSolution:
    """Per-state equilibrium values with solver provenance.

    ``states`` holds detail rows for nonterminal states; ``values_a`` and
    ``values_b`` cover every state including terminals.  ``residual`` bounds
    the supremum Bellman violation of the reported values.
    """

    method: str
    residual: float
    iterations: int
    prize: float
    start: int
    states: dict
    values_a: dict
    values_b: dict
    labels: dict
    extras: dict = field(default_factory=dict)

    @property
    def v0_a(self) -> float:
        return self.values_a[self.start]

    @property
    def v0_b(self) -> float:
        return self.values_b[self.start]

    def value_pair(self, s: int) -> tuple[float, float]:
        return self.values_a[s], self.values_b[s]

    def to_dict(self) -> dict:
        rows = [
            {
                "id": s,
                "label": self.labels.get(s, f"s{s}"),
                "V_A": sv.value_a,
                "V_B": sv.value_b,
                "x_A": sv.effort_a,
                "x_B": sv.effort_b,
                "p_A": sv.win_prob_a,
            }
            for s, sv in sorted(self.states.items())
        ]
        return {
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
            "prize": self.prize,
            "states": rows,
        }


# ---------------------------------------------------------------------------
# Vectorized battle layer
# ---------------------------------------------------------------------------


class _Layer:
    """The Bellman operator of one automaton, summed over its leg table."""

    def __init__(self, spec: ContestSpec):
        self.spec = spec
        self.legs = legs = spec.automaton.legs
        self.nt = np.flatnonzero(legs.row >= 0)  # the nonterminal states
        # the (row, winner) bucket of each leg: 2 * row + winner code
        self.bucket = 2 * legs.row[legs.src] + legs.win
        self.term_a = np.where(legs.outcome == 0, spec.prize, 0.0)
        self.term_b = np.where(legs.outcome == 1, spec.prize, 0.0)

    def full_vectors(self, values_nt_a, values_nt_b):
        va = self.term_a.copy()
        vb = self.term_b.copy()
        va[self.nt] = values_nt_a
        vb[self.nt] = values_nt_b
        return va, vb

    def stakes(self, va, vb, rows=None):
        """Expected continuations (ea_w, ea_l, eb_w, eb_l) at every row or at
        ``rows``.  Each (row, winner) bucket sums its legs in table order, so
        a row's stakes do not depend on which other rows are evaluated."""
        legs = self.legs
        size = 2 * len(self.nt)
        cont_a = np.bincount(self.bucket, legs.prob * va[legs.tgt], size).reshape(-1, 2)
        cont_b = np.bincount(self.bucket, legs.prob * vb[legs.tgt], size).reshape(-1, 2)
        if rows is not None:
            cont_a, cont_b = cont_a[rows], cont_b[rows]
        return cont_a[:, 0], cont_a[:, 1], cont_b[:, 1], cont_b[:, 0]

    def bellman_update(self, va, vb, rows=None):
        """One application of the equilibrium operator to full value vectors,
        at every row or at ``rows``."""
        ea_w, ea_l, eb_w, eb_l = self.stakes(va, vb, rows)
        da = ea_w - ea_l
        db = eb_w - eb_l
        sf = self.spec.sf
        return ea_l + battle_gain(sf, da, db), eb_l + battle_gain(sf, db, da)


def _lottery_matrices(layer: _Layer):
    """Dense lottery matrices (PA, PB): row i holds the chance over next
    states after A's (B's) win at the i-th nonterminal state."""
    legs = layer.legs
    mats = np.zeros((2, len(layer.nt), len(legs.row)))
    np.add.at(mats, (legs.win, legs.row[legs.src], legs.tgt), legs.prob)
    return mats[0], mats[1]


def _battle_detail(sf: SuccessFunction, da, db):
    """Efforts and A's win probability at stake arrays (da, db).

    Off the both-positive case nobody exerts effort; the side with a stake
    wins with the limit odds and an idle battle is a fair coin.
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


def _assemble(layer: _Layer, method: str, iterations: int, va, vb, stakes=None) -> ValueSolution:
    """Build the solution object (detail rows + exact residual) from value vectors.

    Rows report the given values and take their stakes from the value
    differences.  A closed form may pass ``stakes`` (arrays over
    ``layer.nt``) derived exactly from its own recursion instead.
    """
    spec = layer.spec
    m = spec.automaton
    if stakes is None:
        ea_w, ea_l, eb_w, eb_l = layer.stakes(va, vb)
        stakes = (ea_w - ea_l, eb_w - eb_l)
    da, db = (np.asarray(x, dtype=float) for x in stakes)
    # per state: the stakes, then the efforts and A's win probability
    columns = (layer.nt, da, db, *_battle_detail(spec.sf, da, db))
    rows = {
        s: StateValues(float(va[s]), float(vb[s]), *detail)
        for s, *detail in zip(*(column.tolist() for column in columns))
    }
    res = _bellman_residual(layer, va, vb) if len(layer.nt) else 0.0
    return ValueSolution(
        method=method,
        residual=res,
        iterations=iterations,
        prize=spec.prize,
        start=m.start,
        states=rows,
        values_a={s: float(va[s]) for s in range(m.n)},
        values_b={s: float(vb[s]) for s in range(m.n)},
        labels=dict(m.labels),
        extras={"sf": spec.sf},
    )


# ---------------------------------------------------------------------------
# Exact backward induction (acyclic rules)
# ---------------------------------------------------------------------------


def solve_finite(spec: ContestSpec) -> ValueSolution:
    """Backward induction by levels (acyclic rules).

    Each pass applies the Bellman operator to the states whose every leg
    ends at a terminal or at a state already solved, so the values are the
    operator's own and the residual is exactly zero.
    """
    layer = _Layer(spec)
    legs = layer.legs
    va, vb = layer.full_vectors(0.0, 0.0)
    done = legs.row < 0  # terminals are solved from the start
    while not done.all():
        waiting = np.bincount(legs.src[~done[legs.tgt]], minlength=len(done)) > 0
        ready = np.flatnonzero(~done & ~waiting)
        if not len(ready):
            raise CyclicAutomatonError(
                "automaton contains cycles; use the cyclic fixed-point solver"
            )
        va[ready], vb[ready] = layer.bellman_update(va, vb, legs.row[ready])
        done[ready] = True
    return _assemble(layer, "backward", 0, va, vb)


# ---------------------------------------------------------------------------
# Closed-form tug-of-war (with reset lottery)
# ---------------------------------------------------------------------------


def solve_tow_closed(
    n: int,
    reset_p: float = 0.0,
    head_start: int = 0,
    sf: SuccessFunction | None = None,
    prize: float = 1.0,
) -> ValueSolution:
    """Constructive recursion for the tug-of-war value function.

    Builds the normalized post-battle value gaps outward from the center:
    the gap ratio at each ring is pinned down by inverting the streak map,
    after which the boundary conditions fix a unique affine scaling.
    Post-lottery (decision-node) values follow from the reset mixture.
    """
    sf = sf if sf is not None else _default_sf()
    if not sf.homogeneous:
        raise UnsupportedKindError(
            "closed-form tug-of-war requires a homogeneous success function"
        )
    m = build_tug_of_war(n, reset_p, head_start)
    spec = ContestSpec(m, sf, prize)
    p = float(reset_p)
    n = int(n)

    # Normalized post-battle value gaps relative to the center, tracked as
    # strictly positive increments: gap[k] = sum d_plus[1..k] above the center
    # and h[k] = sum d_minus[1..k] below it.  The increment form avoids the
    # catastrophic cancellation of differencing near-equal absolute gaps; the
    # increments themselves shrink double-exponentially and may saturate to
    # zero, which matches the true values to float resolution.
    phi1 = sf.phi(1.0)
    d_plus = [math.nan, 1.0 - phi1]  # 1-indexed
    d_minus = [math.nan, phi1]
    gap = [0.0, 1.0 - phi1]
    h = [0.0, phi1]
    thetas = [math.nan]  # thetas[k] = win/loss gap ratio at ring k
    # Without the reset term the increment ratio is a pure product, so a
    # log-space twin keeps it exact long after the increments underflow.
    use_logs = p == 0.0
    log_ratio = math.log1p(-phi1) - math.log(phi1)
    ring_log_ratio = [log_ratio] if use_logs else None
    for k in range(1, n):
        if use_logs:
            ratio = math.exp(log_ratio) if log_ratio < 700.0 else math.inf
        else:
            num = d_plus[k] + p * gap[k - 1]
            den = d_minus[k] + p * h[k - 1]
            ratio = num / den if den > 0.0 else math.inf
        if ratio > 1e290 or not math.isfinite(ratio):
            theta_k = math.inf
            fl, comp = 1.0, 0.0  # phi and its complement at +inf
            flbar, compbar = 0.0, 1.0  # phi and complement at 0
            if use_logs and math.isfinite(log_ratio):
                # beyond float range the streak map is identity to first
                # order, so the ring ratio itself stands in for theta
                try:
                    log_ratio += (
                        sf.log_phi_complement_at_log(log_ratio)
                        - sf.log_phi_at_log(log_ratio)
                        + sf.log_phi_complement_at_log(-log_ratio)
                        - sf.log_phi_at_log(-log_ratio)
                    )
                except UnsupportedKindError:
                    log_ratio = math.inf
            else:
                log_ratio = math.inf
        else:
            theta_k = psi_inverse(sf, ratio)
            fl = float(sf.phi(theta_k))
            comp = float(sf.phi_complement(theta_k))
            flbar = float(sf.phi(1.0 / theta_k))
            compbar = float(sf.phi_complement(1.0 / theta_k))
            if use_logs:
                log_ratio += (
                    sf.log_phi_complement(theta_k)
                    - sf.log_phi(theta_k)
                    + sf.log_phi_complement(1.0 / theta_k)
                    - sf.log_phi(1.0 / theta_k)
                )
        thetas.append(theta_k)
        if use_logs:
            ring_log_ratio.append(log_ratio)
        d_plus.append((d_plus[k] * (comp + p * fl) + p * gap[k - 1]) / ((1.0 - p) * fl))
        d_minus.append(
            (flbar * (d_minus[k] + p * h[k - 1]) + p * compbar * h[k]) / ((1.0 - p) * compbar)
        )
        gap.append(gap[k] + d_plus[k + 1])
        h.append(h[k] + d_minus[k + 1])
    span = gap[n] + h[n]
    tilde = {i: (gap[i] + h[n]) / span for i in range(0, n + 1)}  # post-battle values
    if p == 0.0:
        # deep-laggard values decay double-exponentially; suffix sums of the
        # increments keep them positive where prefix differences cancel
        tail = 0.0
        tilde[-n] = 0.0
        for i in range(n - 1, 0, -1):
            tail += d_minus[i + 1]
            tilde[-i] = tail / span
    else:
        tilde.update({-i: (h[n] - h[i]) / span for i in range(1, n + 1)})
    center = tilde[0]
    decision = {}
    for i in range(-n, n + 1):
        if abs(i) == n:
            decision[i] = tilde[i]
        else:
            decision[i] = (tilde[i] - p * center) / (1.0 - p)

    va = np.zeros(m.n)
    vb = np.zeros(m.n)
    for i in range(-n, n + 1):
        s = i + n
        va[s] = prize * decision[i]
        vb[s] = prize * decision[-i]
    # battle stakes come from the ring increments: differencing the stored
    # values cannot resolve stakes at saturated leads, and a mixed zero/tiny
    # classification there would even break absorption
    scale = prize / span
    stakes_a, stakes_b = [], []
    for i in range(-(n - 1), n):  # the nonterminal states in id order
        k = abs(i)
        if k == 0:
            sa = sb = (d_plus[1] + d_minus[1]) * scale
        else:
            lead = (d_plus[k + 1] + d_plus[k]) * scale
            lag = (d_minus[k + 1] + d_minus[k]) * scale
            sa, sb = (lead, lag) if i > 0 else (lag, lead)
        stakes_a.append(sa)
        stakes_b.append(sb)
    out = _assemble(_Layer(spec), "closed_tow", 0, va, vb, stakes=(stakes_a, stakes_b))
    out.extras.update(
        delta_plus=d_plus[1:],
        delta_minus=d_minus[1:],
        ring_theta=thetas[1:],
        ring_log_ratio=ring_log_ratio,
        gap_scale=span,
    )
    return out


# ---------------------------------------------------------------------------
# Closed-form consecutive-win contest
# ---------------------------------------------------------------------------


def _iterated_psi(sf: SuccessFunction, r: float, times: int) -> float:
    x = r
    for _ in range(times):
        if x < 1e-300:
            # the iterates contract toward zero; further steps stay there
            return 0.0
        x = psi(sf, x)
    return x


def streak_root(sf: SuccessFunction, k: int) -> float:
    """The unique r >= 1 with the (k-1)-fold streak map sending r to 1."""
    if k == 1:
        return 1.0
    lo, hi = 1.0, 2.0
    while _iterated_psi(sf, hi, k - 1) < 1.0:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceError("streak-root bracket expansion overflowed")
    return float(
        brentq(
            lambda r: _iterated_psi(sf, r, k - 1) - 1.0,
            lo,
            hi,
            rtol=_BRENTQ_RTOL,
            xtol=1e-300,
        )
    )


def solve_consecutive_closed(
    k: int, sf: SuccessFunction | None = None, prize: float = 1.0
) -> ValueSolution:
    """Closed-form consecutive-win values via the streak-root reduction.

    The two pivotal values (after one loss, after one win) solve a scalar
    fixed point: the win/loss gap ratio must return to 1 after k-1
    applications of the streak map.  All remaining values follow from the
    two-sided iterates toward the boundary.
    """
    sf = sf if sf is not None else _default_sf()
    if not sf.homogeneous:
        raise UnsupportedKindError(
            "closed-form consecutive-win requires a homogeneous success function"
        )
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    k = int(k)
    spec = ContestSpec(build_consecutive_win(k), sf, prize)
    m = spec.automaton

    rho = streak_root(sf, k)
    prod = 1.0
    x = rho
    for _ in range(k - 1):
        prod *= sf.phi_complement(1.0 / x)
        x = psi(sf, x)
    w = prize / (1.0 + rho - prod)
    u = prize - rho * w

    values = {k: prize, -k: 0.0}
    a, b = 0.0, prize
    for j in range(1, k):
        a, b = (
            a + (w - a) * sf.phi((w - a) / (b - u)),
            u + (b - u) * sf.phi((b - u) / (w - a)),
        )
        values[-k + j] = a
        values[k - j] = b
    values[0] = u + (w - u) * sf.phi(1.0) if k > 1 else sf.phi(1.0) * prize
    if k > 1:
        # the iterates terminate exactly at the pivotal pair
        values[-1] = u
        values[1] = w

    va = np.zeros(m.n)
    vb = np.zeros(m.n)
    for i in range(-k, k + 1):
        s = i + k
        va[s] = values[i]
        vb[s] = values[-i]
    out = _assemble(_Layer(spec), "closed_cw", 0, va, vb)
    out.extras.update(streak_root=rho, survival_product=prod)
    return out


# ---------------------------------------------------------------------------
# Damped fixed-point engine (general cyclic rules)
# ---------------------------------------------------------------------------


def solve_cyclic(
    spec: ContestSpec,
    damping: float = 0.5,
    tol: float | None = None,
    max_iter: int = 10**6,
) -> ValueSolution:
    """Damped sweep iteration of the equilibrium operator.

    Each iteration updates every nonterminal state's battle against the
    freshest continuation values (chance-averaged over lotteries), sweeping
    from the states nearest a terminal inward so that boundary information
    crosses the whole graph every pass.  Values move a fraction ``damping``
    toward each update.  Checkpoints (sweep 50, 100, 200, ... of a phase, or
    a stalled sweep) run a quasi-Newton candidate search from the iterate,
    the phase's first one also from flat profiles.  The operator also admits
    mutual-discouragement fixed points (idle interior battles, flat values);
    their basins are escaped by restarting the sweeps from flat low-value
    profiles, and a phase that ends without an answer gets one trust-region
    least-squares rescue.  A verified competitive (active-interior) fixed
    point is returned at once, an idle one only when no phase finds a
    competitive one.  Stops once the supremum Bellman residual reaches
    ``tol`` (default 1e-12 times the prize).
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError("damping must lie in (0, 1]")
    if tol is None:
        tol = 1e-12 * spec.prize
    m = spec.automaton
    layer = _Layer(spec)
    nt = layer.nt
    if not len(nt):
        va, vb = layer.full_vectors(np.zeros(0), np.zeros(0))
        return _assemble(layer, "fixed_point", 0, va, vb)
    # With a player-swap involution the symmetric equilibrium satisfies
    # V_B = V_A o sigma; enforcing it keeps the iteration away from the
    # asymmetric discouragement profiles the operator also admits.
    sigma = swap_involution(m)
    perm = np.array([sigma[s] for s in range(m.n)]) if sigma is not None else None
    # dense lottery rows: their dot products decide which fixed point the
    # sweeps reach where several exist
    PA, PB = _lottery_matrices(layer)
    order = [(s, layer.legs.row[s]) for s in _sweep_order(m)]
    sf = spec.sf
    prize = spec.prize

    def finish(fa, fb, iterations):
        return _assemble(layer, "fixed_point", iterations, fa, fb)

    phase_inits = [None, 0.05, 0.25, 0.45]  # None = position-interpolated
    phase_budget = 800
    iterations = 0
    res = math.inf
    fallback = None  # best verified idle-interior fixed point
    for init_level in phase_inits:
        if init_level is None:
            va, vb = layer.full_vectors(*_initial_values(m, prize))
        else:
            flat = np.full(len(nt), init_level * prize)
            va, vb = layer.full_vectors(flat, flat.copy())
        if sigma is not None:
            vb = va[perm].copy()
        phase_sweeps = 0
        next_search = 50
        ran_multistart = False
        while phase_sweeps < phase_budget and iterations < max_iter:
            lam = 1.0 if phase_sweeps == 0 else damping  # pure first sweep seeds the basin
            sweep_delta = 0.0
            for s, i in order:
                ea_w = float(PA[i] @ va)
                ea_l = float(PB[i] @ va)
                eb_w = float(PB[i] @ vb)
                eb_l = float(PA[i] @ vb)
                ua = ea_l + battle_gain(sf, ea_w - ea_l, eb_w - eb_l)
                new_a = (1.0 - lam) * va[s] + lam * ua
                sweep_delta = max(sweep_delta, abs(new_a - va[s]))
                va[s] = new_a
                if sigma is not None:
                    vb[sigma[s]] = new_a
                else:
                    ub = eb_l + battle_gain(sf, eb_w - eb_l, ea_w - ea_l)
                    new_b = (1.0 - lam) * vb[s] + lam * ub
                    sweep_delta = max(sweep_delta, abs(new_b - vb[s]))
                    vb[s] = new_b
            phase_sweeps += 1
            iterations += 1
            checkpoint = sweep_delta <= tol or phase_sweeps >= next_search
            if not checkpoint:
                continue
            if phase_sweeps >= next_search:
                next_search *= 2
            here = _bellman_residual(layer, va, vb)
            res = min(res, here)
            if here <= tol:
                if not _has_idle_interior(layer, va, vb):
                    return finish(va, vb, iterations)
                if fallback is None:
                    fallback = (va.copy(), vb.copy(), here)
                break  # idle basin: restart from the next flat level
            # the flat starts are iterate independent, so one pass per phase
            candidates = _newton_candidates(
                layer, va, vb, tol, perm, current_only=ran_multistart
            )
            ran_multistart = True
            # the search stops at its first active candidate; the rest are idle
            if candidates and not _has_idle_interior(layer, *candidates[-1][:2]):
                return finish(*candidates[-1][:2], iterations)
            for idle in candidates:
                if fallback is None or idle[2] < fallback[2]:
                    fallback = idle
        if iterations >= max_iter:
            break
        # phase budget exhausted or idle basin reached: one trust-region rescue
        polished = _analytic_polish(layer, va, vb, tol, perm)
        if polished is not None:
            if not _has_idle_interior(layer, polished[0], polished[1]):
                return finish(polished[0], polished[1], iterations)
            if fallback is None or polished[2] < fallback[2]:
                fallback = polished
    if fallback is not None:
        # only mutual-discouragement equilibria were found; report the best
        return finish(fallback[0], fallback[1], iterations)
    raise ConvergenceError(
        f"fixed-point iteration stalled at residual {res:.3e} "
        f"after {iterations} iterations (tol {tol:.3e})",
        residual=res,
    )


def _unknowns(layer: _Layer, va, vb, perm):
    """The root system's unknowns: A's nonterminal values under the swap
    involution ``perm``, both players' otherwise."""
    nt = layer.nt
    return va[nt] if perm is not None else np.concatenate([va[nt], vb[nt]])


def _expand(layer: _Layer, x, perm):
    """Full value vectors from the unknowns of ``_unknowns``."""
    size = len(layer.nt)
    if perm is None:
        return layer.full_vectors(x[:size], x[size:])
    # the involution swaps winners, so it also maps terminal values
    fa, _ = layer.full_vectors(x[:size], x[:size])
    return fa, fa[perm]


def _root_residual(x, layer: _Layer, perm):
    """x - T(x) over the unknowns.  With the involution only A's rows are
    unknowns, so B's battles are skipped; A's rows equal the A half of
    ``bellman_update``."""
    size = len(layer.nt)
    sf = layer.spec.sf
    ea_w, ea_l, eb_w, eb_l = layer.stakes(*_expand(layer, x, perm))
    da = ea_w - ea_l
    db = eb_w - eb_l
    res_a = x[:size] - (ea_l + battle_gain(sf, da, db))
    if perm is not None:
        return res_a
    return np.concatenate([res_a, x[size:] - (eb_l + battle_gain(sf, db, da))])


def _verified(layer: _Layer, x, perm, tol: float):
    """Full value vectors and residual of a root-search result clipped to
    [0, prize], or None when it is infeasible or misses ``tol``.  A NaN fails
    the feasibility test."""
    prize = layer.spec.prize
    fa, fb = _expand(layer, np.clip(x, 0.0, prize), perm)
    if not np.all(fa + fb <= prize * (1.0 + 1e-9)):
        return None
    res = _bellman_residual(layer, fa, fb)
    return (fa, fb, res) if res <= tol else None


def _analytic_polish(layer: _Layer, va, vb, tol: float, perm):
    """Trust-region least squares on V - T(V) with the exact battle-gain Jacobian.

    Homogeneous technologies only.  Jacobian column scaling resolves
    instances whose interior couples to the boundary only weakly (nearly
    singular Jacobians), where the quasi-Newton search stalls.  Returns
    verified full value vectors and residual, or None.
    """
    from scipy.optimize import least_squares

    sf = layer.spec.sf
    if not sf.homogeneous:
        return None
    nt_idx = layer.nt
    size = len(nt_idx)
    PA, PB = _lottery_matrices(layer)
    DA = PA - PB  # row i dotted with values gives player A's stake

    def jac(x):
        ea_w, ea_l, eb_w, eb_l = layer.stakes(*_expand(layer, x, perm))
        da = ea_w - ea_l
        db = eb_w - eb_l
        gda, gdb = battle_gain_partials(sf, da, db)
        d_fa = PB[:, nt_idx] + gda[:, None] * DA[:, nt_idx]
        if perm is not None:
            d_fb = -gdb[:, None] * DA[:, perm[nt_idx]]
            return np.eye(size) - (d_fa + d_fb)
        d_fb = -gdb[:, None] * DA[:, nt_idx]
        own_b, cross_b = battle_gain_partials(sf, db, da)
        d_fb_own = PA[:, nt_idx] - own_b[:, None] * DA[:, nt_idx]
        d_fa_cross = cross_b[:, None] * DA[:, nt_idx]
        top = np.hstack([np.eye(size) - d_fa, -d_fb])
        bottom = np.hstack([-d_fa_cross, np.eye(size) - d_fb_own])
        return np.vstack([top, bottom])

    try:
        sol = least_squares(
            lambda x: _root_residual(x, layer, perm), _unknowns(layer, va, vb, perm),
            jac=jac, method="trf", x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15,
            max_nfev=6000,
        )
    except Exception:  # noqa: BLE001 - refinement is best-effort
        return None
    return _verified(layer, sol.x, perm, tol)


def _has_idle_interior(layer: _Layer, va, vb) -> bool:
    """Detect mutual-discouragement profiles: an interior state where both
    stakes vanish while neither player's value is near the prize (genuine
    one-sided saturation keeps the leader's value at the prize)."""
    prize = layer.spec.prize
    ea_w, ea_l, eb_w, eb_l = layer.stakes(va, vb)
    da = ea_w - ea_l
    db = eb_w - eb_l
    idle = (da <= 1e-6 * prize) & (db <= 1e-6 * prize)
    if not np.any(idle):
        return False
    values = np.maximum(va[layer.nt], vb[layer.nt])
    return bool(np.any(idle & (values < 0.9 * prize)))


def _bellman_residual(layer: _Layer, va, vb) -> float:
    nt = layer.nt
    ua, ub = layer.bellman_update(va, vb)
    return max(
        float(np.max(np.abs(ua - va[nt]))),
        float(np.max(np.abs(ub - vb[nt]))),
    )


def _newton_candidates(layer: _Layer, va, vb, tol: float, perm, current_only: bool = False):
    """Verified fixed points found by quasi-Newton (``hybr``) from a handful of starts.

    The starts span several dissipation scales: the sweep iterate itself,
    then, unless ``current_only``, flat profiles.  Returns the candidates
    whose Bellman residual is within tolerance; the search stops early at
    the first one whose interior battles are active.  With a swap involution
    the root system is reduced to player A's values, which keeps the search
    on symmetric profiles.  Deterministic by construction.
    """
    from scipy.optimize import root

    current = _unknowns(layer, va, vb, perm)
    starts = [current]
    if not current_only:
        prize = layer.spec.prize
        starts.extend(
            np.full(len(current), level * prize) for level in (0.2, 0.05, 0.35, 0.02, 0.5)
        )
    budget = 40 * (len(current) + 1)
    found = []
    for x0 in starts:
        try:
            sol = root(
                _root_residual, x0, args=(layer, perm), method="hybr", tol=1e-14,
                options={"maxfev": budget},
            )
        except Exception:  # noqa: BLE001 - the search is best-effort
            continue
        candidate = _verified(layer, sol.x, perm, tol)
        if candidate is not None:
            found.append(candidate)
            if not _has_idle_interior(layer, *candidate[:2]):
                break
    return found


def _sweep_order(m: ContestAutomaton) -> list:
    """Nonterminal states ordered by battle distance to a terminal, nearest first."""
    depth = terminal_distances(m)
    return sorted(m.nonterminal_states, key=lambda s: (depth.get(s, m.n + 1), s))


def _initial_values(m: ContestAutomaton, prize: float):
    """Feasible starting values: position-interpolated when coordinates exist."""
    nt = m.nonterminal_states
    if m.coords and all(s in m.coords for s in range(m.n)):
        cs = [m.coords[s] for s in range(m.n)]
        lo, hi = min(cs), max(cs)
        span = hi - lo
        if span > 0:
            va = np.array([prize * (m.coords[s] - lo) / span for s in nt])
            vb = np.array([prize * (hi - m.coords[s]) / span for s in nt])
            return va, vb
    half = np.full(len(nt), 0.5 * prize)
    return half, half.copy()


# ---------------------------------------------------------------------------
# Residual and dispatch
# ---------------------------------------------------------------------------


def residual(spec: ContestSpec, values) -> float:
    """Supremum Bellman violation of a candidate value profile.

    ``values`` may be a ValueSolution or a mapping from nonterminal state to
    a (value_a, value_b) pair.  Zero exactly when the profile is a symmetric
    MPE value function.
    """
    layer = _Layer(spec)
    nt = layer.nt.tolist()
    if isinstance(values, ValueSolution):
        pairs = {s: (values.values_a[s], values.values_b[s]) for s in nt}
    else:
        pairs = dict(values)
    missing = [s for s in nt if s not in pairs]
    if missing:
        raise DomainError(f"values missing for nonterminal states {missing}")
    va, vb = layer.full_vectors(
        np.array([pairs[s][0] for s in nt], dtype=float),
        np.array([pairs[s][1] for s in nt], dtype=float),
    )
    return _bellman_residual(layer, va, vb) if nt else 0.0


def solve(spec: ContestSpec, **cyclic_options) -> ValueSolution:
    """Route a spec to the best available solver.

    Closed forms cover the tug-of-war and consecutive-win families under
    homogeneous technologies; acyclic rules use backward induction; anything
    else goes to the fixed-point engine.
    """
    m = spec.automaton
    if m.family == "tug_of_war" and spec.sf.homogeneous:
        return solve_tow_closed(
            m.params["n"],
            m.params.get("reset_p", 0.0),
            m.params.get("head_start", 0),
            spec.sf,
            spec.prize,
        )
    if m.family == "consecutive_win" and spec.sf.homogeneous and m.params["k"] > 1:
        return solve_consecutive_closed(m.params["k"], spec.sf, spec.prize)
    try:
        return solve_finite(spec)
    except CyclicAutomatonError:
        return solve_cyclic(spec, **cyclic_options)


def _default_sf() -> SuccessFunction:
    from .success import Tullock

    return Tullock(1.0)
