"""Symmetric Markov-perfect-equilibrium value solvers.

Three routes to the same object: exact backward induction for acyclic rules,
closed-form recursions for the tug-of-war (with reset) and consecutive-win
families, and a damped fixed-point engine for arbitrary cyclic rules.  The
closed-form routes double as oracles for the generic engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .automaton import (
    ContestAutomaton,
    ContestSpec,
    _canonical,
    _levels,
    _same_form,
    _summed,
    _terminal_hops,
    build_consecutive_win,
    build_tug_of_war,
    swap_involution,
)
from .errors import (
    ContestError,
    ConvergenceError,
    CyclicAutomatonError,
    DomainError,
    UnsupportedKindError,
)
from .success import (
    SuccessFunction,
    Tullock,
    _brentq,
    battle_detail,
    battle_gain,
    psi,
    psi_inverse,
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

    def to_dict(self) -> dict:
        rows = [
            {
                "id": s,
                "label": self.labels[s],
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


class _Verdict(NamedTuple):
    """``_Layer.verdict`` of one value profile."""

    da: np.ndarray
    db: np.ndarray
    residual: float
    idle: bool


class _Layer:
    """The Bellman operator of one automaton, summed over its leg table.

    Its unknowns x are both players' nonterminal values, A's rows then B's,
    or under a swap involution ``perm`` A's alone, B's value at a state
    being A's at its image.  Each state's value is an index into
    z = (0, prize, x_0, x_1, ...), ``at_a`` for A's and ``at_b`` for B's.
    Each unknown sums, in table order, its own player's continuations after
    its own win and loss and the opponent's after the opponent's win and
    loss.  A stack lays its profiles' legs end to end, own sides first, so
    one gather, one ``bincount`` and one ``battle_gain`` call give every row
    the bits of a one-profile call.
    """

    def __init__(self, spec: ContestSpec, perm=None):
        self.spec = spec
        legs = spec.automaton.legs
        nt = legs.row >= 0
        self.nt = np.flatnonzero(nt)  # the nonterminal states
        size = len(self.nt)
        self.ends = np.array([0.0, spec.prize])
        self.at_a = np.where(nt, 2 + legs.row, legs.outcome == 0)
        if perm is None:
            self.at_b = np.where(nt, 2 + size + legs.row, legs.outcome == 1)
        else:  # the involution swaps winners, so it also maps terminal values
            self.at_b = self.at_a[perm]
        row, win = legs.row[legs.src], legs.win
        a, b = self.at_a[legs.tgt], self.at_b[legs.tgt]
        self.legs = (row, win, legs.prob, a, b)  # each leg's row, winner, chance, indices
        sides = [(row, win, a, b)]
        if perm is None:  # B's unknowns read the same legs the other way round
            sides.append((size + row, 1 - win, b, a))
        unknown, lost, own, opp = (np.concatenate(column) for column in zip(*sides))
        self.width = len(sides) * size
        # each leg's chance, value indices and buckets: 2 * unknown, plus 1
        # for the own sums after the player's loss and the opponent's sums
        # after the opponent's loss
        prob = np.tile(legs.prob, len(sides))
        self.sides = (prob, own, opp, 2 * unknown + lost, 2 * unknown + 1 - lost)
        self.stack_rows = max(1, _STACK_LEGS // max(1, len(own)))
        self._stacks = {}

    def _stack(self, k: int):
        """``sides`` for k profiles laid end to end as one chance, value
        index and bucket array: the own sides, then the opponent sides,
        whose buckets follow the own sides' 2 * width * k."""
        if k not in self._stacks:
            prob, own, opp, b_own, b_opp = self.sides
            step = self.width * np.arange(k)[:, None]
            self._stacks[k] = (
                np.tile(prob, 2 * k),
                np.concatenate([own + step * (own >= 2), opp + step * (opp >= 2)]).ravel(),
                np.concatenate([b_own + 2 * step, b_opp + 2 * (step + self.width * k)]).ravel(),
            )
        return self._stacks[k]

    def stakes(self, xs):
        """Each unknown's own sum after its player's loss and its (own,
        opponent) stakes, over the rows of ``xs`` (k x width) end to end."""
        z = np.concatenate((self.ends, xs.ravel()))
        prob, at, bucket = self._stack(len(xs))
        # (own, opponent) x unknowns x (after a win, after a loss)
        sums = np.bincount(bucket, prob * z[at], 4 * xs.size).reshape(2, -1, 2)
        stake = sums[..., 0] - sums[..., 1]
        return sums[0, :, 1], stake[0], stake[1]

    def __call__(self, xs):
        """x - T(x) at each row of ``xs`` (k x width)."""
        loss, own, opp = self.stakes(xs)
        return (xs.ravel() - (loss + battle_gain(self.spec.sf, own, opp))).reshape(xs.shape)

    def vectors(self, x):
        """Full value vectors (va, vb) of one profile of unknowns."""
        z = np.concatenate((self.ends, x))
        return z[self.at_a], z[self.at_b]

    def verdict(self, va, vb) -> _Verdict:
        """The stakes (da, db) at every row of full value vectors, the
        supremum Bellman residual (NaN if any gap is NaN, 0 without rows) and
        whether the profile idles: some row where both stakes vanish while
        neither value is near the prize (genuine one-sided saturation keeps
        the leader's at the prize).  Judges B's rows too: no involution."""
        nt, prize = self.nt, self.spec.prize
        x = np.concatenate([va[nt], vb[nt]])
        loss, own, opp = self.stakes(x[None])
        gaps = np.abs(x - (loss + battle_gain(self.spec.sf, own, opp)))
        da, db = own[: len(nt)], opp[: len(nt)]
        idle = (da <= 1e-6 * prize) & (db <= 1e-6 * prize)
        idle &= np.maximum(va[nt], vb[nt]) < 0.9 * prize
        return _Verdict(da, db, float(np.max(gaps, initial=0.0)), bool(idle.any()))

    def sweep_rows(self, order) -> list:
        """``_sweep``'s rows, at the nonterminal rows ``order``: A's and B's
        value index into z (B's None under the involution, where it moves
        with A's), then the A-win and the B-win legs, each (chance, A's
        index, B's index) in table order."""
        size = len(self.nt)
        rows = [(2 + i, 2 + size + i if self.width > size else None, [], []) for i in range(size)]
        for i, w, *leg in zip(*(column.tolist() for column in self.legs)):
            rows[i][2 + w].append(tuple(leg))
        return [rows[i] for i in order]


def _assemble(
    layer: _Layer, method: str, iterations: int, va, vb, verdict=None, stakes=None
) -> ValueSolution:
    """Build the solution object (detail rows + exact residual) from value vectors.

    Rows report the given values and take their stakes from the value
    differences.  A caller that has judged the values passes their
    ``verdict``.  A closed form may pass ``stakes`` (arrays over
    ``layer.nt``) derived exactly from its own recursion instead.
    """
    spec = layer.spec
    m = spec.automaton
    da, db, res, _ = layer.verdict(va, vb) if verdict is None else verdict
    if stakes is not None:
        da, db = (np.asarray(x, dtype=float) for x in stakes)
    # per state: the stakes, then the efforts and A's win probability
    columns = (layer.nt, da, db, *battle_detail(spec.sf, da, db))
    rows = {
        s: StateValues(float(va[s]), float(vb[s]), *detail)
        for s, *detail in zip(*(column.tolist() for column in columns))
    }
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
    legs = spec.automaton.legs
    x = np.zeros(layer.width)
    done = legs.row < 0  # terminals are solved from the start
    for ready in _levels(done, legs.src, legs.tgt):
        at = np.concatenate([layer.at_a[ready], layer.at_b[ready]]) - 2  # their unknowns
        loss, own, opp = (column[at] for column in layer.stakes(x[None]))
        x[at] = loss + battle_gain(spec.sf, own, opp)
    if not done.all():
        raise CyclicAutomatonError("automaton contains cycles; use the cyclic fixed-point solver")
    return _assemble(layer, "backward", 0, *layer.vectors(x))


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
    sf = sf if sf is not None else Tullock(1.0)
    return _tow_closed(ContestSpec(build_tug_of_war(n, reset_p, head_start), sf, prize), reset_p)


def _tow_closed(spec: ContestSpec, reset_p: float, at=None) -> ValueSolution:
    """``solve_tow_closed`` on a spec whose rule is the tug-of-war's table,
    lead i at state ``at[i + n]`` (the builder's ids by default)."""
    sf, prize, m = spec.sf, spec.prize, spec.automaton
    if not sf.homogeneous:
        raise UnsupportedKindError(
            "closed-form tug-of-war requires a homogeneous success function"
        )
    p = float(reset_p)
    n = m.n // 2
    at = range(m.n) if at is None else at

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
    # phi and its complement at each signed lead's gap ratio: theta_k at
    # lead k, 1 / theta_k at lead -k and 1 at the center
    lead_phi = {0: phi1}
    lead_comp = {0: sf.phi_complement(1.0)}
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
                log_ratio += (
                    sf.log_phi_complement_at_log(log_ratio)
                    - sf.log_phi_at_log(log_ratio)
                    + sf.log_phi_complement_at_log(-log_ratio)
                    - sf.log_phi_at_log(-log_ratio)
                )
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
        lead_phi[k], lead_phi[-k], lead_comp[k], lead_comp[-k] = fl, flbar, comp, compbar
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
        s = at[i + n]
        va[s] = prize * decision[i]
        vb[s] = prize * decision[-i]
    # battle stakes come from the ring increments: differencing the stored
    # values cannot resolve stakes at saturated leads, and a mixed zero/tiny
    # classification there would even break absorption
    scale = prize / span
    stakes = np.zeros((2, m.n))  # A's and B's stakes by state
    for i in range(-(n - 1), n):
        k = abs(i)
        if k == 0:
            stakes[:, at[n]] = (d_plus[1] + d_minus[1]) * scale
        else:
            lead = (d_plus[k + 1] + d_plus[k]) * scale
            lag = (d_minus[k + 1] + d_minus[k]) * scale
            stakes[:, at[i + n]] = (lead, lag) if i > 0 else (lag, lead)
    layer = _Layer(spec)
    out = _assemble(layer, "closed_tow", 0, va, vb, stakes=stakes[:, layer.nt])
    out.extras.update(
        reset_p=p,
        delta_plus=d_plus[1:],
        delta_minus=d_minus[1:],
        ring_theta=thetas[1:],
        ring_log_ratio=ring_log_ratio,
        lead_phi=lead_phi,
        lead_phi_complement=lead_comp,
        gap=gap,
        h=h,
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
    return _brentq(lambda r: _iterated_psi(sf, r, k - 1) - 1.0, lo, hi, xtol=1e-300)


def solve_consecutive_closed(
    k: int, sf: SuccessFunction | None = None, prize: float = 1.0
) -> ValueSolution:
    """Closed-form consecutive-win values via the streak-root reduction.

    The two pivotal values (after one loss, after one win) solve a scalar
    fixed point: the win/loss gap ratio must return to 1 after k-1
    applications of the streak map.  All remaining values follow from the
    two-sided iterates toward the boundary.
    """
    sf = sf if sf is not None else Tullock(1.0)
    return _cw_closed(ContestSpec(build_consecutive_win(k), sf, prize))


def _cw_closed(spec: ContestSpec, at=None) -> ValueSolution:
    """``solve_consecutive_closed`` on a spec whose rule is the consecutive-win
    table, streak i at state ``at[i + k]`` (the builder's ids by default)."""
    sf, prize, m = spec.sf, spec.prize, spec.automaton
    if not sf.homogeneous:
        raise UnsupportedKindError(
            "closed-form consecutive-win requires a homogeneous success function"
        )
    k = m.n // 2

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
    at = range(m.n) if at is None else at
    state = {i: at[i + k] for i in range(-k, k + 1)}  # streak i's state
    for i, s in state.items():
        va[s] = values[i]
        vb[s] = values[-i]
    out = _assemble(_Layer(spec), "closed_cw", 0, va, vb)
    out.extras.update(streak_root=rho, survival_product=prod, streak_state=state)
    return out


# ---------------------------------------------------------------------------
# Damped fixed-point engine (general cyclic rules)
# ---------------------------------------------------------------------------

_DAMPING = 0.5  # the fraction of each update a sweep after the first applies


def solve_cyclic(
    spec: ContestSpec,
    tol: float | None = None,
    max_iter: int = 10**6,
) -> ValueSolution:
    """Damped sweep iteration of the equilibrium operator.

    From start to root the engine works in ``_Layer``'s unknowns, A's values
    alone under a player-swap involution.  Each iteration updates every
    nonterminal state's battle against the freshest continuation values
    (chance-averaged over lotteries), sweeping from the states nearest a
    terminal inward so that boundary information crosses the whole graph
    every pass.  After a pure first sweep, values move halfway toward each
    update.  Checkpoints (sweep 50, 100, 200, ... of
    a phase, or a stalled sweep) run a quasi-Newton candidate search from the
    iterate, the call's first one also from flat profiles.  The operator
    also admits mutual-discouragement fixed points (idle interior battles,
    flat values), escaped by restarts: the sweeps start from values
    interpolated by battle distance, then from a flat 0.05 x prize, then from
    zero (the truncated contest's values).  Every candidate, iterate or
    root, is judged by ``_Layer.verdict``: one within ``tol`` (default
    1e-12 x prize) with no idle row is returned at once.  An idle iterate
    ends its phase; idle iterates and idle roots alike replace the fallback
    when their residual is lower than its own.  The fallback is returned
    only if no phase finds a competitive fixed point; ``extras["idle"]``
    says which of the two the answer is.
    """
    if tol is None:
        tol = 1e-12 * spec.prize
    m = spec.automaton
    layer = _Layer(spec)  # the verdict's operator, on both players' values
    iterations = 0

    def accept(va, vb, verdict=None):
        out = _assemble(layer, "fixed_point", iterations, va, vb, verdict)
        out.extras["idle"] = verdict is not None and verdict.idle
        return out

    if not len(layer.nt):  # no battles: nothing idles
        return accept(*layer.vectors(np.zeros(0)))
    # With a player-swap involution the symmetric equilibrium satisfies
    # V_B = V_A o sigma; enforcing it keeps the iteration away from the
    # asymmetric discouragement profiles the operator also admits, and
    # leaves A's values as the only unknowns.
    sigma = swap_involution(m)
    engine = layer if sigma is None else _Layer(spec, np.array([sigma[s] for s in range(m.n)]))
    sf, prize = spec.sf, spec.prize
    order, start_a, start_b = _distance_start(m, prize)
    rows = engine.sweep_rows(order.tolist())

    phase_starts = [  # distance-interpolated, then flat at 0.05 x prize, then zero
        np.concatenate([start_a, start_b])[: engine.width],  # A's alone under sigma
        np.full(engine.width, 0.05 * prize),
        np.zeros(engine.width),
    ]
    phase_budget = 800
    res = math.inf
    fallback = None  # best verified idle-interior fixed point

    def judge(va, vb):
        """A candidate's verdict and, within ``tol``, its solution if it is
        competitive; an idle one replaces a fallback of higher residual."""
        nonlocal fallback
        verdict = layer.verdict(va, vb)
        if verdict.residual <= tol:
            if not verdict.idle:
                return verdict, accept(va, vb, verdict)
            if fallback is None or verdict.residual < fallback[2].residual:
                fallback = (va, vb, verdict)
        return verdict, None

    # the flat starts depend on neither the iterate nor the phase, so only
    # the call's first search runs them
    flat_starts = [np.full(engine.width, level * prize) for level in (0.2, 0.05, 0.35, 0.02, 0.5)]
    for start in phase_starts:
        # the sweeps run on Python floats; a checkpoint builds fresh arrays
        z = np.concatenate((engine.ends, start)).tolist()
        phase_sweeps = 0
        next_search = 50
        while phase_sweeps < phase_budget and iterations < max_iter:
            lam = 1.0 if phase_sweeps == 0 else _DAMPING  # pure first sweep seeds the basin
            sweep_delta = _sweep(rows, sf, z, lam)
            phase_sweeps += 1
            iterations += 1
            if not (sweep_delta <= tol or phase_sweeps >= next_search):
                continue  # a checkpoint is a stalled sweep or a scheduled search
            if phase_sweeps >= next_search:
                next_search *= 2
            x = np.array(z[2:])
            verdict, answer = judge(*engine.vectors(x))
            res = min(res, verdict.residual)
            if answer is not None:
                return answer
            if verdict.residual <= tol:
                break  # idle basin: restart from the next flat level
            for root in _newton_search(engine, [x, *flat_starts]):
                answer = judge(*root)[1]
                if answer is not None:
                    return answer
            flat_starts = []
    if fallback is not None:
        # only mutual-discouragement equilibria were found; report the best
        return accept(*fallback)
    raise ConvergenceError(
        f"fixed-point iteration stalled at residual {res:.3e} "
        f"after {iterations} iterations (tol {tol:.3e})",
        residual=res,
    )


def _sweep(rows, sf, z: list, lam: float) -> float:
    """One Gauss-Seidel sweep of ``solve_cyclic`` over ``_Layer.sweep_rows``,
    in place on the values z = (0, prize, x_0, ...): each unknown moves a
    share ``lam`` of the way to its update (under the involution B's values
    are A's, read through it).  Returns the largest move."""
    keep = 1.0 - lam
    delta = 0.0
    for ia, ib, win_a, win_b in rows:
        ea_w = ea_l = eb_w = eb_l = 0.0
        for p, a, b in win_a:
            ea_w += p * z[a]
            eb_l += p * z[b]
        for p, a, b in win_b:
            ea_l += p * z[a]
            eb_w += p * z[b]
        old = z[ia]
        new = keep * old + lam * (ea_l + battle_gain(sf, ea_w - ea_l, eb_w - eb_l))
        delta = max(delta, abs(new - old))
        z[ia] = new
        if ib is not None:
            old = z[ib]
            new = keep * old + lam * (eb_l + battle_gain(sf, eb_w - eb_l, ea_w - ea_l))
            delta = max(delta, abs(new - old))
            z[ib] = new
    return delta


# MINPACK fdjac1's forward-difference step at scipy's default epsfcn: the
# square root of the double epsilon 2^-52
_FD_STEP = 2.0**-26
_STACK_LEGS = 1 << 14  # the most legs one stacked evaluation gathers for a side


def _fd_column(v: float) -> float:
    """MINPACK fdjac1's perturbed coordinate at v."""
    h = _FD_STEP * abs(v)
    return v + (h if h != 0.0 else _FD_STEP)


class _HybrResidual:
    """hybr's residual callable.  hybrd takes its forward-difference
    Jacobian at its current point x, one of its last three evaluations
    outside a Jacobian, as n calls at x + h_j e_j in order j = 0..n-1
    (``_fd_column``).  A call at x + h_0 e_0 evaluates all n columns as
    stacks and answers the next n - 1 calls from them, keyed by the point's
    bytes.  A call that repeats the point just evaluated (``root``'s shape
    probe and hybrd's first calls all ask for the start) is answered from
    that evaluation.  Every answer is the residual at the point asked, so
    only the speed depends on this detection."""

    def __init__(self, system: _Layer):
        self.system = system
        self.recent = deque(maxlen=3)  # (bytes after x_0, x_0, x_0 + h_0) of those evaluations
        self.stash = {}

    def __call__(self, x):
        key = x.tobytes()
        row = self.stash.get(key)
        if row is not None:
            return row
        tail, head = key[8:], float(x[0])
        for base_tail, base_head, column in self.recent:
            if head == column and tail == base_tail:
                return self._jacobian(x, base_head)
        self.recent.append((tail, head, _fd_column(head)))
        self.stash = {key: self.system(x[None])[0]}
        return self.stash[key]

    def _jacobian(self, x, head: float):
        base = x.copy()
        base[0] = head
        xs = np.tile(base, (len(x), 1))
        for j, v in enumerate(base.tolist()):
            xs[j, j] = _fd_column(v)
        step = self.system.stack_rows
        out = np.concatenate([self.system(xs[i : i + step]) for i in range(0, len(x), step)])
        self.stash = {p.tobytes(): r for p, r in zip(xs[1:], out[1:])}
        return out[0]


def _newton_search(system: _Layer, starts):
    """Quasi-Newton (``hybr``) roots of the fixed-point system, tried from
    each start in turn and yielded as full value vectors (va, vb).

    A root is clipped to [0, prize] and yielded only when every state's
    values sum to at most the prize (a NaN fails); the caller judges it.
    Deterministic by construction.
    """
    from scipy.optimize import root

    prize = system.spec.prize
    for x0 in starts:
        try:
            sol = root(
                _HybrResidual(system), x0, method="hybr", tol=1e-14,
                options={"maxfev": 40 * (len(x0) + 1)},
            )
        except (ContestError, ValueError, ArithmeticError):  # a start that fails is skipped
            continue
        fa, fb = system.vectors(np.clip(sol.x, 0.0, prize))
        if np.all(fa + fb <= prize * (1.0 + 1e-9)):
            yield fa, fb


def _distance_start(m: ContestAutomaton, prize: float):
    """Sweep order and starting values from each nonterminal state's battle
    distances d_A and d_B to A's and to B's terminals.

    Rows sweep nearest a terminal first, by min(d_A, d_B) over the reached
    ones; ties keep state order and rows that reach no terminal come last.
    A starts at prize * d_B / (d_A + d_B) and B at prize * d_A / (d_A + d_B),
    or both at prize / 2 when some state cannot reach both players' terminals.
    """
    nt = m.legs.row >= 0
    d_a, d_b = (d[nt] for d in _terminal_hops(m))
    depth = np.minimum(*(np.where(d >= 0, d, np.inf) for d in (d_a, d_b)))
    order = np.argsort(depth, kind="stable")
    if np.all(d_a > 0) and np.all(d_b > 0):
        span = d_a + d_b
        return order, prize * d_b / span, prize * d_a / span
    half = np.full(len(d_a), 0.5 * prize)
    return order, half, half.copy()


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
    x = np.array([pairs[s][0] for s in nt] + [pairs[s][1] for s in nt], dtype=float)
    return layer.verdict(*layer.vectors(x)).residual


def solve(spec: ContestSpec, **cyclic_options) -> ValueSolution:
    """Route a spec to the best available solver by its transition table.

    Under a homogeneous technology a rule whose table is a tug-of-war's or a
    consecutive-win's, up to state ids and chance rounding, takes its closed
    form; other acyclic rules use backward induction, and anything else goes
    to the fixed-point engine.
    """
    closed = _closed_form(spec)
    if closed is not None:
        return closed
    try:
        return solve_finite(spec)
    except CyclicAutomatonError:
        return solve_cyclic(spec, **cyclic_options)


def _closed_form(spec: ContestSpec) -> ValueSolution | None:
    """The closed form when the rule is the one family table it could be, up
    to state ids and chance rounding, else None.

    Both families have 2n + 1 states and one terminal per player.  The
    consecutive-win's canonical position 1 (A's first win) loses straight to
    position 2; any other candidate is the tug-of-war whose reset chance is
    the summed chance of the target every two-target lottery shares, with head
    start n - d_A if d_A <= d_B, else d_B - n (the start's battle distances
    to A's and B's terminals).  Equal canonical forms map the candidate's
    ids onto the rule's.
    """
    m = spec.automaton
    n = m.n // 2
    if not spec.sf.homogeneous or m.n != 2 * n + 1 or sorted(m.terminal.values()) != ["A", "B"]:
        return None
    form = _canonical(m)
    streak = form[1][1][1:] == ((2,),)  # a terminal's shape is its winner
    try:
        if streak:
            twin = build_consecutive_win(n)
        else:
            pairs = [dist for dist in map(_summed, m.transitions.values()) if len(dist) == 2]
            hub = set.intersection(*map(set, pairs)) if pairs else ()  # the reset target
            reset_p = next((pairs[0][t] for t in hub), 0.0)
            d_a, d_b = (int(d[m.start]) for d in _terminal_hops(m))
            twin = build_tug_of_war(n, reset_p, n - d_a if d_a <= d_b else d_b - n)
    except DomainError:  # a start or a chance that no family rule has
        return None
    twin_form = _canonical(twin)
    if not _same_form(form, twin_form):
        return None
    at = dict(zip(twin_form[0], form[0]))
    return _cw_closed(spec, at) if streak else _tow_closed(spec, reset_p, at)
