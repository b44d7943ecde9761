"""Finite-state representations of multi-battle contest rules.

States are decision nodes; each battle outcome maps to a distribution over
next states, which models post-battle chance moves (e.g. random resets) as an
explicit lottery layer.  Automata are immutable after construction.

Infinite play carries no payoff node here: in equilibrium of every shipped
family it occurs with probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DomainError, StructureError
from .success import SuccessFunction

__all__ = [
    "WINNERS",
    "ContestAutomaton",
    "ContestSpec",
    "build_single_battle",
    "build_best_of",
    "build_tug_of_war",
    "build_consecutive_win",
    "build_mk1",
    "build_extension",
    "min_length",
    "terminal_distances",
    "check_exchangeable",
    "default_exchangeability_depth",
    "swap_involution",
    "check_symmetric",
    "minimize",
    "isomorphic",
    "automaton_to_dict",
    "automaton_from_dict",
]

WINNERS = ("A", "B")

_PROB_TOL = 1e-9


class Legs(NamedTuple):
    """The transition table compiled to flat arrays, one entry per lottery leg.

    Legs run by nonterminal state ascending, winner A before winner B, then
    as the lottery lists them; ``win`` codes the battle winner (0 = A,
    1 = B).  ``row`` gives each state's position among the nonterminal
    states (-1 at terminals), ``outcome`` each terminal's winner code (-1
    elsewhere).
    """

    src: np.ndarray
    win: np.ndarray
    tgt: np.ndarray
    prob: np.ndarray
    row: np.ndarray
    outcome: np.ndarray


class ContestAutomaton:
    """A contest rule as a finite-state machine with chance layers.

    Parameters
    ----------
    start : int
        Initial state id.
    transitions : dict[(int, str), tuple[(int, float), ...]]
        For each nonterminal state and battle winner, the distribution over
        next states (probabilities sum to 1).
    terminal : dict[int, str]
        Overall winner ("A" or "B") at each terminal state.
    labels : dict[int, str], optional
        Human-readable tags such as "lead +2" or "streak -1".

    The rule is its transition table: solvers and routes read nothing
    else (labels only tag the output), so a builder's rule and its JSON
    form are the same contest.
    """

    def __init__(
        self,
        start: int,
        transitions: dict,
        terminal: dict,
        labels: dict | None = None,
    ):
        self.start = int(start)
        self.transitions = {
            (int(s), w): tuple((int(t), float(p)) for t, p in dist)
            for (s, w), dist in transitions.items()
        }
        self.terminal = {int(s): w for s, w in terminal.items()}
        ids = {s for s, _ in self.transitions} | set(self.terminal)
        ids.add(self.start)
        self.n = (max(ids) + 1) if ids else 0
        self.labels = dict(labels) if labels else {s: f"s{s}" for s in range(self.n)}
        self._check()

    # -- basic accessors -----------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.n

    def states(self):
        return range(self.n)

    def is_terminal(self, s: int) -> bool:
        return s in self.terminal

    def winner(self, s: int) -> str | None:
        return self.terminal.get(s)

    def successors(self, s: int, w: str):
        return self.transitions[(s, w)]

    @property
    def nonterminal_states(self) -> tuple:
        return tuple(s for s in range(self.n) if s not in self.terminal)

    @property
    def terminal_states(self) -> tuple:
        return tuple(sorted(self.terminal))

    @property
    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.transitions.values())

    @cached_property
    def legs(self) -> Legs:
        """The leg table (read-only arrays), compiled on first use."""
        nt = self.nonterminal_states
        table = [
            (s, code, t, p)
            for s in nt
            for code, w in enumerate(WINNERS)
            for t, p in self.transitions[(s, w)]
        ]
        src, win, tgt, prob = list(zip(*table)) or [()] * 4
        row = np.full(self.n, -1, dtype=np.intp)
        row[list(nt)] = np.arange(len(nt))
        outcome = np.full(self.n, -1, dtype=np.int8)
        outcome[list(self.terminal)] = [WINNERS.index(w) for w in self.terminal.values()]
        legs = Legs(
            np.array(src, dtype=np.intp), np.array(win, dtype=np.int8),
            np.array(tgt, dtype=np.intp), np.array(prob, dtype=float), row, outcome,
        )
        for array in legs:
            array.flags.writeable = False
        return legs

    def step(self, s: int, w: str) -> int:
        """Deterministic single-step transition; requires a one-point lottery."""
        dist = self.transitions[(s, w)]
        if len(dist) != 1:
            raise StructureError("step is only defined for deterministic transitions")
        return dist[0][0]

    # -- well-formedness -----------------------------------------------------
    def _check(self):
        if self.n == 0:
            raise StructureError("automaton has no states")
        if not 0 <= self.start < self.n:
            raise StructureError("start state out of range")
        if any(s < 0 for s, _ in self.transitions) or any(s < 0 for s in self.terminal):
            raise StructureError("state ids must be nonnegative")
        for s, w in self.transitions:
            if w not in WINNERS:
                raise StructureError(f"transition from {s} has invalid winner {w!r}")
        for s in range(self.n):
            if s in self.terminal:
                if self.terminal[s] not in WINNERS:
                    raise StructureError(f"terminal state {s} has invalid winner")
                for w in WINNERS:
                    if (s, w) in self.transitions:
                        raise StructureError(f"terminal state {s} has outgoing transitions")
            else:
                for w in WINNERS:
                    dist = self.transitions.get((s, w))
                    if not dist:
                        raise StructureError(f"nonterminal state {s} lacks a {w}-win transition")
                    total = 0.0
                    for t, p in dist:
                        if not 0 <= t < self.n:
                            raise StructureError(f"transition from {s} targets unknown state {t}")
                        if not (math.isfinite(p) and p > 0.0):
                            raise StructureError(
                                "chance probabilities must be positive and finite"
                            )
                        total += p
                    if abs(total - 1.0) > _PROB_TOL:
                        raise StructureError(
                            f"chance probabilities from state {s} on {w} sum to {total}"
                        )
        reached = _forward_distances(self, self.start)
        if len(reached) != self.n:
            missing = sorted(set(range(self.n)).difference(reached))
            raise StructureError(f"states not reachable from start: {missing}")
        if not any(s in self.terminal for s in reached):
            raise StructureError("no terminal state is reachable: the contest is trivial")


@dataclass(frozen=True)
class ContestSpec:
    """A contest rule paired with a battle technology and a prize."""

    automaton: ContestAutomaton
    sf: SuccessFunction
    prize: float = 1.0

    def __post_init__(self):
        _check_prize(self.prize)


def _check_prize(prize: float) -> None:
    """The one prize rule of every spec and sweep: positive and finite."""
    if not 0.0 < prize < math.inf:
        raise DomainError("prize must be positive and finite")


# ---------------------------------------------------------------------------
# Canonical families
# ---------------------------------------------------------------------------


def build_single_battle() -> ContestAutomaton:
    """One battle decides the contest (best-of with k=0)."""
    return build_best_of(0)


def build_best_of(k: int) -> ContestAutomaton:
    """First player to k+1 battle wins takes the prize (best-of-(2k+1))."""
    if k < 0 or int(k) != k:
        raise DomainError("k must be a nonnegative integer")
    k = int(k)
    goal = k + 1
    keys = [
        (i, j)
        for i in range(goal + 1)
        for j in range(goal + 1)
        if not (i == goal and j == goal)
    ]
    idx = {key: n for n, key in enumerate(keys)}
    transitions, terminal, labels = {}, {}, {}
    for (i, j), s in idx.items():
        labels[s] = f"score {i}-{j}"
        if i == goal:
            terminal[s] = "A"
        elif j == goal:
            terminal[s] = "B"
        else:
            transitions[(s, "A")] = ((idx[(i + 1, j)], 1.0),)
            transitions[(s, "B")] = ((idx[(i, j + 1)], 1.0),)
    return ContestAutomaton(
        start=idx[(0, 0)],
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


def build_tug_of_war(n: int, reset_p: float = 0.0, head_start: int = 0) -> ContestAutomaton:
    """Win by leading with n net battle wins; optional post-battle reset lottery.

    With reset probability p > 0, every battle outcome that does not end the
    contest returns the state to 0 with probability p.
    """
    if n < 1 or int(n) != n:
        raise DomainError("margin must be a positive integer")
    if not 0.0 <= reset_p < 1.0:
        raise DomainError("reset probability must lie in [0, 1)")
    if abs(head_start) >= n or int(head_start) != head_start:
        raise DomainError("head start must satisfy |head_start| < margin")
    n = int(n)
    idx = {i: i + n for i in range(-n, n + 1)}
    transitions, terminal, labels = {}, {}, {}
    for i in range(-n, n + 1):
        s = idx[i]
        labels[s] = f"lead {i:+d}"
        if i == n:
            terminal[s] = "A"
        elif i == -n:
            terminal[s] = "B"
        else:
            for w, nxt in (("A", i + 1), ("B", i - 1)):
                if abs(nxt) == n or reset_p == 0.0 or nxt == 0:
                    dist = ((idx[nxt], 1.0),)
                else:
                    dist = ((idx[0], reset_p), (idx[nxt], 1.0 - reset_p))
                transitions[(s, w)] = dist
    return ContestAutomaton(
        start=idx[int(head_start)],
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


def build_consecutive_win(k: int) -> ContestAutomaton:
    """Win by taking k battles in a row; any loss resets the streak."""
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    k = int(k)
    idx = {i: i + k for i in range(-k, k + 1)}
    transitions, terminal, labels = {}, {}, {}
    for i in range(-k, k + 1):
        s = idx[i]
        labels[s] = f"streak {i:+d}"
        if i == k:
            terminal[s] = "A"
        elif i == -k:
            terminal[s] = "B"
        else:
            transitions[(s, "A")] = ((idx[i + 1 if i >= 0 else 1], 1.0),)
            transitions[(s, "B")] = ((idx[i - 1 if i <= 0 else -1], 1.0),)
    return ContestAutomaton(
        start=idx[0],
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


def build_mk1(k: int) -> ContestAutomaton:
    """Biased race: player B must win k battles before player A wins one.

    Player A (the advantaged side) ends the contest with any single battle
    win; player B must run the table.  States count B's wins so far.
    """
    if k < 1 or int(k) != k:
        raise DomainError("k must be a positive integer")
    k = int(k)
    # ids: 0..k-1 nonterminal, k = B's victory, k+1 = A's victory
    transitions, terminal, labels = {}, {}, {}
    for j in range(k):
        labels[j] = f"challenger wins {j}"
        transitions[(j, "A")] = ((k + 1, 1.0),)
        transitions[(j, "B")] = ((j + 1, 1.0),)
    terminal[k] = "B"
    labels[k] = "challenger victory"
    terminal[k + 1] = "A"
    labels[k + 1] = "incumbent victory"
    return ContestAutomaton(
        start=0,
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


# The named families of ``metrics.sweep`` and of the CLI, which spells them
# with hyphens; each takes one integer parameter.
_FAMILIES = {
    "best_of": build_best_of,
    "tug_of_war": build_tug_of_war,
    "consecutive_win": build_consecutive_win,
    "mk1": build_mk1,
}


def _build_family(family: str, param: int, reset_p: float = 0.0, head_start: int = 0):
    """The rule a family name and its parameter stand for; only the
    tug-of-war reads ``reset_p`` and ``head_start``."""
    if family == "tug_of_war":
        return build_tug_of_war(param, reset_p, head_start)
    return _FAMILIES[family](param)


def build_extension(m: ContestAutomaton, n: int) -> ContestAutomaton:
    """Order-insensitive enlargement: n straight wins from the start end the
    contest; once both players hold at least one win, play continues in ``m``
    shifted by one win per side.

    Requires ``m`` to be symmetric and exchangeable (certified to the default
    depth), which makes the entry point into ``m`` well defined.
    """
    if n < 2 or int(n) != n:
        raise DomainError("extension order must be an integer >= 2")
    if not m.deterministic:
        raise StructureError("extension requires a chance-free base contest")
    if swap_involution(m) is None:
        raise StructureError("extension requires a symmetric base contest")
    ok, witness = check_exchangeable(m, default_exchangeability_depth(m))
    if not ok:
        raise StructureError(f"extension requires an exchangeable base contest: {witness}")
    n = int(n)

    ids: dict = {}

    def intern(key) -> int:
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    transitions, terminal, labels = {}, {}, {}

    def embed(msource: int) -> int:
        return intern(("sub", msource))

    def walk(j: int, winner: str) -> int:
        # follow j consecutive wins of `winner` from m's start
        t = m.start
        for _ in range(j):
            if m.is_terminal(t):
                break
            t = m.step(t, winner)
        return embed(t)

    start = intern(("chain", 0, 0))
    labels[start] = "start"
    win_a = intern(("chainwin", "A"))
    win_b = intern(("chainwin", "B"))
    terminal[win_a] = "A"
    terminal[win_b] = "B"
    labels[win_a] = f"streak {n} by A"
    labels[win_b] = f"streak {n} by B"

    transitions[(start, "A")] = ((win_a if n == 1 else intern(("chain", 1, 1)), 1.0),)
    transitions[(start, "B")] = ((win_b if n == 1 else intern(("chain", 1, -1)), 1.0),)
    for j in range(1, n):
        for side, w_on, w_off, goal in ((1, "A", "B", win_a), (-1, "B", "A", win_b)):
            s = intern(("chain", j, side))
            labels[s] = f"pure streak {j} by {w_on}"
            on_target = goal if j + 1 == n else intern(("chain", j + 1, side))
            transitions[(s, w_on)] = ((on_target, 1.0),)
            transitions[(s, w_off)] = ((walk(j - 1, w_on), 1.0),)

    # embed the base contest
    pending = [key for key in list(ids) if key[0] == "sub"]
    seen_sub = set(pending)
    while pending:
        key = pending.pop()
        ms = key[1]
        s = ids[key]
        labels[s] = f"sub:{m.labels.get(ms, str(ms))}"
        if m.is_terminal(ms):
            terminal[s] = m.winner(ms)
            continue
        for w in WINNERS:
            t = m.step(ms, w)
            tkey = ("sub", t)
            if tkey not in seen_sub:
                seen_sub.add(tkey)
                pending.append(tkey)
            transitions[(s, w)] = ((intern(tkey), 1.0),)

    return ContestAutomaton(
        start=start,
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Structural diagnostics
# ---------------------------------------------------------------------------


def terminal_distances(m: ContestAutomaton) -> dict:
    """Battles on the shortest history from each state to a terminal.

    A search from the terminals over the reversed legs; states that reach
    no terminal are absent from the result.
    """
    return _reached(_hops(m.n, np.flatnonzero(m.legs.outcome >= 0), m.legs.tgt, m.legs.src))


def min_length(m: ContestAutomaton) -> int:
    """Battles in the shortest terminal history (every rule has one)."""
    return terminal_distances(m)[m.start]


def _forward_distances(m: ContestAutomaton, source: int) -> dict:
    """Battles on the shortest history from ``source`` to each state it reaches.

    Terminals have no legs, so the search stops there; the keys are exactly
    the states reachable from ``source``.
    """
    return _reached(_hops(m.n, [source], m.legs.src, m.legs.tgt))


def _hops(n: int, sources, heads, tails) -> np.ndarray:
    """Unweighted shortest-path lengths from the nearest of ``sources`` over
    the edges heads -> tails among nodes 0..n-1, -1 where unreached."""
    # CSR rows built directly: a COO conversion costs more than the search
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))])
    tails = np.asarray(tails)[np.argsort(heads, kind="stable")]
    graph = csr_matrix((np.ones(len(tails)), tails, indptr), shape=(n, n))
    dist = dijkstra(graph, unweighted=True, indices=sources, min_only=True)
    return np.where(np.isfinite(dist), dist, -1).astype(int)


def _reached(depth: np.ndarray) -> dict:
    """The reached nodes of a ``_hops`` result and their distances."""
    reached = np.flatnonzero(depth >= 0)
    return dict(zip(reached.tolist(), depth[reached].tolist()))


def default_exchangeability_depth(m: ContestAutomaton) -> int:
    """Twice the start-state eccentricity of the state graph, capped at 12."""
    ecc = max(_forward_distances(m, m.start).values())
    return max(2, min(12, 2 * ecc))


def check_exchangeable(m: ContestAutomaton, depth: int) -> tuple[bool, tuple | None]:
    """Certify that outcome order is irrelevant up to ``depth`` battles.

    Walks the outcome sequences of length <= depth in pre-order and groups
    them by win counts.  All valid sequences in a group must end in the same
    state, or terminate with the same winner at the same length.  Returns the
    verdict and, on failure, a witness pair of histories: the group's first
    and the first that disagrees with it.  A reachable chance split already
    defeats order-invariance (the same history can land in different
    states), witnessed by the offending history paired with itself.  A
    history's state and win counts fix all below it, so each (state, na, nb)
    is expanded once, when first popped.
    """
    if depth < 2:
        raise DomainError("exchangeability depth must be at least 2")
    first: dict[tuple, tuple] = {}  # win counts -> (tag, history) of their first history
    expanded = set()
    stack = [((), m.start, 0, 0)]
    while stack:
        hist, s, na, nb = stack.pop()
        if (s, na, nb) in expanded:
            continue
        expanded.add((s, na, nb))
        if hist:
            tag = ("won", m.winner(s), len(hist)) if m.is_terminal(s) else ("state", s)
            seen, seen_hist = first.setdefault((na, nb), (tag, hist))
            if seen != tag:
                return False, (seen_hist, hist)
        if m.is_terminal(s) or len(hist) >= depth:
            continue
        for w in reversed(WINNERS):  # LIFO stack: explore A-side first
            dist = m.successors(s, w)
            if len(dist) > 1:
                return False, (hist + (w,), hist + (w,))
            t = dist[0][0]
            stack.append((hist + (w,), t, na + (w == "A"), nb + (w == "B")))
    return True, None


def _canonical(m: ContestAutomaton, mirror: bool = False) -> tuple:
    """The rule's canonical labelling: (visit order, shape, chances).

    States are visited breadth-first from the start, A's lottery before B's
    (B's first with ``mirror``), legs in table order.  The shape holds, at
    each visit position, a terminal's winner (swapped with ``mirror``) or
    the target positions of the state's two lotteries; the chances list the
    legs in visit order.
    """
    winners = WINNERS[::-1] if mirror else WINNERS
    position = {m.start: 0}
    order, shape, chances = [m.start], [], []
    for s in order:  # the visit order is the search's queue
        if s in m.terminal:
            shape.append(winners[WINNERS.index(m.terminal[s])])
            continue
        lotteries = []
        for w in winners:
            dist = m.transitions[(s, w)]
            for t, p in dist:
                if t not in position:
                    position[t] = len(order)
                    order.append(t)
                chances.append(p)
            lotteries.append(tuple(position[t] for t, _ in dist))
        shape.append(tuple(lotteries))
    return order, tuple(shape), chances


def _same_form(form: tuple, other: tuple) -> bool:
    """Whether two canonical labellings have one shape and chances within
    ``_PROB_TOL``: one table up to state ids and chance rounding."""
    return form[1] == other[1] and not np.any(np.abs(np.subtract(form[2], other[2])) > _PROB_TOL)


def swap_involution(m: ContestAutomaton) -> dict | None:
    """Find the A/B-swapping state involution, or None if the rule is biased.

    The swap fixes the start and maps A's lottery onto B's, so it pairs the
    i-th state of the canonical labelling with the i-th of the mirrored one
    and checks the pairing on every leg: up to state ids and chance rounding.
    """
    sigma = dict(zip(_canonical(m)[0], _canonical(m, mirror=True)[0]))
    return sigma if _verify_involution(m, sigma) else None


def _verify_involution(m: ContestAutomaton, sigma: dict) -> bool:
    """Whether ``sigma`` is an involution that fixes the start, swaps the
    terminals' winners and carries the table onto itself with the battle
    winners swapped: the summed chance of every (state, winner, target)
    equals that of its image within ``_PROB_TOL``."""
    perm = np.array([sigma.get(s, -1) for s in range(m.n)])
    if np.any((perm < 0) | (perm >= m.n)) or np.any(perm[perm] != np.arange(m.n)):
        return False
    legs = m.legs
    swapped = np.where(legs.outcome >= 0, 1 - legs.outcome, -1)
    if perm[m.start] != m.start or not np.array_equal(legs.outcome[perm], swapped):
        return False

    def masses(src, win, tgt):
        keys, inverse = np.unique((2 * src + win) * m.n + tgt, return_inverse=True)
        return keys, np.bincount(inverse, legs.prob)

    keys, mass = masses(legs.src, legs.win, legs.tgt)
    image, image_mass = masses(perm[legs.src], 1 - legs.win, perm[legs.tgt])
    return np.array_equal(keys, image) and not np.any(np.abs(mass - image_mass) > _PROB_TOL)


def check_symmetric(m: ContestAutomaton) -> bool:
    """True when swapping the player labels maps the rule onto itself."""
    return swap_involution(m) is not None


# ---------------------------------------------------------------------------
# Bisimulation quotient and isomorphism
# ---------------------------------------------------------------------------


def minimize(m: ContestAutomaton) -> ContestAutomaton:
    """Behavioral quotient: merge states with identical continuation rules."""
    block = {
        s: (0 if not m.is_terminal(s) else (1 if m.winner(s) == "A" else 2))
        for s in range(m.n)
    }
    # iterative partition refinement
    while True:
        signature = {}
        for s in range(m.n):
            if m.is_terminal(s):
                signature[s] = ("T", m.winner(s))
            else:
                sig = ["N", block[s]]
                for w in WINNERS:
                    agg: dict = {}
                    for t, p in m.successors(s, w):
                        agg[block[t]] = agg.get(block[t], 0.0) + p
                    sig.append(tuple(sorted((b, round(p, 12)) for b, p in agg.items())))
                signature[s] = tuple(sig)
        new_ids = {}
        new_block = {}
        for s in range(m.n):
            key = signature[s]
            if key not in new_ids:
                new_ids[key] = len(new_ids)
            new_block[s] = new_ids[key]
        if new_block == block:
            break
        block = new_block
    reps: dict[int, int] = {}
    for s in range(m.n):
        reps.setdefault(block[s], s)
    remap = {b: i for i, b in enumerate(sorted(reps, key=lambda b: reps[b]))}
    transitions, terminal, labels = {}, {}, {}
    for b, s in reps.items():
        nb = remap[b]
        labels[nb] = m.labels.get(s, f"s{s}")
        if m.is_terminal(s):
            terminal[nb] = m.winner(s)
            continue
        for w in WINNERS:
            agg: dict = {}
            for t, p in m.successors(s, w):
                tb = remap[block[t]]
                agg[tb] = agg.get(tb, 0.0) + p
            transitions[(nb, w)] = tuple(sorted(agg.items()))
    return ContestAutomaton(
        start=remap[block[m.start]],
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


def isomorphic(a: ContestAutomaton, b: ContestAutomaton, up_to_bisimulation: bool = True) -> bool:
    """Decide structural equality (one canonical labelling) of two chance-free rules.

    With ``up_to_bisimulation`` the comparison quotients out behaviorally
    duplicate states first, so rules that play identically compare equal.
    """
    if up_to_bisimulation:
        a, b = minimize(a), minimize(b)
    if not (a.deterministic and b.deterministic):
        raise StructureError("isomorphism check supports chance-free automata only")
    return _same_form(_canonical(a), _canonical(b))


def restrict(m: ContestAutomaton, new_start: int) -> ContestAutomaton:
    """The subcontest rooted at ``new_start`` (reachable subgraph)."""
    seen = _forward_distances(m, new_start)
    remap = {s: i for i, s in enumerate(sorted(seen))}
    transitions = {
        (remap[s], w): tuple((remap[t], p) for t, p in dist)
        for (s, w), dist in m.transitions.items()
        if s in seen
    }
    terminal = {remap[s]: w for s, w in m.terminal.items() if s in seen}
    labels = {remap[s]: m.labels.get(s, f"s{s}") for s in seen}
    return ContestAutomaton(
        start=remap[new_start],
        transitions=transitions,
        terminal=terminal,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# JSON schema:
# {"states":[{"id":int,"label":str,"terminal":null|"A"|"B"}], "start":int,
#  "edges":[{"from":int,"winner":"A"|"B","to":[{"state":int,"prob":float}]}]}
# ---------------------------------------------------------------------------


def automaton_to_dict(m: ContestAutomaton) -> dict:
    states = [
        {"id": s, "label": m.labels.get(s, f"s{s}"), "terminal": m.winner(s)}
        for s in range(m.n)
    ]
    edges = [
        {
            "from": s,
            "winner": w,
            "to": [{"state": t, "prob": p} for t, p in m.successors(s, w)],
        }
        for s in range(m.n)
        if not m.is_terminal(s)
        for w in WINNERS
    ]
    return {"states": states, "start": m.start, "edges": edges}


def automaton_from_dict(data: dict) -> ContestAutomaton:
    try:
        labels = {}
        for st in data["states"]:
            sid = int(st["id"])
            if sid in labels:
                raise StructureError(f"duplicate state id {sid}")
            labels[sid] = str(st["label"])
        terminal = {
            int(st["id"]): st["terminal"]
            for st in data["states"]
            if st["terminal"] is not None
        }
        transitions = {}
        for edge in data["edges"]:
            key = (int(edge["from"]), edge["winner"])
            if key in transitions:
                raise StructureError(f"duplicate edge for {key}")
            transitions[key] = tuple(
                (int(leg["state"]), float(leg["prob"])) for leg in edge["to"]
            )
        start = int(data["start"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"malformed automaton document: {exc}") from exc
    return ContestAutomaton(
        start=start, transitions=transitions, terminal=terminal, labels=labels
    )
