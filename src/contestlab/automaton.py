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
from typing import NamedTuple

import numpy as np

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


def _whole(x) -> bool:
    """Whether ``x`` is an integral number: NaN, inf and non-numbers are not."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _state_id(x) -> int:
    """``x`` as a state id: a value ``int`` would truncate is refused."""
    sid = int(x)
    if sid != x:
        raise StructureError(f"state id {x!r} is not an integer")
    return sid


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
        Human-readable tags such as "lead +2" or "streak -1"; a state left
        out reads "s{id}".

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
        try:
            self.start = _state_id(start)
            self.transitions = {  # a list display: a generator costs more per lottery
                (_state_id(s), w): tuple([(_state_id(t), float(p)) for t, p in dist])
                for (s, w), dist in transitions.items()
            }
            self.terminal = {_state_id(s): w for s, w in terminal.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructureError(f"malformed automaton: {exc}") from exc
        self.n = max([self.start, *self.terminal, *(s for s, _ in self.transitions)]) + 1
        self.legs = self._compile()
        given = labels or {}
        self.labels = {s: given.get(s, f"s{s}") for s in range(self.n)}

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

    def step(self, s: int, w: str) -> int:
        """Deterministic single-step transition; requires a one-point lottery."""
        dist = self.transitions[(s, w)]
        if len(dist) != 1:
            raise StructureError("step is only defined for deterministic transitions")
        return dist[0][0]

    # -- well-formedness -----------------------------------------------------
    def _compile(self) -> Legs:
        """The leg table (read-only arrays), built and checked in one pass."""
        if self.n == 0:
            raise StructureError("automaton has no states")
        if not 0 <= self.start < self.n:
            raise StructureError("start state out of range")
        if any(s < 0 for s, _ in self.transitions) or any(s < 0 for s in self.terminal):
            raise StructureError("state ids must be nonnegative")
        for s, w in self.transitions:
            if w not in WINNERS:
                raise StructureError(f"transition from {s} has invalid winner {w!r}")
            if s in self.terminal:
                raise StructureError(f"terminal state {s} has outgoing transitions")
        for s, w in self.terminal.items():
            if w not in WINNERS:
                raise StructureError(f"terminal state {s} has invalid winner")
        # the walk stops at the first missing lottery, so an id far past the
        # listed states costs no more than they do
        nt, lotteries = [], []
        for s in range(self.n):
            if s not in self.terminal:
                nt.append(s)
                for w in WINNERS:
                    dist = self.transitions.get((s, w))
                    if not dist:
                        raise StructureError(f"nonterminal state {s} lacks a {w}-win transition")
                    lotteries.append(dist)
        lottery = np.repeat(np.arange(len(lotteries)), [len(d) for d in lotteries])
        src = np.array(nt, dtype=np.intp)[lottery // 2]
        targets, chances = list(zip(*(leg for d in lotteries for leg in d))) or [()] * 2
        tgt = np.array(targets)  # dtype inferred: an id past int64 compares, never overflows
        unknown = np.flatnonzero((tgt < 0) | (tgt >= self.n))
        if unknown.size:
            i = unknown[0]
            raise StructureError(f"transition from {src[i]} targets unknown state {targets[i]}")
        prob = np.array(chances, dtype=float)
        if not np.all(np.isfinite(prob) & (prob > 0.0)):
            raise StructureError("chance probabilities must be positive and finite")
        total = np.bincount(lottery, prob, len(lotteries))  # summed in table order
        off = np.flatnonzero(np.abs(total - 1.0) > _PROB_TOL)
        if off.size:
            i = off[0]
            where = f"from state {nt[i // 2]} on {WINNERS[i % 2]}"
            raise StructureError(f"chance probabilities {where} sum to {float(total[i])}")
        row = np.full(self.n, -1, dtype=np.intp)
        row[nt] = np.arange(len(nt))
        outcome = np.full(self.n, -1, dtype=np.int8)
        outcome[list(self.terminal)] = [WINNERS.index(w) for w in self.terminal.values()]
        win = (lottery % 2).astype(np.int8)
        legs = Legs(src, win, tgt.astype(np.intp, copy=False), prob, row, outcome)
        unreached = np.flatnonzero(_hops(self.n, [self.start], src, legs.tgt) < 0)
        if unreached.size:
            raise StructureError(f"states not reachable from start: {unreached.tolist()}")
        if not self.terminal:  # every state is reached
            raise StructureError("no terminal state is reachable: the contest is trivial")
        for array in legs:
            array.flags.writeable = False
        return legs


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
    if not _whole(k) or k < 0:
        raise DomainError("k must be a nonnegative integer")
    goal = int(k) + 1

    def moves(score, w):
        i, j = score
        return (((i + 1, j) if w == "A" else (i, j + 1), 1.0),)

    return _rule(
        [(i, j) for i in range(goal + 1) for j in range(goal + 1) if (i, j) != (goal, goal)],
        (0, 0),
        lambda score: "A" if score[0] == goal else ("B" if score[1] == goal else None),
        moves,
        "score {0[0]}-{0[1]}".format,
    )


def build_tug_of_war(n: int, reset_p: float = 0.0, head_start: int = 0) -> ContestAutomaton:
    """Win by leading with n net battle wins; optional post-battle reset lottery.

    With reset probability p > 0, every battle outcome that does not end the
    contest returns the state to 0 with probability p.
    """
    if not _whole(n) or n < 1:
        raise DomainError("margin must be a positive integer")
    if not 0.0 <= reset_p < 1.0:
        raise DomainError("reset probability must lie in [0, 1)")
    if not _whole(head_start) or abs(head_start) >= n:
        raise DomainError("head start must satisfy |head_start| < margin")
    n = int(n)

    def moves(lead, w):
        nxt = lead + 1 if w == "A" else lead - 1
        if abs(nxt) == n or reset_p == 0.0 or nxt == 0:
            return ((nxt, 1.0),)
        return ((0, reset_p), (nxt, 1.0 - reset_p))

    return _rule(range(-n, n + 1), int(head_start), _outcome_at(n), moves, "lead {:+d}".format)


def build_consecutive_win(k: int) -> ContestAutomaton:
    """Win by taking k battles in a row; any loss resets the streak."""
    if not _whole(k) or k < 1:
        raise DomainError("k must be a positive integer")
    k = int(k)
    return _rule(
        range(-k, k + 1),
        0,
        _outcome_at(k),
        lambda i, w: ((max(i, 0) + 1 if w == "A" else min(i, 0) - 1, 1.0),),
        "streak {:+d}".format,
    )


def build_mk1(k: int) -> ContestAutomaton:
    """Biased race: player B must win k battles before player A wins one.

    Player A (the advantaged side) ends the contest with any single battle
    win; player B must run the table.  States count B's wins so far.
    """
    if not _whole(k) or k < 1:
        raise DomainError("k must be a positive integer")
    k = int(k)
    # ids: 0..k-1 nonterminal, k = B's victory, k+1 = A's victory
    names = {k: "challenger victory", k + 1: "incumbent victory"}
    return _rule(
        range(k + 2),
        0,
        {k: "B", k + 1: "A"}.get,
        lambda j, w: ((k + 1 if w == "A" else j + 1, 1.0),),
        lambda j: names.get(j, f"challenger wins {j}"),
    )


def _outcome_at(n: int):
    """The terminal rule of a signed count: +n is A's win, -n is B's."""
    return lambda i: "A" if i == n else ("B" if i == -n else None)


def _rule(keys, start, outcome, moves, label) -> ContestAutomaton:
    """The rule on a key space: the one assembly behind every builder here.

    A state's id is its key's position in ``keys``.  Each key is a terminal
    won by ``outcome(key)`` or, where that is None, plays A's lottery and
    then B's, ``moves(key, w)`` listing its ``(key, chance)`` legs;
    ``label(key)`` tags the state.
    """
    ids = {key: s for s, key in enumerate(keys)}
    transitions, terminal, labels = {}, {}, {}
    for key, s in ids.items():
        labels[s] = label(key)
        winner = outcome(key)
        if winner is not None:
            terminal[s] = winner
            continue
        for w in WINNERS:
            transitions[(s, w)] = [(ids[t], p) for t, p in moves(key, w)]
    return ContestAutomaton(ids[start], transitions, terminal, labels)


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
    tug-of-war reads ``reset_p`` and ``head_start``, the others refuse them."""
    if family == "tug_of_war":
        return build_tug_of_war(param, reset_p, head_start)
    _refuse_tow_options(family, reset_p, head_start)
    return _FAMILIES[family](param)


def _refuse_tow_options(family: str, reset_p: float = 0.0, head_start: int = 0) -> None:
    """Refuse a reset chance or a head start, which only the tug-of-war reads."""
    if family != "tug_of_war" and (reset_p != 0 or head_start != 0):
        raise DomainError(f"only the tug-of-war takes reset_p and head_start, not {family}")


def build_extension(m: ContestAutomaton, n: int) -> ContestAutomaton:
    """Order-insensitive enlargement: n straight wins from the start end the
    contest; once both players hold at least one win, play continues in ``m``
    shifted by one win per side.

    Requires ``m`` to be symmetric and exchangeable (certified to the default
    depth), which makes the entry point into ``m`` well defined.

    State ids run: the start, A's and B's streak terminals, the pure streaks
    (1 by A, 1 by B, 2 by A, ...), then the states of ``m`` that play can
    enter, in ``m``'s id order.
    """
    if not _whole(n) or n < 2:
        raise DomainError("extension order must be an integer >= 2")
    if not m.deterministic:
        raise StructureError("extension requires a chance-free base contest")
    if swap_involution(m) is None:
        raise StructureError("extension requires a symmetric base contest")
    ok, witness = check_exchangeable(m, default_exchangeability_depth(m))
    if not ok:
        raise StructureError(f"extension requires an exchangeable base contest: {witness}")
    n = int(n)
    # a broken streak of j wins enters m after j - 1 wins of the streak's holder
    entry = {}
    for on in WINNERS:
        t = m.start
        for j in range(1, n):
            entry[(j, on)] = t
            if not m.is_terminal(t):
                t = m.step(t, on)
    base = np.flatnonzero(_hops(m.n, sorted(set(entry.values())), m.legs.src, m.legs.tgt) >= 0)
    # keys: "start", the streak terminals "A" and "B", the streaks (j, holder)
    # and m's states (ints)
    chain = [(j, on) for j in range(1, n) for on in WINNERS]

    def outcome(key):
        if isinstance(key, int):
            return m.winner(key)
        return key if key in WINNERS else None

    def moves(key, w):
        if isinstance(key, int):
            return ((m.step(key, w), 1.0),)
        if key == "start":
            return (((1, w), 1.0),)
        j, on = key
        if w != on:
            return ((entry[key], 1.0),)
        return ((on if j + 1 == n else (j + 1, on), 1.0),)

    def label(key):
        if isinstance(key, int):
            return f"sub:{m.labels[key]}"
        if key == "start":
            return key
        if key in WINNERS:
            return f"streak {n} by {key}"
        return f"pure streak {key[0]} by {key[1]}"

    return _rule(["start", *WINNERS, *chain, *base.tolist()], "start", outcome, moves, label)


# ---------------------------------------------------------------------------
# Structural diagnostics
# ---------------------------------------------------------------------------


def terminal_distances(m: ContestAutomaton) -> dict:
    """Battles on the shortest history from each state to a terminal.

    A search from the terminals over the reversed legs; states that reach
    no terminal are absent from the result.
    """
    return _reached(_hops(m.n, np.flatnonzero(m.legs.outcome >= 0), m.legs.tgt, m.legs.src))


def _terminal_hops(m: ContestAutomaton) -> list:
    """Battles from every state to A's and to B's nearest terminal (-1: unreached)."""
    legs = m.legs
    return [_hops(m.n, np.flatnonzero(legs.outcome == code), legs.tgt, legs.src) for code in (0, 1)]


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
    # breadth-first over CSR rows: each node's tails sit in tails[indptr[u]:indptr[u + 1]]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))]).tolist()
    tails = np.asarray(tails)[np.argsort(heads, kind="stable")].tolist()
    depth = [-1] * n
    frontier = [int(s) for s in sources]
    for s in frontier:
        depth[s] = 0
    level = 0
    while frontier:
        level += 1
        reached = []
        for u in frontier:
            for v in tails[indptr[u]:indptr[u + 1]]:
                if depth[v] < 0:
                    depth[v] = level
                    reached.append(v)
        frontier = reached
    return np.array(depth)


def _levels(done: np.ndarray, heads, tails):
    """Yield, pass by pass, the mask of the nodes not ``done`` whose every
    edge heads -> tails ends at a done node, then mark them done in place;
    stop when a pass finds none, leaving the cyclic remainder undone."""
    while not done.all():
        waiting = np.bincount(heads[~done[tails]], minlength=len(done)) > 0
        ready = ~done & ~waiting
        if not ready.any():
            return
        yield ready
        done |= ready


def _reached(depth: np.ndarray) -> dict:
    """The reached nodes of a ``_hops`` result and their distances."""
    reached = np.flatnonzero(depth >= 0)
    return dict(zip(reached.tolist(), depth[reached].tolist()))


def default_exchangeability_depth(m: ContestAutomaton) -> int:
    """On an acyclic rule the longest terminal history from the start (its
    pass under ``_levels``, at least 2), so the verdict is exact; on a
    cyclic one twice the start-state eccentricity, clamped to [2, 12]."""
    for passes, ready in enumerate(_levels(m.legs.row < 0, m.legs.src, m.legs.tgt), 1):
        if ready[m.start]:
            return max(2, passes)
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
    (B's first with ``mirror``).  A lottery lists its targets once with
    summed chances: visited ones by position, new ones by chance, largest
    first, then by bisimulation class (``_classes``), then by table order.
    The shape holds by position a terminal's winner (swapped with ``mirror``)
    or the target positions of a state's two lotteries; the chances follow.
    """
    winners = WINNERS[::-1] if mirror else WINNERS
    position = {m.start: 0}
    order, shape, chances, classes = [m.start], [], [], None
    for s in order:  # the visit order is the search's queue
        if s in m.terminal:
            shape.append(winners[WINNERS.index(m.terminal[s])])
            continue
        lotteries = []
        for w in winners:
            summed = _summed(m.transitions[(s, w)])
            targets = list(summed)
            if len(targets) > 1:
                targets.sort(key=lambda t: (position.get(t, math.inf), -summed[t]))
            old = len(order)  # the states visited before this lottery
            for t in targets:
                if t not in position:
                    position[t] = len(order)
                    order.append(t)
            if len(order) - old > 1 and len(set(map(summed.get, new := order[old:]))) < len(new):
                classes = classes or _classes(m, mirror)  # found at the first tie
                new.sort(key=lambda t: (-summed[t], classes[t]))
                order[old:] = targets[old - len(order):] = new
                position.update(zip(new, range(old, len(order))))
            chances += map(summed.get, targets)
            lotteries.append(tuple(map(position.get, targets)))
        shape.append(tuple(lotteries))
    return order, tuple(shape), chances


def _summed(dist: tuple, key=None) -> dict:
    """A lottery's chances summed by target, or by ``key[target]``."""
    summed: dict = {}
    for t, p in dist if key is None else ((key[t], p) for t, p in dist):
        summed[t] = summed.get(t, 0.0) + p
    return summed


def _same_form(form: tuple, other: tuple) -> bool:
    """Whether two canonical labellings have one shape and chances within
    ``_PROB_TOL``: one table up to state ids, leg order and chance rounding."""
    return form[1] == other[1] and not np.any(np.abs(np.subtract(form[2], other[2])) > _PROB_TOL)


def swap_involution(m: ContestAutomaton) -> dict | None:
    """Find the A/B-swapping state involution, or None if the rule is biased.

    The swap fixes the start and maps A's lottery onto B's: the rule is
    symmetric when its canonical and mirrored labellings agree, and the
    involution pairs them position by position, unless bisimilar new targets
    tie and make that pairing an isomorphism that is not its own inverse.
    """
    form, mirror = _canonical(m), _canonical(m, mirror=True)
    sigma = dict(zip(form[0], mirror[0]))
    return sigma if _same_form(form, mirror) and all(sigma[sigma[s]] == s for s in sigma) else None


def check_symmetric(m: ContestAutomaton) -> bool:
    """True when swapping the player labels maps the rule onto itself."""
    return swap_involution(m) is not None


# ---------------------------------------------------------------------------
# Bisimulation quotient and isomorphism
# ---------------------------------------------------------------------------


def _classes(m: ContestAutomaton, mirror: bool = False) -> list:
    """Each state's probabilistic bisimulation class (Larsen & Skou, 1991),
    numbered by its signature's rank, which does not depend on state ids.

    The first colours are the battles to A's and to B's terminals (swapped
    with ``mirror``): bisimilar states share them, and they spare the rounds
    that refining from the terminals' winners takes on a ring.  A round's
    signature is a state's colour, then, per battle winner (B first with
    ``mirror``), its summed chance into each colour, keyed by rank among the
    round's chances, a gap over ``_PROB_TOL`` starting a new key.  It leads
    with the colour, so the numbers repeat once no class splits.
    """
    winners = WINNERS[::-1] if mirror else WINNERS
    colour = list(zip(*(d.tolist() for d in _terminal_hops(m)[::-1 if mirror else 1])))
    while True:
        sums = {k: _summed(dist, colour) for k, dist in m.transitions.items()}
        key, last = {}, -math.inf
        for p in sorted({p for lot in sums.values() for p in lot.values()}):
            key[p], last = key.get(last, -1) + (p - last > _PROB_TOL), p
        keyed = {k: tuple(sorted((b, key[p]) for b, p in lot.items())) for k, lot in sums.items()}
        signature = [(c, *(keyed.get((s, w)) for w in winners)) for s, c in enumerate(colour)]
        rank = {x: i for i, x in enumerate(sorted(set(signature)))}
        colour, previous = [rank[x] for x in signature], colour
        if colour == previous:
            return colour


def minimize(m: ContestAutomaton) -> ContestAutomaton:
    """Behavioral quotient: bisimilar states (``_classes``) merged at the first."""
    first: dict = {}
    part = {s: first.setdefault(c, s) for s, c in enumerate(_classes(m))}
    return _rule(
        sorted(first.values()), part[m.start], m.winner,
        lambda s, w: sorted(_summed(m.successors(s, w), part).items()), lambda s: m.labels[s],
    )


def isomorphic(a: ContestAutomaton, b: ContestAutomaton, up_to_bisimulation: bool = True) -> bool:
    """Whether two chance-free rules have one canonical labelling, bisimilar
    states merged first (``minimize``) with ``up_to_bisimulation``."""
    if up_to_bisimulation:
        a, b = minimize(a), minimize(b)
    if not (a.deterministic and b.deterministic):
        raise StructureError("isomorphism check supports chance-free automata only")
    return _same_form(_canonical(a), _canonical(b))


def restrict(m: ContestAutomaton, new_start: int) -> ContestAutomaton:
    """The subcontest rooted at ``new_start`` (reachable subgraph)."""
    reach = sorted(_forward_distances(m, new_start))
    return _rule(reach, new_start, m.winner, m.successors, lambda s: m.labels[s])


# ---------------------------------------------------------------------------
# JSON schema:
# {"states":[{"id":int,"label":str,"terminal":null|"A"|"B"}], "start":int,
#  "edges":[{"from":int,"winner":"A"|"B","to":[{"state":int,"prob":float}]}]}
# ---------------------------------------------------------------------------


def automaton_to_dict(m: ContestAutomaton) -> dict:
    states = [{"id": s, "label": m.labels[s], "terminal": m.winner(s)} for s in range(m.n)]
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
        labels, terminal, transitions = {}, {}, {}
        for st in data["states"]:
            sid = _state_id(st["id"])
            if sid in labels:
                raise StructureError(f"duplicate state id {sid}")
            labels[sid] = str(st["label"])
            if st["terminal"] is not None:
                terminal[sid] = st["terminal"]
        for edge in data["edges"]:
            key = (_state_id(edge["from"]), edge["winner"])
            if key in transitions:
                raise StructureError(f"duplicate edge for {key}")
            transitions[key] = [(_state_id(leg["state"]), float(leg["prob"])) for leg in edge["to"]]
        start = _state_id(data["start"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"malformed automaton document: {exc}") from exc
    return ContestAutomaton(
        start=start, transitions=transitions, terminal=terminal, labels=labels
    )
