"""Contest-rule automata: builders, diagnostics, extension, serialization."""

import hashlib
import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from contestlab import (
    MK1,
    ContestAutomaton,
    ContestSpec,
    DomainError,
    IncumbencySpec,
    StructureError,
    automaton_from_dict,
    automaton_to_dict,
    build_best_of,
    build_consecutive_win,
    build_extension,
    build_mk1,
    build_single_battle,
    build_tug_of_war,
    check_exchangeable,
    check_symmetric,
    default_exchangeability_depth,
    isomorphic,
    min_length,
    minimize,
    solve,
    sweep,
)
from contestlab.automaton import (
    _PROB_TOL,
    WINNERS,
    _classes,
    _forward_distances,
    _hops,
    restrict,
    swap_involution,
    terminal_distances,
)
from contestlab.success import Tullock


def walk(m, outcomes):
    """Follow a deterministic outcome sequence from the start state."""
    s = m.start
    for w in outcomes:
        s = m.step(s, w)
    return s


class TestBestOf:
    def test_terminal_history_quotient(self):
        m = build_best_of(1)
        # the four quotient terminal histories of a first-to-two race
        for hist, winner in [("AA", "A"), ("BAA", "A"), ("ABB", "B"), ("BB", "B")]:
            s = walk(m, hist)
            assert m.winner(s) == winner
            # no proper prefix terminates
            for cut in range(1, len(hist)):
                assert not m.is_terminal(walk(m, hist[:cut]))

    def test_state_counts(self):
        m = build_best_of(1)
        assert m.num_states == 8  # 3x3 score grid minus the impossible corner
        assert len(m.nonterminal_states) == 4
        assert len(m.terminal_states) == 4

    def test_single_battle(self):
        m = build_best_of(0)
        assert len(m.nonterminal_states) == 1
        assert min_length(m) == 1

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_min_length(self, k):
        assert min_length(build_best_of(k)) == k + 1

    def test_acyclic(self):
        m = build_best_of(3)
        # every transition strictly increases the total score
        for (s, _w), dist in m.transitions.items():
            for t, _p in dist:
                assert m.labels[t] != m.labels[s]


class TestTugOfWar:
    def test_terminal_histories(self):
        m = build_tug_of_war(2)
        for hist, winner in [("AA", "A"), ("BB", "B"), ("ABBB", "B"), ("BAAA", "A")]:
            assert m.winner(walk(m, hist)) == winner

    def test_single_battle_margin_one(self):
        m = build_tug_of_war(1)
        assert len(m.nonterminal_states) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_min_length(self, n):
        assert min_length(build_tug_of_war(n)) == n

    def test_reset_layer(self):
        m = build_tug_of_war(3, reset_p=0.5)
        center = m.start
        for s in m.nonterminal_states:
            for w in ("A", "B"):
                dist = m.successors(s, w)
                assert abs(sum(p for _t, p in dist) - 1.0) < 1e-12
                targets = dict(dist)
                landing = [t for t in targets if not m.is_terminal(t) and t != center]
                if landing:  # a nonterminal move away from center carries the reset leg
                    assert targets.get(center) == pytest.approx(0.5)

    def test_head_start(self):
        m = build_tug_of_war(3, head_start=2)
        assert m.labels[m.start] == "lead +2"
        with pytest.raises(DomainError):
            build_tug_of_war(3, head_start=3)
        with pytest.raises(DomainError):
            build_tug_of_war(2, reset_p=1.0)


class TestConsecutiveWin:
    def test_order_matters(self):
        m = build_consecutive_win(3)
        assert walk(m, "AAB") != walk(m, "ABA")

    def test_state_count(self):
        m = build_consecutive_win(2)
        assert m.num_states == 5

    def test_single_battle(self):
        assert len(build_consecutive_win(1).nonterminal_states) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_min_length(self, k):
        assert min_length(build_consecutive_win(k)) == k

    def test_loss_resets_streak(self):
        m = build_consecutive_win(4)
        assert m.labels[walk(m, "AAB")] == "streak -1"
        assert m.labels[walk(m, "AABA")] == "streak +1"


class TestMk1:
    def test_incumbent_ends_immediately(self):
        m = build_mk1(3)
        assert min_length(m) == 1
        assert m.winner(m.step(m.start, "A")) == "A"

    def test_chain_structure(self):
        m = build_mk1(2)
        # the challenger walks a chain of k states before victory
        assert len(m.nonterminal_states) == 2
        assert m.winner(walk(m, "BB")) == "B"
        assert m.winner(walk(m, "BA")) == "A"

    def test_k1_single_battle(self):
        m = build_mk1(1)
        assert len(m.nonterminal_states) == 1
        assert min_length(m) == 1

    def test_not_symmetric(self):
        assert not check_symmetric(build_mk1(2))


def _family_rules():
    """The 319 builder rules whose tables ``TestFamilyTables`` pins."""
    yield from (build_best_of(k) for k in range(13))
    for n in [*range(1, 13), 20, 40]:
        for reset in (0.0, 0.3, 0.7, 1 / 3):
            for head in sorted({-(n - 1), -1 if n > 1 else 0, 0, 1 if n > 1 else 0, n - 1}):
                yield build_tug_of_war(n, reset, head)
    for k in range(1, 26):
        yield build_consecutive_win(k)
        yield build_mk1(k)


class TestFamilyTables:
    def test_tables_are_pinned(self):
        # state ids, labels, chance bits and dict order together, hashed
        digest = hashlib.sha256()
        count = 0
        for m in _family_rules():
            table = (m.start, m.n, list(m.transitions.items()),
                     list(m.terminal.items()), list(m.labels.items()))
            digest.update(repr(table).encode())
            count += 1
        assert count == 319
        assert digest.hexdigest() == (
            "4f87dac85bd61a96c6dd0943cbcf6e667a4819b742b34a046d6d062148fa049a"
        )


def _random_rule(rng, most=7, split=0.1):
    """A valid rule of at most ``most`` states, its legs drawn at random, a
    share ``split`` of its lotteries a fair chance split."""
    while True:
        n = rng.randint(2, most)
        terminal = {s: rng.choice(WINNERS) for s in rng.sample(range(n), rng.randint(1, n - 1))}
        table = {}
        for s in sorted(set(range(n)) - set(terminal)):
            for w in WINNERS:
                if rng.random() < split:
                    table[(s, w)] = ((rng.randrange(n), 0.5), (rng.randrange(n), 0.5))
                else:
                    table[(s, w)] = ((rng.randrange(n), 1.0),)
        try:
            return ContestAutomaton(rng.randrange(n), table, terminal)
        except StructureError:
            continue


TIE_FREE = ((1.0,), (0.3, 0.7), (0.6, 0.4), (0.1, 0.3, 0.6))  # no two summed chances equal


def _mirrored_rule(rng, splits=TIE_FREE):
    """A symmetric rule of mirrored state pairs (2i + 1, 2i + 2) around a
    start that is its own mirror: each B-lottery lists the mirrored legs of
    its A-lottery in random order.  Each A-lottery's chances are one of
    ``splits``."""
    while True:
        n = 2 * rng.randint(1, 4) + 1
        mirror = [0, *(s + 1 if s % 2 else s - 1 for s in range(1, n))]
        terminal = {}
        for s in range(1, 2 * rng.randint(1, n // 2), 2):
            terminal[s] = rng.choice(WINNERS)
            terminal[mirror[s]] = WINNERS[1 - WINNERS.index(terminal[s])]
        table = {}
        for s in [0, *range(1, n, 2)]:
            if s in terminal:
                continue
            for w in WINNERS[:1] if s == 0 else WINNERS:
                chances = rng.choice(splits)
                dist = [(rng.randrange(n), p) for p in chances]
                image = [(mirror[t], p) for t, p in dist]
                rng.shuffle(image)
                table[(s, w)] = tuple(dist)
                table[(mirror[s], WINNERS[1 - WINNERS.index(w)])] = tuple(image)
        try:
            return ContestAutomaton(0, table, terminal)
        except StructureError:
            continue


def _verify_involution(m, sigma):
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


def _table_order_pairing(m):
    """The involution candidate of a labelling that reads each lottery's legs
    in table order: the i-th state of the breadth-first visit with A's
    lotteries first paired with the i-th with B's first."""

    def visit(winners):
        order = [m.start]
        for s in order:
            for w in () if s in m.terminal else winners:
                for t, _ in m.transitions[(s, w)]:
                    if t not in order:
                        order.append(t)
        return order

    return dict(zip(visit(WINNERS), visit(WINNERS[::-1])))


def _walk_every_history(m, depth):
    """``check_exchangeable`` by brute force: every history up to ``depth``
    in pre-order (A's outcome first), grouped by win counts; the witness is
    a group's first two distinct tags."""
    groups = {}
    stack = [((), m.start)]
    while stack:
        hist, s = stack.pop()
        if hist:
            tag = ("won", m.winner(s), len(hist)) if m.is_terminal(s) else ("state", s)
            group = groups.setdefault((hist.count("A"), hist.count("B")), {})
            group.setdefault(tag, hist)
            if len(group) > 1:
                return False, tuple(group.values())
        if m.is_terminal(s) or len(hist) >= depth:
            continue
        for w in ("B", "A"):
            dist = m.successors(s, w)
            if len(dist) > 1:
                return False, (hist + (w,), hist + (w,))
            stack.append((hist + (w,), dist[0][0]))
    return True, None


class TestExchangeability:
    def test_best_of_eleven_to_its_full_length(self):
        # best-of 11 lasts up to 21 battles; each (state, win counts) is
        # expanded once, so depth 24 is cheap
        assert check_exchangeable(build_best_of(11), 24) == (True, None)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_walk_over_every_history(self, seed):
        m = _random_rule(random.Random(seed))
        for depth in range(2, 9):
            assert check_exchangeable(m, depth) == _walk_every_history(m, depth)

    def test_families(self):
        assert check_exchangeable(build_best_of(2), 6) == (True, None)
        assert check_exchangeable(build_tug_of_war(3), 6) == (True, None)

    def test_consecutive_win_witness(self):
        ok, witness = check_exchangeable(build_consecutive_win(3), 3)
        assert not ok
        assert witness == (("A", "A", "B"), ("A", "B", "A"))

    def test_reset_layer_breaks_order_invariance(self):
        ok, witness = check_exchangeable(build_tug_of_war(3, reset_p=0.5), 4)
        assert not ok
        assert witness[0] == witness[1]  # same history, split by chance

    def test_state_is_score_function(self):
        # exchangeable families: state depends only on the win counts
        m = build_best_of(3)
        assert walk(m, "AABAB") == walk(m, "BABAA")

    def test_depth_default(self):
        assert 2 <= default_exchangeability_depth(build_best_of(1)) <= 12
        assert default_exchangeability_depth(build_tug_of_war(10)) == 12

    def test_depth_default_reaches_past_twelve_on_acyclic_rules(self):
        # A's first win ends the contest; B's enters a 12-state chain that
        # either winner steps along, after which AB and BA part ways.  The
        # longest history has 16 battles; the witnesses have 15.
        chain = list(range(1, 14))  # the chain, then the state past it
        table = {(0, "A"): 18, (0, "B"): 1}
        for s, t in zip(chain, chain[1:]):
            table[(s, "A")] = table[(s, "B")] = t
        table.update({
            (13, "A"): 14, (13, "B"): 15,
            (14, "A"): 18, (14, "B"): 16,
            (15, "A"): 17, (15, "B"): 19,
            (16, "A"): 18, (16, "B"): 18,
            (17, "A"): 19, (17, "B"): 19,
        })
        m = ContestAutomaton(0, {key: ((t, 1.0),) for key, t in table.items()}, {18: "A", 19: "B"})
        assert m.n == 20
        assert check_exchangeable(m, 12) == (True, None)  # the old default depth
        assert default_exchangeability_depth(m) == 16
        ok, witness = check_exchangeable(m, 16)
        assert not ok
        assert witness == (("B", *"A" * 13, "B"), ("B", *"A" * 12, "B", "A"))

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            check_exchangeable(build_best_of(1), 1)


class TestSymmetry:
    @pytest.mark.parametrize(
        "m",
        [
            build_best_of(2),
            build_tug_of_war(4),
            build_tug_of_war(3, reset_p=0.5),
            build_consecutive_win(3),
        ],
    )
    def test_symmetric_families(self, m):
        assert check_symmetric(m)

    def test_constructed_without_candidate(self):
        m = build_best_of(2)
        bare = ContestAutomaton(
            start=m.start,
            transitions=m.transitions,
            terminal=m.terminal,
            labels=m.labels,
        )
        assert check_symmetric(bare)

    def test_reset_lottery_from_json(self):
        # the involution follows the reset lotteries leg by leg
        m = automaton_from_dict(automaton_to_dict(build_tug_of_war(4, 0.3)))
        sigma = swap_involution(m)
        lead = {m.labels[s]: s for s in range(m.n)}
        for i in range(-4, 5):
            assert sigma[lead[f"lead {i:+d}"]] == lead[f"lead {-i:+d}"]
        assert check_symmetric(m)

    def test_relabelled_reset_rule(self, relabel):
        # the involution reads the table, not its ids or its chances' last bits
        ids = [(s + 3) % 9 for s in range(9)]
        m = automaton_from_dict(relabel(automaton_to_dict(build_tug_of_war(4, 0.7)), ids, 12))
        sigma = swap_involution(m)
        assert all(sigma[ids[s]] == ids[8 - s] for s in range(9))

    def test_same_winner_images_rejected(self):
        # the propagation pairs terminals 1 and 2, but both are A's wins
        m = ContestAutomaton(
            start=0,
            transitions={(0, "A"): ((1, 1.0),), (0, "B"): ((2, 1.0),)},
            terminal={1: "A", 2: "A"},
        )
        assert not _verify_involution(m, {0: 0, 1: 2, 2: 1})
        assert swap_involution(m) is None
        assert not check_symmetric(m)

    @pytest.mark.parametrize(
        "inner, pairs",
        [
            (
                {"0A": ((1, 1.0),), "0B": ((2, 1.0),), "1A": ((3, 0.5), (4, 0.5)),
                 "1B": ((0, 1.0),), "2A": ((0, 1.0),), "2B": ((6, 0.5), (5, 0.5))},
                ((1, 2), (3, 6), (4, 5)),
            ),
            # the labellings agree, but the ties pair 3 -> 6 -> 5 -> 4 -> 3:
            # an isomorphism onto the mirrored rule that is not its own inverse
            (
                {"0A": ((0, 0.5), (2, 0.5)), "0B": ((1, 0.5), (0, 0.5)), "1A": ((5, 0.5), (3, 0.5)),
                 "1B": ((4, 0.5), (6, 0.5)), "2A": ((5, 0.5), (3, 0.5)), "2B": ((6, 0.5), (4, 0.5))},
                ((1, 2), (3, 4), (5, 6)),
            ),
        ],
    )
    def test_tied_pairing_is_returned_only_as_an_involution(self, inner, pairs):
        # states 3-6 are interchangeable leaves; the rule is symmetric
        table = {(s, w): ((7 if w == "A" else 8, 1.0),) for s in range(3, 7) for w in WINNERS}
        table.update({(int(key[0]), key[1]): dist for key, dist in inner.items()})
        m = ContestAutomaton(start=0, transitions=table, terminal={7: "A", 8: "B"})
        swap = {0: 0}
        for a, b in pairs + ((7, 8),):
            swap[a], swap[b] = b, a
        assert _verify_involution(m, swap)
        sigma = swap_involution(m)
        assert sigma is None or _verify_involution(m, sigma)

    @pytest.mark.parametrize("chances, symmetric", [((0.5, 0.5), False), ((0.3, 0.7), True)])
    def test_lottery_chances_checked(self, chances, symmetric):
        # A's win lottery {1: 0.3, 2: 0.7} must map onto B's win lottery
        # leg by leg with the same chances; the leg order alone propagates
        # the candidate 1 <-> 2 in both cases
        m = ContestAutomaton(
            start=0,
            transitions={
                (0, "A"): ((1, 0.3), (2, 0.7)),
                (0, "B"): ((2, chances[0]), (1, chances[1])),
            },
            terminal={1: "A", 2: "B"},
        )
        assert _verify_involution(m, {0: 0, 1: 2, 2: 1}) is symmetric
        assert (swap_involution(m) is not None) is symmetric
        assert check_symmetric(m) is symmetric

    def test_involution_against_the_oracle(self):
        # a found involution always passes the oracle, and a pairing the
        # table-order labelling found is never lost; a mirrored rule is
        # found whatever order its B-lotteries list their legs in
        rng = random.Random(5)
        for _ in range(700):
            m = _random_rule(rng, most=8, split=0.3)
            sigma = swap_involution(m)
            assert sigma is None or _verify_involution(m, sigma)
            if _verify_involution(m, _table_order_pairing(m)):
                assert sigma is not None
        rng = random.Random(11)
        reordered = 0
        for _ in range(700):
            m = _mirrored_rule(rng)
            sigma = swap_involution(m)
            assert sigma is not None and _verify_involution(m, sigma)
            reordered += not _verify_involution(m, _table_order_pairing(m))
        assert reordered > 100
        # two unvisited targets of one lottery can tie: their bisimulation
        # classes order them, and only where those tie too (bisimilar
        # targets) does table order decide, so an involution can be missed
        rng = random.Random(12)
        found = 0
        for _ in range(700):
            m = _mirrored_rule(rng, TIE_FREE + ((0.5, 0.5), (0.25, 0.25, 0.5)))
            sigma = swap_involution(m)
            assert sigma is None or _verify_involution(m, sigma)
            if _verify_involution(m, _table_order_pairing(m)):
                assert sigma is not None
            found += sigma is not None
        assert found >= 699


class TestExtension:
    def test_two_extension_of_single_battle(self):
        ext = build_extension(build_single_battle(), 2)
        assert isomorphic(ext, build_best_of(1))

    def test_best_of_chain(self):
        ext = build_extension(build_single_battle(), 2)
        ext = build_extension(ext, 3)
        assert isomorphic(ext, build_best_of(2))
        ext = build_extension(ext, 4)
        assert isomorphic(ext, build_best_of(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tug_of_war_self_extension(self, n):
        assert isomorphic(build_extension(build_tug_of_war(n), n), build_tug_of_war(n))

    def test_subgame_after_split_is_base(self):
        base = build_tug_of_war(3)
        ext = build_extension(base, 3)
        inner = walk(ext, "AB")
        assert isomorphic(restrict(ext, inner), base, up_to_bisimulation=False)

    def test_requires_exchangeable_base(self):
        with pytest.raises(StructureError):
            build_extension(build_consecutive_win(3), 2)

    def test_requires_symmetric_base(self):
        with pytest.raises(StructureError):
            build_extension(build_mk1(2), 2)

    def test_min_length_bounded_by_n(self):
        # a pure streak of n ends it, but order-invariance can end the
        # contest sooner: AAAB ~ ABAA already decides the margin-2 subgame,
        # so the 5-extension of the margin-2 rule has a length-4 history
        ext = build_extension(build_tug_of_war(2), 5)
        assert min_length(ext) <= 5
        assert min_length(ext) == 4


class TestMinimizeIsomorphic:
    def test_minimize_merges_equivalent_terminals(self):
        m = build_best_of(1)
        q = minimize(m)
        assert len(q.terminal_states) == 2
        assert len(q.nonterminal_states) == len(m.nonterminal_states)

    @pytest.mark.parametrize(
        "chances",
        [(0.3, 0.3), (0.30000000000050003, 0.30000000000049987), (0.1234567882, 0.1234567888)],
    )
    def test_chances_within_tolerance_share_a_block(self, chances):
        # the two middle states differ only in A's win chance, by 6e-10 at
        # most, within _PROB_TOL: rounding to 12 digits once split the
        # second pair apart, and rounding to 9 digits would split the third
        table = {(0, "A"): ((1, 1.0),), (0, "B"): ((2, 1.0),)}
        for s, p in zip((1, 2), chances):
            table[(s, "A")] = ((3, p), (0, 1.0 - p))
            table[(s, "B")] = ((4, 1.0),)
        m = ContestAutomaton(0, table, {3: "A", 4: "B"})
        assert minimize(m).n == 4

    @pytest.mark.parametrize("mirror", [False, True])
    def test_classes_do_not_depend_on_state_ids(self, mirror, relabel):
        # a relabelled twin with rounded chances gives each state's image
        # its class, both give one partition, the quotient's, and on a
        # symmetric rule the mirrored numbering is the swapped rule's
        rng = random.Random(4)
        rules = [build_tug_of_war(5, 0.5, 2), build_tug_of_war(4, 0.7), build_best_of(2)]
        rules += [_mirrored_rule(rng, TIE_FREE + ((0.5, 0.5),)) for _ in range(20)]
        rules += [_random_rule(rng, most=9, split=0.4) for _ in range(20)]
        for rule in rules:
            ids = list(range(rule.n))
            rng.shuffle(ids)
            twin = automaton_from_dict(relabel(automaton_to_dict(rule), ids, 12))
            classes, twin_classes = _classes(rule, mirror), _classes(twin, mirror)
            assert [twin_classes[ids[s]] for s in range(rule.n)] == classes
            assert len(set(classes)) == minimize(rule).n
            sigma = swap_involution(rule)
            if mirror and sigma is not None:  # mirrored, a state reads as its image
                assert [classes[sigma[s]] for s in range(rule.n)] == _classes(rule)

    def test_isomorphic_negative(self):
        assert not isomorphic(build_best_of(1), build_best_of(2))
        # after (A, B) a margin-2 laggard needs two wins, a streak-2 laggard
        # loses the next battle outright: the rules genuinely differ
        assert not isomorphic(build_tug_of_war(2), build_consecutive_win(2))

    def test_isomorphic_up_to_state_ids(self, relabel):
        rule = build_best_of(2)
        twin = automaton_from_dict(relabel(automaton_to_dict(rule), range(rule.n - 1, -1, -1)))
        assert isomorphic(twin, rule, up_to_bisimulation=False)
        assert isomorphic(twin, rule)

    def test_chance_automata_rejected(self):
        with pytest.raises(StructureError):
            isomorphic(build_tug_of_war(2, reset_p=0.5), build_tug_of_war(2, reset_p=0.5))


class TestValidationAndJson:
    def test_round_trip(self):
        m = build_tug_of_war(3, reset_p=0.25)
        doc = automaton_to_dict(m)
        back = automaton_from_dict(doc)
        assert back.start == m.start
        assert back.terminal == m.terminal
        assert back.transitions == m.transitions

    def test_schema_shape(self):
        doc = automaton_to_dict(build_best_of(1))
        assert set(doc) == {"states", "start", "edges"}
        assert all(set(s) == {"id", "label", "terminal"} for s in doc["states"])
        assert all(set(e) == {"from", "winner", "to"} for e in doc["edges"])

    def test_rejects_unreachable(self):
        with pytest.raises(StructureError):
            ContestAutomaton(
                start=0,
                transitions={(0, "A"): ((1, 1.0),), (0, "B"): ((2, 1.0),)},
                terminal={1: "A", 2: "B", 3: "A"},
            )

    def test_rejects_terminal_with_outgoing(self):
        with pytest.raises(StructureError):
            ContestAutomaton(
                start=0,
                transitions={
                    (0, "A"): ((1, 1.0),),
                    (0, "B"): ((2, 1.0),),
                    (1, "A"): ((2, 1.0),),
                },
                terminal={1: "A", 2: "B"},
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(StructureError):
            ContestAutomaton(
                start=0,
                transitions={(0, "A"): ((1, 0.5), (0, 0.2)), (0, "B"): ((2, 1.0),)},
                terminal={1: "A", 2: "B"},
            )

    def test_rejects_all_infinite_play(self):
        with pytest.raises(StructureError):
            ContestAutomaton(
                start=0,
                transitions={(0, "A"): ((0, 1.0),), (0, "B"): ((0, 1.0),)},
                terminal={},
            )

    def test_rejects_malformed_document(self):
        with pytest.raises(StructureError):
            automaton_from_dict({"states": [], "edges": []})

    def test_rejects_unknown_winner(self):
        doc = automaton_to_dict(build_best_of(0))
        doc["edges"].append({"from": 0, "winner": "C", "to": [{"state": 1, "prob": 1.0}]})
        with pytest.raises(StructureError):
            automaton_from_dict(doc)

    def test_rejects_nan_probability(self):
        with pytest.raises(StructureError):
            ContestAutomaton(
                start=0,
                transitions={(0, "A"): ((1, math.nan),), (0, "B"): ((2, 1.0),)},
                terminal={1: "A", 2: "B"},
            )

    def test_rejects_non_numeric_probability(self):
        doc = automaton_to_dict(build_best_of(0))
        doc["edges"][0]["to"][0]["prob"] = "abc"
        with pytest.raises(StructureError):
            automaton_from_dict(doc)

    @pytest.mark.parametrize("field", ["start", "id", "from", "state"])
    def test_rejects_infinite_integer_field(self, field):
        # JSON's Infinity parses to a float that int() cannot convert
        doc = automaton_to_dict(build_best_of(0))
        if field == "start":
            doc["start"] = math.inf
        elif field == "id":
            doc["states"][1]["id"] = math.inf
        elif field == "from":
            doc["edges"][0]["from"] = math.inf
        else:
            doc["edges"][0]["to"][0]["state"] = math.inf
        with pytest.raises(StructureError):
            automaton_from_dict(doc)

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("states", {"id": -1, "label": "ghost", "terminal": "A"}),
            ("edges", {"from": -2, "winner": "A", "to": [{"state": 1, "prob": 1.0}]}),
        ],
    )
    def test_rejects_negative_state_id(self, key, entry):
        doc = automaton_to_dict(build_best_of(0))
        doc[key].append(entry)
        with pytest.raises(StructureError):
            automaton_from_dict(doc)


    def test_rejects_duplicate_state_id(self):
        # listed twice, state 1 would otherwise silently become B's terminal
        doc = automaton_to_dict(build_best_of(0))
        doc["states"].append({"id": 1, "label": "again", "terminal": "B"})
        with pytest.raises(StructureError, match="duplicate state id 1"):
            automaton_from_dict(doc)


def _single_battle(start=0, transitions=None, terminal=None, **changes):
    """The single-battle rule's table with entries changed (None drops one)."""
    table = {(0, "A"): ((1, 1.0),), (0, "B"): ((2, 1.0),), **(transitions or {})}
    ends = {1: "A", 2: "B", **(terminal or {})}
    return lambda: ContestAutomaton(
        start,
        {key: dist for key, dist in table.items() if dist is not None},
        {s: w for s, w in ends.items() if w is not None},
        **changes,
    )


def _edited_document(edit):
    """The single battle's JSON document, changed in place by ``edit``, then loaded."""

    def load():
        doc = automaton_to_dict(build_best_of(0))
        edit(doc)
        return automaton_from_dict(doc)

    return load


# one fault per row: the call, the error type and its exact message
_REFUSALS = {
    "no states": (
        lambda: ContestAutomaton(-1, {}, {}), StructureError, "automaton has no states"),
    "start out of range": (
        _single_battle(start=-1), StructureError, "start state out of range"),
    "negative id": (
        _single_battle(terminal={-1: "A"}), StructureError, "state ids must be nonnegative"),
    "invalid winner key": (
        _single_battle(transitions={(0, "C"): ((1, 1.0),)}),
        StructureError, "transition from 0 has invalid winner 'C'"),
    "terminal's invalid winner": (
        _single_battle(terminal={2: "X"}), StructureError, "terminal state 2 has invalid winner"),
    "terminal with legs": (
        _single_battle(transitions={(1, "A"): ((2, 1.0),)}),
        StructureError, "terminal state 1 has outgoing transitions"),
    "missing lottery": (
        _single_battle(transitions={(0, "B"): None}),
        StructureError, "nonterminal state 0 lacks a B-win transition"),
    "empty lottery": (
        _single_battle(transitions={(0, "A"): ()}),
        StructureError, "nonterminal state 0 lacks a A-win transition"),
    "gap in the ids": (
        _single_battle(terminal={10**12: "A"}, labels={0: "root"}),
        StructureError, "nonterminal state 3 lacks a A-win transition"),
    "unknown target": (
        _single_battle(transitions={(0, "A"): ((5, 1.0),)}),
        StructureError, "transition from 0 targets unknown state 5"),
    "negative target": (
        _single_battle(transitions={(0, "B"): ((1, 0.5), (-1, 0.5))}),
        StructureError, "transition from 0 targets unknown state -1"),
    **{
        f"{name} chance": (
            _single_battle(transitions={(0, "A"): ((1, 1.0), (2, p))}),
            StructureError, "chance probabilities must be positive and finite",
        )
        for name, p in [("zero", 0.0), ("negative", -0.5), ("NaN", math.nan), ("inf", math.inf)]
    },
    "lottery sum": (
        _single_battle(transitions={(0, "B"): ((1, 0.7), (2, 0.2))}),
        StructureError, "chance probabilities from state 0 on B sum to 0.8999999999999999"),
    "unreachable states": (
        _single_battle(terminal={3: "A", 4: "B"}),
        StructureError, "states not reachable from start: [3, 4]"),
    "no reachable terminal": (
        _single_battle(transitions={(0, "A"): ((0, 1.0),), (0, "B"): ((0, 1.0),)},
                       terminal={1: None, 2: None}),
        StructureError, "no terminal state is reachable: the contest is trivial"),
    "duplicate edge": (
        _edited_document(lambda doc: doc["edges"].append(doc["edges"][0])),
        StructureError, "duplicate edge for (0, 'A')"),
    "non-integral target": (
        _single_battle(transitions={(0, "A"): ((1.5, 1.0),)}),
        StructureError, "state id 1.5 is not an integer"),
    "non-integral start": (
        _single_battle(start=0.5), StructureError, "state id 0.5 is not an integer"),
    "non-integral terminal": (
        _single_battle(terminal={3.5: "B"}), StructureError, "state id 3.5 is not an integer"),
    "non-integral document target": (
        _edited_document(lambda doc: doc["edges"][0]["to"][0].update(state=1.9)),
        StructureError, "state id 1.9 is not an integer"),
    "non-integral document id": (
        _edited_document(lambda doc: doc["states"][2].update(id=2.5)),
        StructureError, "state id 2.5 is not an integer"),
    "non-integral document source": (
        _edited_document(lambda doc: doc["edges"][1].update({"from": 0.1})),
        StructureError, "state id 0.1 is not an integer"),
    "non-integral document start": (
        _edited_document(lambda doc: doc.update(start=1e-3)),
        StructureError, "state id 0.001 is not an integer"),
    "step on a lottery": (
        lambda: build_tug_of_war(2, reset_p=0.5).step(2, "A"),
        StructureError, "step is only defined for deterministic transitions"),
    "tug-of-war margin 0": (
        lambda: build_tug_of_war(0), DomainError, "margin must be a positive integer"),
    "mk1 k 0": (lambda: build_mk1(0), DomainError, "k must be a positive integer"),
    "extension order 1": (
        lambda: build_extension(build_single_battle(), 1),
        DomainError, "extension order must be an integer >= 2"),
    "extension of a chance base": (
        lambda: build_extension(build_tug_of_war(2, reset_p=0.5), 2),
        StructureError, "extension requires a chance-free base contest"),
}


# Each count a builder or spec takes, with the message that refuses it.
_COUNTS = {
    "best-of k": (build_best_of, "k must be a nonnegative integer"),
    "tug-of-war margin": (build_tug_of_war, "margin must be a positive integer"),
    "tug-of-war head start": (
        lambda x: build_tug_of_war(3, 0.0, x), "head start must satisfy |head_start| < margin"
    ),
    "consecutive-win k": (build_consecutive_win, "k must be a positive integer"),
    "mk1 k": (build_mk1, "k must be a positive integer"),
    "extension n": (
        lambda x: build_extension(build_best_of(1), x), "extension order must be an integer >= 2"
    ),
    "sweep parameter": (
        lambda x: sweep("best_of", [1, x], Tullock(1.0)), "sweep parameters must be integers"
    ),
    "incumbency rounds": (
        lambda x: IncumbencySpec(x, 0.5, MK1(2), Tullock(1.0)), "rounds must be a positive integer"
    ),
    "incumbency subcontest k": (
        lambda x: IncumbencySpec(2, 0.5, MK1(x), Tullock(1.0)),
        "subcontest parameter must be a positive integer",
    ),
}


class TestRefusals:
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, None], ids=["nan", "inf", "-inf", "none"]
    )
    @pytest.mark.parametrize("site", list(_COUNTS))
    def test_a_count_that_is_not_a_whole_number_is_refused(self, site, value):
        call, message = _COUNTS[site]
        with pytest.raises(DomainError) as refusal:
            call(value)
        assert str(refusal.value) == message

    @pytest.mark.parametrize("fault", list(_REFUSALS))
    def test_exact_message(self, fault):
        call, error, message = _REFUSALS[fault]
        with pytest.raises(error) as refusal:
            call()
        assert type(refusal.value) is error
        assert str(refusal.value) == message

    def test_valid_base_is_accepted(self):
        assert isomorphic(_single_battle()(), build_single_battle(), up_to_bisimulation=False)

    @pytest.mark.parametrize("seed", range(20))
    def test_reported_sum_matches_the_sequential_sum(self, seed):
        rng = random.Random(seed)
        chances = [rng.uniform(0.01, 0.6) for _ in range(rng.randint(2, 6))]
        total = 0.0
        for p in chances:  # the reference: left to right from 0.0
            total += p
        lottery = tuple((1 + i % 2, p) for i, p in enumerate(chances))
        build = _single_battle(transitions={(0, "B"): lottery})
        with pytest.raises(StructureError) as refusal:
            build()
        assert str(refusal.value) == f"chance probabilities from state 0 on B sum to {total}"

    def test_leg_table_is_built_once_read_only(self):
        m = build_tug_of_war(3, reset_p=0.5)
        assert m.legs is m.legs
        assert not any(array.flags.writeable for array in m.legs)

    @pytest.mark.parametrize(
        "build",
        [
            _single_battle(transitions={(0, "A"): ((math.nan, 1.0),)}),
            _single_battle(transitions={(0, "A"): ((1, "x"),)}),
            _single_battle(transitions={(0, "A"): 5}),
            _single_battle(transitions={(0, "A"): ((1,),)}),
            _single_battle(transitions={(0, "A"): ((math.inf, 1.0),)}),
            _single_battle(terminal={math.inf: "A"}),
            _single_battle(start="a"),
        ],
        ids=["NaN target", "text chance", "int lottery", "short leg", "inf target",
             "inf terminal", "text start"],
    )
    def test_malformed_python_input_is_typed(self, build):
        with pytest.raises(StructureError, match="^malformed automaton: "):
            build()


class TestDefaultLabels:
    def test_unlabelled_states_read_s_id(self):
        m = _single_battle(labels={0: "root"})()
        assert m.labels == {0: "root", 1: "s1", 2: "s2"}
        assert [st["label"] for st in automaton_to_dict(m)["states"]] == ["root", "s1", "s2"]
        assert restrict(m, 0).labels == m.labels
        assert minimize(m).labels == m.labels
        rows = solve(ContestSpec(m, Tullock(1.0))).to_dict()["states"]
        assert [row["label"] for row in rows] == ["root"]

    def test_extension_tags_base_states_by_their_label(self):
        ext = build_extension(_single_battle()(), 2)
        assert sorted(label for label in ext.labels.values() if label.startswith("sub:")) == [
            "sub:s0", "sub:s1", "sub:s2"
        ]


def _reference_hops(m, sources, reverse):
    """Breadth-first search over the transition table, edge by edge."""
    edges = [(s, t) for (s, _w), dist in m.transitions.items() for t, _p in dist]
    if reverse:
        edges = [(t, s) for s, t in edges]
    depth = dict.fromkeys(sources, 0)
    frontier = list(sources)
    while frontier:
        reached = [(a, b) for a, b in edges if a in frontier and b not in depth]
        for a, b in reached:
            depth.setdefault(b, depth[a] + 1)
        frontier = [b for _a, b in reached]
    return depth


class TestGraphSearches:
    @pytest.mark.parametrize(
        "m",
        [build_best_of(3), build_tug_of_war(4, 0.3), build_consecutive_win(3), build_mk1(3)],
        ids=["best_of", "tug_of_war", "consecutive_win", "mk1"],
    )
    def test_match_a_plain_search(self, m):
        assert terminal_distances(m) == _reference_hops(m, list(m.terminal), reverse=True)
        for s in range(m.n):
            assert _forward_distances(m, s) == _reference_hops(m, [s], reverse=False)



def _dijkstra_hops(n, sources, heads, tails):
    """``_hops`` as scipy's unweighted ``dijkstra`` gives it."""
    graph = csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
    dist = dijkstra(graph, unweighted=True, indices=sources, min_only=True)
    return np.where(np.isfinite(dist), dist, -1).astype(int)


_HOPS_RULES = [
    build_single_battle(),
    build_best_of(3),
    build_best_of(20),
    build_tug_of_war(4, 0.3),
    build_tug_of_war(30, 0.5, head_start=2),
    build_consecutive_win(6),
    build_mk1(5),
    build_extension(build_best_of(2), 3),
]


class TestHopsAgainstDijkstra:
    @pytest.mark.parametrize("m", _HOPS_RULES, ids=lambda m: f"{m.n}-states")
    def test_family_tables(self, m):
        self._check(m, random.Random(m.n))

    def test_random_rules(self):
        rng = random.Random(11)
        for _ in range(200):
            self._check(_random_rule(rng), rng)

    @staticmethod
    def _check(m, rng):
        legs = m.legs
        terminals = np.flatnonzero(legs.outcome >= 0)
        for heads, tails in ((legs.src, legs.tgt), (legs.tgt, legs.src)):
            source_sets = [[s] for s in range(m.n)]
            source_sets += [terminals, [], *(rng.sample(range(m.n), rng.randint(1, m.n))
                                             for _ in range(5))]
            for sources in source_sets:
                got = _hops(m.n, sources, heads, tails)
                assert got.tolist() == _dijkstra_hops(m.n, sources, heads, tails).tolist()
