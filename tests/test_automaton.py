"""Contest-rule automata: builders, diagnostics, extension, serialization."""

import hashlib
import math
import random

import pytest

from contestlab import (
    ContestAutomaton,
    DomainError,
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
)
from contestlab.automaton import (
    WINNERS,
    _forward_distances,
    _verify_involution,
    restrict,
    swap_involution,
    terminal_distances,
)


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


def _random_rule(rng):
    """A valid rule of at most seven states, its legs drawn at random, about
    one lottery in ten a fair chance split."""
    while True:
        n = rng.randint(2, 7)
        terminal = {s: rng.choice(WINNERS) for s in rng.sample(range(n), rng.randint(1, n - 1))}
        table = {}
        for s in sorted(set(range(n)) - set(terminal)):
            for w in WINNERS:
                if rng.random() < 0.1:
                    table[(s, w)] = ((rng.randrange(n), 0.5), (rng.randrange(n), 0.5))
                else:
                    table[(s, w)] = ((rng.randrange(n), 1.0),)
        try:
            return ContestAutomaton(rng.randrange(n), table, terminal)
        except StructureError:
            continue


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

