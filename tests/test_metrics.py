"""Derived-metric tests: dissipation, win probabilities, certificates, sweeps."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from contestlab import (
    ContestSpec,
    DegenerateChainError,
    DomainError,
    Serial,
    Tullock,
    advantage_profile,
    automaton_from_dict,
    balanced_gain_ratio,
    build_best_of,
    build_consecutive_win,
    build_tug_of_war,
    extrapolate_supremum,
    parse_sf,
    rent_dissipation,
    solve,
    solve_consecutive_closed,
    solve_finite,
    solve_tow_closed,
    sweep,
    transient_dominance,
    transient_dominance_auto,
    win_probabilities,
)
from contestlab import metrics
from contestlab.automaton import ContestAutomaton
from contestlab.metrics import SWEEP_COLUMNS

SF1 = Tullock(1.0)


def _race_doc(k: int, bonus_p: float) -> dict:
    """First to k battle wins, where a win jumps two steps with chance bonus_p."""
    ids, states, edges = {}, [], []

    def sid(a, b):
        if (a, b) not in ids:
            ids[(a, b)] = len(ids)
            terminal = "A" if a >= k else "B" if b >= k else None
            states.append({"id": ids[(a, b)], "label": f"{a}-{b}", "terminal": terminal})
        return ids[(a, b)]

    start = sid(0, 0)
    for a in range(k):
        for b in range(k):
            for winner, da, db in (("A", 1, 0), ("B", 0, 1)):
                one, two = (a + da, b + db), (a + 2 * da, b + 2 * db)
                legs = [{"state": sid(*one), "prob": 1.0}]
                if max(two) <= k:
                    legs = [
                        {"state": sid(*one), "prob": 1.0 - bonus_p},
                        {"state": sid(*two), "prob": bonus_p},
                    ]
                edges.append({"from": sid(a, b), "winner": winner, "to": legs})
    return {"states": states, "start": start, "edges": edges}


def _dense_reach(sol, spec, set_a, set_b) -> float:
    """Reference: the visited-bits system written out densely and solved by LU."""
    m = spec.automaton
    nt = list(m.nonterminal_states)
    index = {(s, bits): 3 * i + bits for i, s in enumerate(nt) for bits in range(3)}

    def entry_bits(t, bits):
        return bits | (1 if t in set_a else 0) | (2 if t in set_b else 0)

    M = np.zeros((len(index), len(index)))
    rhs = np.zeros(len(index))
    for s in nt:
        pa = sol.states[s].win_prob_a
        for bits in range(3):
            row = index[(s, bits)]
            for weight, w in ((pa, "A"), (1.0 - pa, "B")):
                for t, p in m.successors(s, w):
                    if m.is_terminal(t):
                        continue
                    nb = entry_bits(t, bits)
                    if nb == 3:
                        rhs[row] += weight * p
                    else:
                        M[row, index[(t, nb)]] += weight * p
    x = np.linalg.solve(np.eye(len(index)) - M, rhs)
    return float(x[index[(m.start, entry_bits(m.start, 0))]])


def _dense_win(sol, spec) -> dict:
    """Reference: the absorption system written out densely and solved by LU."""
    m = spec.automaton
    nt = list(m.nonterminal_states)
    index = {s: i for i, s in enumerate(nt)}
    M = np.zeros((len(nt), len(nt)))
    absorb = np.zeros((len(nt), 2))
    for s in nt:
        pa = sol.states[s].win_prob_a
        for weight, w in ((pa, "A"), (1.0 - pa, "B")):
            for t, p in m.successors(s, w):
                if m.is_terminal(t):
                    absorb[index[s], "AB".index(m.winner(t))] += weight * p
                else:
                    M[index[s], index[t]] += weight * p
    q = np.linalg.solve(np.eye(len(nt)) - M, absorb)
    return {s: tuple(q[index[s]]) for s in nt}


def _trap_doc(rng: random.Random) -> dict:
    """B's win from the start falls half the time into a 3-state trap whose
    three-leg lotteries, drawn uniformly from the simplex, never leave it."""

    def legs():
        lo, hi = sorted((rng.random(), rng.random()))
        return [{"state": t, "prob": p} for t, p in zip((3, 4, 5), (lo, hi - lo, 1.0 - hi))]

    states = [
        {"id": 0, "label": "start", "terminal": None},
        {"id": 1, "label": "A wins", "terminal": "A"},
        {"id": 2, "label": "B wins", "terminal": "B"},
    ] + [{"id": s, "label": f"trap {s}", "terminal": None} for s in (3, 4, 5)]
    edges = [
        {"from": 0, "winner": "A", "to": [{"state": 1, "prob": 1.0}]},
        {"from": 0, "winner": "B", "to": [{"state": 3, "prob": 0.5}, {"state": 2, "prob": 0.5}]},
    ] + [{"from": s, "winner": w, "to": legs()} for s in (3, 4, 5) for w in "AB"]
    return {"start": 0, "states": states, "edges": edges}


class TestRentDissipation:
    def test_best_of_three(self):
        spec = ContestSpec(build_best_of(1), SF1, 1.0)
        rep = rent_dissipation(solve_finite(spec), spec)
        assert rep.total_effort == pytest.approx(41 / 64, abs=1e-14)
        assert rep.thm1_bound == pytest.approx(15 / 16, abs=1e-15)
        assert rep.bound_satisfied
        assert rep.dissipation_ratio == pytest.approx(
            1 - (rep.v0_a + rep.v0_b), abs=1e-14
        )

    def test_single_battle(self):
        sol = solve_tow_closed(1, 0.0, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(1), SF1, 1.0)
        rep = rent_dissipation(sol, spec)
        assert rep.total_effort == pytest.approx(0.5, abs=1e-14)
        assert rep.thm1_bound == pytest.approx(0.75, abs=1e-15)

    def test_consecutive_two(self):
        sol = solve_consecutive_closed(2, SF1, 1.0)
        spec = ContestSpec(build_consecutive_win(2), SF1, 1.0)
        rep = rent_dissipation(sol, spec)
        assert rep.total_effort == pytest.approx(13 / 19, abs=1e-13)
        assert rep.thm1_bound == pytest.approx(15 / 16, abs=1e-15)

    def test_bound_strict_across_suite(self):
        # the nontriviality bound holds strictly on every solved instance
        cases = []
        for k in range(0, 8):
            spec = ContestSpec(build_best_of(k), SF1, 1.0)
            cases.append((solve_finite(spec), spec))
        for n in range(1, 12):
            spec = ContestSpec(build_tug_of_war(n), SF1, 1.0)
            cases.append((solve_tow_closed(n, 0.0, 0, SF1, 1.0), spec))
        for k in range(1, 12):
            spec = ContestSpec(build_consecutive_win(k), SF1, 1.0)
            cases.append((solve_consecutive_closed(k, SF1, 1.0), spec))
        for sol, spec in cases:
            rep = rent_dissipation(sol, spec)
            assert rep.dissipation_ratio < rep.thm1_bound

    def test_balanced_gain_ratio(self):
        assert balanced_gain_ratio(SF1) == 0.25
        assert balanced_gain_ratio(Serial(0.5)) == 0.25
        from contestlab import RatioForm

        value = balanced_gain_ratio(RatioForm("powsum", 0.5, 0.9))
        assert 0.0 < value < 0.5


class TestWinProbabilities:
    def test_margin_two_absorption(self):
        # Q(1) = p(1) + (1 - p(1)) / 2 with p(1) the ring-one win probability
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        q = win_probabilities(sol, spec)
        assert q[2][0] == pytest.approx(0.5, abs=1e-12)
        assert q[3][0] == pytest.approx(0.9069296691827464, abs=1e-10)

    def test_simulation_oracle(self):
        # crude path-count oracle for the absorption solve
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        q = win_probabilities(sol, spec)
        rng = np.random.default_rng(123)
        p1 = sol.states[3].win_prob_a
        p0 = 0.5
        wins = 0
        paths = 200000
        for _ in range(paths):
            state = 1
            while True:
                p = p1 if state == 1 else (p0 if state == 0 else 1 - p1)
                if rng.random() < p:
                    state += 1
                else:
                    state -= 1
                if state == 2:
                    wins += 1
                    break
                if state == -2:
                    break
        se = math.sqrt(q[3][0] * (1 - q[3][0]) / paths)
        assert abs(wins / paths - q[3][0]) <= 4 * se

    def test_best_of_one_step(self):
        spec = ContestSpec(build_best_of(1), SF1, 1.0)
        sol = solve_finite(spec)
        q = win_probabilities(sol, spec)
        m = spec.automaton
        s10 = next(s for s in m.states() if m.labels[s] == "score 1-0")
        assert q[s10][0] == pytest.approx(7 / 8, abs=1e-13)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (solve_tow_closed(3, 0.4, 0, SF1, 1.0), ContestSpec(build_tug_of_war(3, 0.4), SF1, 1.0)),
            lambda: (solve_consecutive_closed(4, SF1, 1.0), ContestSpec(build_consecutive_win(4), SF1, 1.0)),
        ],
    )
    def test_probabilities_sum_to_one(self, make):
        sol, spec = make()
        q = win_probabilities(sol, spec)
        for s, (qa, qb) in q.items():
            assert qa + qb == pytest.approx(1.0, abs=1e-10)
        assert q[spec.automaton.start][0] == pytest.approx(0.5, abs=1e-10)

    def test_degenerate_chain_rejected(self):
        # a hand-built chain whose battle probabilities trap play in a loop
        m = ContestAutomaton(
            start=0,
            transitions={
                (0, "A"): ((1, 1.0),),
                (0, "B"): ((1, 1.0),),
                (1, "A"): ((0, 1.0),),
                (1, "B"): ((2, 1.0),),
            },
            terminal={2: "B"},
        )
        spec = ContestSpec(m, SF1, 1.0)
        sol = solve(spec, tol=1e-9)
        sol.states[1] = sol.states[1].__class__(
            **{**sol.states[1].__dict__, "win_prob_a": 1.0}
        )
        with pytest.raises(DegenerateChainError):
            win_probabilities(sol, spec)

    @pytest.mark.parametrize(
        "make, tol",
        [
            (lambda: ContestSpec(build_best_of(3), SF1, 1.0), 1e-12),
            (lambda: ContestSpec(build_best_of(6), SF1, 1.0), 1e-12),
            (lambda: ContestSpec(build_consecutive_win(5), SF1, 1.0), 1e-12),
            (lambda: ContestSpec(build_tug_of_war(12, 0.4), SF1, 1.0), 1e-12),
            (
                lambda: ContestSpec(
                    automaton_from_dict(_race_doc(4, 0.3)), parse_sf("serial:alpha=0.5"), 1.0
                ),
                1e-12,
            ),
            # ill-conditioned near the ends of the ring: the sparse and the
            # dense solve each sit a few 1e-8 from a 40-digit solve
            (lambda: ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0), 1e-8),
        ],
    )
    def test_matches_dense_reference(self, make, tol):
        spec = make()
        sol = solve(spec)
        q = win_probabilities(sol, spec)
        for s, (qa, qb) in _dense_win(sol, spec).items():
            assert abs(q[s][0] - qa) <= tol
            assert abs(q[s][1] - qb) <= tol

    def test_memory_peak(self):
        # one dense 441x441 array at best-of 20 is 1.5 MB
        spec = ContestSpec(build_best_of(20), parse_sf("tullock:r=0.8"), 1.0)
        sol = solve(spec)
        tracemalloc.start()
        try:
            win_probabilities(sol, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trap_rejected_on_every_draw(self):
        # play that enters the trap never reaches a terminal, whatever the
        # lottery masses; rounding in them must not hide that
        for seed in range(100):
            spec = ContestSpec(
                automaton_from_dict(_trap_doc(random.Random(seed))), parse_sf("tullock:r=1"), 1.0
            )
            sol = solve(spec)
            for s in (3, 4, 5):
                sol.values_a[s] = 0.1
            with pytest.raises(DegenerateChainError):
                win_probabilities(sol, spec)
            with pytest.raises(DegenerateChainError):
                transient_dominance(sol, spec, 0.2)


class TestAdvantageProfile:
    def test_tow_q_increasing(self):
        # nondecreasing everywhere; strictly increasing wherever the
        # probabilities have not saturated to 0 or 1 in float
        rows = advantage_profile("tug_of_war", 20, SF1)
        qs = [r["q_win"] for r in rows]
        assert all(b >= a for a, b in zip(qs[:-1], qs[1:]))
        for a, b in zip(qs[:-1], qs[1:]):
            if 1e-12 < a < 1 - 1e-12 and 1e-12 < b < 1 - 1e-12:
                assert b > a

    def test_tow_tail_identity(self):
        # partial-sum reconstruction against the value-based ratio, where the
        # values still resolve the tail in floats
        rows = advantage_profile("tug_of_war", 12, SF1)
        checked = 0
        for r in rows:
            if r["tail_ratio_values"] is not None and r["tail_ratio_partial_sums"] is not None:
                assert abs(r["tail_ratio_values"] - r["tail_ratio_partial_sums"]) <= 1e-9
                checked += 1
        assert checked >= 12

    def test_tow_tail_matches_increment_form(self):
        rows = advantage_profile("tug_of_war", 12, SF1)
        for r in rows:
            if r["tail_ratio"] is not None and r["tail_ratio"] > 1e-20:
                assert r["tail_ratio_partial_sums"] == pytest.approx(
                    r["tail_ratio"], rel=1e-9
                )

    def test_cw_lead_insecure(self):
        devs = []
        for k in range(2, 26):
            rows = advantage_profile("consecutive_win", k, SF1)
            q1 = next(r["q_win"] for r in rows if r["i"] == 1)
            devs.append(abs(q1 - 0.5))
        assert all(b < a for a, b in zip(devs[:-1], devs[1:]))

    def test_center_is_even(self):
        rows = advantage_profile("consecutive_win", 5, SF1)
        q0 = next(r["q_win"] for r in rows if r["i"] == 0)
        assert q0 == pytest.approx(0.5, abs=1e-10)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            advantage_profile("best_of", 2, SF1)


class TestTransientDominance:
    def test_reset_tow_certificate(self):
        sol = solve_tow_closed(30, 0.5, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0)
        report = transient_dominance_auto(sol, spec)
        assert report.satisfied
        assert report.reach_both_prob >= 1 - report.epsilon
        assert report.measured_total_effort >= report.implied_effort_floor
        assert report.set_a_minus and report.set_b_minus

    def test_plain_tow_fails_small_epsilon(self):
        sol = solve_tow_closed(5, 0.0, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(5), SF1, 1.0)
        report = transient_dominance(sol, spec, 0.01)
        assert not report.satisfied

    def test_trivial_certificate_at_high_dissipation(self):
        # with dissipation above 1 - eps both start values sit in the weak
        # sets and the reach probability is trivially 1
        sol = solve_tow_closed(30, 0.5, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0)
        effort = 1.0 - sol.v0_a - sol.v0_b
        eps = 1.0 - effort + 1e-3
        assert eps < 0.25
        report = transient_dominance(sol, spec, eps)
        assert spec.automaton.start in report.set_a_minus
        assert spec.automaton.start in report.set_b_minus
        assert report.reach_both_prob == 1.0
        assert report.satisfied

    def test_monotone_in_epsilon(self):
        sol = solve_tow_closed(12, 0.4, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(12, 0.4), SF1, 1.0)
        flags = [transient_dominance(sol, spec, e).satisfied for e in (0.02, 0.08, 0.2)]
        assert flags == sorted(flags)

    @pytest.mark.parametrize(
        "make, eps, tol",
        [
            (lambda: ContestSpec(build_best_of(3), SF1, 1.0), 0.1, 1e-12),
            (lambda: ContestSpec(build_best_of(6), SF1, 1.0), 0.1, 1e-12),
            (lambda: ContestSpec(build_consecutive_win(5), SF1, 1.0), 0.05, 1e-12),
            (lambda: ContestSpec(build_tug_of_war(12, 0.4), SF1, 1.0), 0.05, 1e-12),
            (
                lambda: ContestSpec(
                    automaton_from_dict(_race_doc(4, 0.3)), parse_sf("serial:alpha=0.5"), 1.0
                ),
                0.1,
                1e-12,
            ),
            # the README certificate frontier; the system's condition number
            # is about 1e9, so the two solves agree only to about 1e-9
            (lambda: ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0), 0.022857006744873051, 1e-8),
        ],
    )
    def test_reach_matches_dense_reference(self, make, eps, tol):
        spec = make()
        sol = solve(spec)
        report = transient_dominance(sol, spec, eps)
        assert 0.0 < report.reach_both_prob < 1.0
        ref = _dense_reach(
            sol, spec, frozenset(report.set_a_minus), frozenset(report.set_b_minus)
        )
        assert abs(report.reach_both_prob - ref) <= tol

    def test_auto_solves_each_weak_set_pair_once(self, monkeypatch):
        sol = solve_tow_closed(30, 0.5, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0)
        used, solved = [], []
        weak_sets, reach = metrics._weak_sets, metrics._reach_both_probability

        def spy_weak_sets(*args):
            pair = weak_sets(*args)
            used.append(pair)
            return pair

        def spy_reach(chain, start, set_a, set_b):
            solved.append((set_a, set_b))
            return reach(chain, start, set_a, set_b)

        monkeypatch.setattr(metrics, "_weak_sets", spy_weak_sets)
        monkeypatch.setattr(metrics, "_reach_both_probability", spy_reach)
        report = transient_dominance_auto(sol, spec)
        distinct = list(dict.fromkeys(pair for pair in used if pair[0] and pair[1]))
        assert solved == distinct
        assert len(used) > len(distinct)  # bisection steps share weak-set pairs
        monkeypatch.undo()
        assert report == transient_dominance(sol, spec, report.epsilon)

    def test_auto_memory_peak(self):
        # one dense (3n)x(3n) array at best-of 20 (3n = 1,323) alone is 14 MB
        spec = ContestSpec(build_best_of(20), parse_sf("tullock:r=0.8"), 1.0)
        sol = solve(spec)
        tracemalloc.start()
        try:
            transient_dominance_auto(sol, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_degenerate_chain_rejected(self):
        # B's win from the start falls into a trap half the time; the trap
        # loops on both winners, so play can stay there forever
        doc = {
            "start": 0,
            "states": [
                {"id": 0, "label": "start", "terminal": None},
                {"id": 1, "label": "A wins", "terminal": "A"},
                {"id": 2, "label": "B wins", "terminal": "B"},
                {"id": 3, "label": "trap", "terminal": None},
            ],
            "edges": [
                {"from": 0, "winner": "A", "to": [{"state": 1, "prob": 1.0}]},
                {"from": 0, "winner": "B", "to": [{"state": 3, "prob": 0.5}, {"state": 2, "prob": 0.5}]},
                {"from": 3, "winner": "A", "to": [{"state": 3, "prob": 1.0}]},
                {"from": 3, "winner": "B", "to": [{"state": 3, "prob": 1.0}]},
            ],
        }
        spec = ContestSpec(automaton_from_dict(doc), parse_sf("tullock:r=1"), 1.0)
        sol = solve(spec)
        sol.values_a[3] = 0.1
        with pytest.raises(DegenerateChainError):
            transient_dominance(sol, spec, 0.2)

    def test_epsilon_domain(self):
        sol = solve_tow_closed(2, 0.0, 0, SF1, 1.0)
        spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
        with pytest.raises(DomainError):
            transient_dominance(sol, spec, 0.3)
        with pytest.raises(DomainError):
            transient_dominance(sol, spec, 0.0)


class TestSweep:
    def test_columns_and_order(self):
        table = sweep("consecutive_win", range(1, 5), SF1)
        assert list(table.rows[0]) == SWEEP_COLUMNS
        assert table.column("param") == [1, 2, 3, 4]
        assert not table.errors

    def test_cw_trends(self):
        table = sweep("consecutive_win", range(1, 26), SF1)
        diss = table.column("dissipation")
        v0 = table.column("V0_A")
        assert all(b > a for a, b in zip(diss[:-1], diss[1:]))
        assert all(b < a for a, b in zip(v0[:-1], v0[1:]))
        assert v0[-1] < v0[1] / 3

    def test_tow_plateau(self):
        table = sweep("tug_of_war", range(1, 41), SF1)
        diss = table.column("dissipation")
        incs = [b - a for a, b in zip(diss[:-1], diss[1:])]
        assert all(d >= 0 for d in incs)
        positive = [d for d in incs if d > 0]
        assert all(b < a for a, b in zip(positive[:-1], positive[1:]))
        sup = extrapolate_supremum(diss)
        assert sup < 1.0
        assert sup == pytest.approx(0.6323058152830401, abs=1e-9)

    def test_best_of_bounded_below(self):
        table = sweep("best_of", range(0, 16), SF1)
        v0 = table.column("V0_A")
        assert all(v > 0.15 for v in v0)
        gaps = [abs(b - a) for a, b in zip(v0[:-1], v0[1:])]
        assert max(gaps[8:]) < 1e-6  # converged to the bounded-below limit

    def test_min_length_column(self):
        assert sweep("best_of", [3], SF1).rows[0]["min_length"] == 4
        assert sweep("tug_of_war", [3], SF1).rows[0]["min_length"] == 3
        assert sweep("consecutive_win", [3], SF1).rows[0]["min_length"] == 3
        assert sweep("mk1", [3], SF1).rows[0]["min_length"] == 1

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("CONTEST_LAB_THREADS", "2")
        table = sweep("consecutive_win", range(1, 6), SF1)
        assert table.column("param") == [1, 2, 3, 4, 5]

    def test_row_errors_flagged(self):
        table = sweep("tug_of_war", [1, 2], Tullock(1.0), prize=1.0, reset_p=0.0)
        assert not table.errors
        with pytest.raises(DomainError):
            sweep("unknown", [1], SF1)


class TestExtrapolation:
    def test_geometric_series(self):
        # increments 1/2^k: supremum of the partial sums is 2
        values = [2 - 0.5**k for k in range(12)]
        assert extrapolate_supremum(values) == pytest.approx(2.0, abs=1e-3)

    def test_saturated_tail(self):
        values = [0.0, 0.5, 0.6, 0.6, 0.6, 0.6]
        assert extrapolate_supremum(values) == 0.6

    def test_noncontracting(self):
        values = [float(k) for k in range(10)]
        assert math.isinf(extrapolate_supremum(values))

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            extrapolate_supremum([1.0, 0.5, 0.4, 0.3])
