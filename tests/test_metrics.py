"""Derived-metric tests: dissipation, win probabilities, certificates, sweeps."""

import math
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from contestlab import (
    MK1,
    ContestSpec,
    DegenerateChainError,
    DomainError,
    IncumbencySpec,
    Serial,
    Tullock,
    advantage_profile,
    automaton_from_dict,
    balanced_gain_ratio,
    build_best_of,
    build_consecutive_win,
    build_tug_of_war,
    extrapolate_supremum,
    incumbency_transient_dominance,
    parse_sf,
    rent_dissipation,
    simulate,
    solve,
    solve_consecutive_closed,
    solve_finite,
    solve_incumbency,
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


def _exact_solve(rows: dict, rhs: dict) -> dict:
    """Reference: x = rhs + M x over exact rationals, where rows[i] maps j to
    M[i][j] and rhs[i] lists the right-hand sides.  Gaussian elimination on
    the sparse rows, each step taking the state whose elimination writes the
    fewest entries."""
    holders = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            holders[j].add(i)
    left, stack = set(rows), []
    while left:
        k = min(left, key=lambda s: (len(rows[s]) * len(holders[s]), s))
        left.remove(k)
        row = rows[k]
        d = 1 - row.pop(k, 0)
        for j in row:
            holders[j].discard(k)
        holders[k].discard(k)
        for i in holders[k]:
            f = rows[i].pop(k) / d
            rhs[i] = [a + f * b for a, b in zip(rhs[i], rhs[k])]
            for j, m in row.items():
                rows[i][j] = rows[i].get(j, 0) + f * m
                holders[j].add(i)
        stack.append((k, d))
    x = {}
    for k, d in reversed(stack):
        x[k] = [
            (a + sum(m * x[j][c] for j, m in rows[k].items())) / d for c, a in enumerate(rhs[k])
        ]
    return x


def _legs(sol, spec, s):
    """Each leg of state s as (target, exact mass) under the solved odds."""
    pa = sol.states[s].win_prob_a
    m = spec.automaton
    for weight, w in ((pa, "A"), (1.0 - pa, "B")):
        for t, p in m.successors(s, w):
            yield t, Fraction(weight) * Fraction(p)


def _exact_reach(sol, spec, set_a, set_b) -> float:
    """Reference: the visited-bits system solved exactly."""
    m = spec.automaton
    nt = m.nonterminal_states

    def entry_bits(t, bits):
        return bits | (1 if t in set_a else 0) | (2 if t in set_b else 0)

    rows = {(s, bits): {} for s in nt for bits in range(3)}
    rhs = {key: [Fraction(0)] for key in rows}
    for s in nt:
        for t, mass in _legs(sol, spec, s):
            if m.is_terminal(t):
                continue
            for bits in range(3):
                nb = entry_bits(t, bits)
                if nb == 3:
                    rhs[(s, bits)][0] += mass
                else:
                    rows[(s, bits)][(t, nb)] = rows[(s, bits)].get((t, nb), 0) + mass
    return float(_exact_solve(rows, rhs)[(m.start, entry_bits(m.start, 0))][0])


def _exact_win(sol, spec) -> dict:
    """Reference: the absorption system solved exactly."""
    m = spec.automaton
    nt = m.nonterminal_states
    rows = {s: {} for s in nt}
    rhs = {s: [Fraction(0), Fraction(0)] for s in nt}
    for s in nt:
        for t, mass in _legs(sol, spec, s):
            if m.is_terminal(t):
                rhs[s]["AB".index(m.winner(t))] += mass
            else:
                rows[s][t] = rows[s].get(t, 0) + mass
    return {s: tuple(map(float, q)) for s, q in _exact_solve(rows, rhs).items()}


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


def assert_frontier(sol, spec, report):
    """``report`` is ``transient_dominance_auto``'s satisfied certificate at
    its exact frontier: it equals ``transient_dominance`` there, and the
    certificate fails just below, one ulp below a cut V/prize (0 cuts at
    the smallest positive float) and 2**-52 below a frontier at 1 - reach."""
    eps = report.epsilon
    assert report.satisfied
    assert report == transient_dominance(sol, spec, eps)
    nt = spec.automaton.nonterminal_states
    cuts = {max(v[s] / spec.prize, math.ulp(0.0)) for v in (sol.values_a, sol.values_b) for s in nt}
    if eps in cuts:
        below = math.nextafter(eps, 0.0)
    else:
        assert eps == 1.0 - report.reach_both_prob
        below = eps - 2.0**-52
    assert below <= 0.0 or not transient_dominance(sol, spec, below).satisfied


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
            # reset rings: play from the centre reaches an end so rarely that
            # I - M is singular to working precision, and a solve that forms
            # 1 - sum loses the exits (sparse LU reads 0.215 for each player
            # on 50/0.5 under r = 0.8)
            *(
                pytest.param(
                    lambda n=n, p=p, r=r: (
                        solve_tow_closed(n, p, 0, Tullock(r), 1.0),
                        ContestSpec(build_tug_of_war(n, p), Tullock(r), 1.0),
                    ),
                    id=f"tow-{n}-{p}-r{r}",
                )
                for n in (30, 50, 60, 100)
                for p in (0.3, 0.5)
                for r in (0.8, 1.0)
            ),
        ],
    )
    def test_probabilities_sum_to_one(self, make):
        sol, spec = make()
        q = win_probabilities(sol, spec)
        for s, (qa, qb) in q.items():
            assert abs(qa + qb - 1.0) <= 1e-12
        assert abs(q[spec.automaton.start][0] - 0.5) <= 1e-12

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
            # ill-conditioned near the ends of the ring: a dense LU solve sits
            # 3.4e-8 from the exact reference, the solve under test 1.3e-9
            (lambda: ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0), 1e-8),
        ],
    )
    def test_matches_dense_reference(self, make, tol):
        spec = make()
        sol = solve(spec)
        q = win_probabilities(sol, spec)
        for s, (qa, qb) in _exact_win(sol, spec).items():
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

    def test_reset_ring_memory_peak(self):
        # one dense 801x801 block alone is 5.1 MB
        spec = ContestSpec(build_tug_of_war(400, 0.3), SF1, 1.0)
        sol = solve(spec)
        for call in (win_probabilities, lambda sol, spec: transient_dominance(sol, spec, 0.05)):
            tracemalloc.start()
            try:
                call(sol, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

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
            # is about 1e9, and the solve under test sits 5e-11 from the
            # exact reference
            (lambda: ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0), 0.022857006744873051, 1e-8),
        ],
    )
    def test_reach_matches_dense_reference(self, make, eps, tol):
        spec = make()
        sol = solve(spec)
        report = transient_dominance(sol, spec, eps)
        assert 0.0 < report.reach_both_prob < 1.0
        ref = _exact_reach(
            sol, spec, frozenset(report.set_a_minus), frozenset(report.set_b_minus)
        )
        assert abs(report.reach_both_prob - ref) <= tol

    def test_auto_solves_each_weak_set_pair_once(self, monkeypatch):
        # the README rule's frontier lies a few cuts below the start's, so
        # the cuts below are bisected; on best-of the start's cut is the
        # frontier, and only the interval just below it is solved
        for spec, most in (
            (ContestSpec(build_tug_of_war(30, 0.5), SF1, 1.0), 6),
            (ContestSpec(build_best_of(20), parse_sf("tullock:r=0.8"), 1.0), 1),
        ):
            sol = solve(spec)
            used, solved, reached = [], [], []
            weak_sets, reach = metrics._weak_sets, metrics._reach_both_probability

            def spy_weak_sets(*args):
                pair = weak_sets(*args)
                used.append(pair)
                return pair

            def spy_reach(chain, start, set_a, set_b):
                solved.append((set_a, set_b))
                reached.append(reach(chain, start, set_a, set_b))
                return reached[-1]

            monkeypatch.setattr(metrics, "_weak_sets", spy_weak_sets)
            monkeypatch.setattr(metrics, "_reach_both_probability", spy_reach)
            report = transient_dominance_auto(sol, spec)
            distinct = list(dict.fromkeys(pair for pair in used if pair[0] and pair[1]))
            assert solved == distinct
            assert 1 <= sum(r < 1.0 for r in reached) <= most
            monkeypatch.undo()
            assert report == transient_dominance(sol, spec, report.epsilon)

    @pytest.mark.parametrize(
        "margin, reset_p, prize, epsilon",
        [
            (30, 0.5, 1.0, 0.022826016377063992),
            (10, 0.3, 1.0, 0.07734171165630813),
            (20, 0.5, 1.0, 0.033670786730624375),
            (40, 0.5, 1.0, 0.017134387096711123),
            (30, 0.5, 3.0, 0.022826016377063992),
            (20, 0.0, 1.0, None),
        ],
    )
    def test_auto_exact_frontier(self, margin, reset_p, prize, epsilon):
        spec = ContestSpec(build_tug_of_war(margin, reset_p), SF1, prize)
        sol = solve(spec)
        if reset_p == 0.0:  # values of exactly 0 cut at the smallest positive float
            assert sum(sol.values_a[s] == 0.0 for s in spec.automaton.nonterminal_states) == 12
        report = transient_dominance_auto(sol, spec)
        assert epsilon is None or report.epsilon == epsilon
        assert_frontier(sol, spec, report)

    def test_auto_zero_start_values(self):
        # the start's cut is the smallest positive float, since epsilon = 0
        # lies outside the certificate's domain
        spec = ContestSpec(build_best_of(1), SF1, 2.0)
        sol = solve(spec)
        sol.values_a[spec.automaton.start] = sol.values_b[spec.automaton.start] = 0.0
        report = transient_dominance_auto(sol, spec)
        assert report.epsilon == math.ulp(0.0)
        assert_frontier(sol, spec, report)

    @pytest.mark.parametrize(
        "rule", [build_best_of(0), build_consecutive_win(1)], ids=["best-of-0", "cw-1"]
    )
    def test_auto_nothing_certifies(self, rule):
        spec = ContestSpec(rule, SF1, 1.0)
        sol = solve(spec)
        report = transient_dominance_auto(sol, spec)
        assert not report.satisfied and report.epsilon == 0.249999999
        assert report == transient_dominance(sol, spec, 0.249999999)

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

    def test_rows_keep_parameter_order(self):
        table = sweep("consecutive_win", [5, 1, 3], SF1)
        assert table.column("param") == [5, 1, 3]
        alone = [sweep("consecutive_win", [k], SF1).rows[0]["V0_A"] for k in (5, 1, 3)]
        assert table.column("V0_A") == alone

    def test_row_errors_flagged(self):
        table = sweep("tug_of_war", [1, 2], Tullock(1.0), prize=1.0, reset_p=0.0)
        assert not table.errors
        with pytest.raises(DomainError):
            sweep("unknown", [1], SF1)

    def test_failing_row_flagged_in_place(self):
        table = sweep("best_of", [1, -1, 2], SF1)
        assert table.column("param") == [1, -1, 2]
        assert list(table.errors) == [-1]
        flagged = table.rows[1]
        assert all(math.isnan(flagged[c]) for c in SWEEP_COLUMNS if c != "param")
        assert all(math.isfinite(v) for row in (table.rows[0], table.rows[2]) for v in row.values())

    def test_non_integer_parameter_raises(self):
        with pytest.raises(DomainError, match="integers"):
            sweep("best_of", [1, 1.5], SF1)

    def test_invalid_prize_raises(self):
        # a spec-level domain error is no row failure: it stops the sweep
        with pytest.raises(DomainError, match="prize must be positive and finite"):
            sweep("best_of", [1, 2], SF1, prize=0.0)


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


class TestReportFields:
    """Every report serialises its dataclass fields, in declaration order."""

    @pytest.fixture(scope="class")
    def reports(self):
        spec = ContestSpec(build_best_of(2), SF1, 1.0)
        sol = solve(spec)
        ispec = IncumbencySpec(6, 0.5, MK1(2), SF1)
        irep = solve_incumbency(ispec)
        return {
            "dissipation": rent_dissipation(sol, spec),
            "certificate": transient_dominance(sol, spec, 0.2),
            "simulation": simulate(sol, spec, 100, 1),
            "incumbency": irep,
            "incumbency_certificate": incumbency_transient_dominance(irep, ispec, 0.1),
        }

    def test_keys_are_the_fields_in_order(self, reports):
        for report in reports.values():
            assert list(report.to_dict()) == [f.name for f in fields(report)]

    def test_shallow_values_and_overrides(self, reports):
        for name in ("certificate", "incumbency_certificate"):
            doc = reports[name].to_dict()
            assert doc["set_a_minus"] == list(reports[name].set_a_minus)
            assert type(doc["set_a_minus"]) is list and type(doc["set_b_minus"]) is list
        sim = reports["simulation"]
        doc = sim.to_dict()
        for key in ("visit_counts", "state_a_wins"):
            assert list(doc[key]) == [str(s) for s in sorted(getattr(sim, key))]
        inc = reports["incumbency"]
        doc = inc.to_dict()
        assert doc["dissipation"] == inc.dissipation.to_dict()
        assert doc["bias_ratio"] == inc.bias_ratio
        assert doc["w_plus"] is inc.w_plus

    def test_flagged_sweep_row_keeps_column_order(self):
        row = sweep("best_of", [-1], SF1).rows[0]
        assert list(row) == SWEEP_COLUMNS
        assert row["param"] == -1 and type(row["param"]) is int
