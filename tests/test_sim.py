"""Monte Carlo simulation tests: reproducibility and statistical agreement."""

import json
import math

import numpy as np
import pytest

from contestlab import (
    ContestAutomaton,
    ContestSpec,
    DegenerateChainError,
    DomainError,
    Serial,
    Tullock,
    automaton_from_dict,
    automaton_to_dict,
    build_best_of,
    build_consecutive_win,
    build_tug_of_war,
    compare_sim_analytic,
    simulate,
    solve,
    solve_finite,
    solve_tow_closed,
    transient_dominance,
    transient_dominance_auto,
    win_probabilities,
)
from contestlab.cli import main
from contestlab.sim import _skip

SF1 = Tullock(1.0)

# The rule of tests/test_solver.py::TestCyclicEngine::test_idle_fallback_is_verified.
# Under serial:alpha=0.5 its reported equilibrium has A win states 0 and 3 and
# B win state 4 surely, so play cycles 0 -> 3 -> 0 and 0 -> 4 -> 3 -> 0 and
# never reaches a terminal.
TRAPPED = ContestAutomaton(
    start=0,
    transitions={
        (0, "A"): ((4, 0.1828665948649654), (3, 0.8171334051350346)),
        (0, "B"): ((2, 1.0),),
        (1, "A"): ((2, 1.0),),
        (1, "B"): ((3, 1.0),),
        (2, "A"): ((6, 1.0),),
        (2, "B"): ((5, 1.0),),
        (3, "A"): ((0, 1.0),),
        (3, "B"): ((2, 1.0),),
        (4, "A"): ((1, 1.0),),
        (4, "B"): ((3, 1.0),),
        (5, "A"): ((7, 1.0),),
        (5, "B"): ((1, 1.0),),
    },
    terminal={6: "A", 7: "B"},
)


@pytest.fixture(scope="module")
def best_of_three():
    spec = ContestSpec(build_best_of(1), SF1, 1.0)
    return solve_finite(spec), spec


@pytest.fixture(scope="module")
def margin_two():
    spec = ContestSpec(build_tug_of_war(2), SF1, 1.0)
    return solve_tow_closed(2, 0.0, 0, SF1, 1.0), spec


class TestDeterminism:
    def test_same_seed_identical_summary(self, best_of_three):
        sol, spec = best_of_three
        a = simulate(sol, spec, 20000, seed=42)
        b = simulate(sol, spec, 20000, seed=42)
        assert a == b

    def test_different_seed_differs(self, best_of_three):
        sol, spec = best_of_three
        a = simulate(sol, spec, 20000, seed=42)
        b = simulate(sol, spec, 20000, seed=43)
        assert a.mean_total_effort != b.mean_total_effort


# One three-leg lottery among one-leg ones, read from a document: the leg
# table is three columns wide, so the one-leg rows carry padding and the
# step loop compares two columns.
THREE_LEGS = {
    "start": 0,
    "states": [
        {"id": i, "label": f"s{i}", "terminal": t}
        for i, t in enumerate([None, None, None, None, "A", "B"])
    ],
    "edges": [
        {
            "from": 0,
            "winner": "A",
            "to": [
                {"state": 1, "prob": 0.5},
                {"state": 2, "prob": 0.3},
                {"state": 4, "prob": 0.2},
            ],
        },
        {"from": 0, "winner": "B", "to": [{"state": 2, "prob": 1.0}]},
        {"from": 1, "winner": "A", "to": [{"state": 4, "prob": 1.0}]},
        {"from": 1, "winner": "B", "to": [{"state": 3, "prob": 1.0}]},
        {"from": 2, "winner": "A", "to": [{"state": 3, "prob": 1.0}]},
        {"from": 2, "winner": "B", "to": [{"state": 5, "prob": 1.0}]},
        {"from": 3, "winner": "A", "to": [{"state": 4, "prob": 1.0}]},
        {"from": 3, "winner": "B", "to": [{"state": 5, "prob": 1.0}]},
    ],
}


class TestPinnedSummaries:
    """Seeded summaries recorded with earlier forms of the step loop: the
    draws, visits, efforts and lengths must stay the same bit for bit."""

    @pytest.mark.parametrize(
        "spec, paths, max_steps, expected",
        [
            pytest.param(
                ContestSpec(build_tug_of_war(3, 0.3), Tullock(0.8), 1.0),
                2000,
                10**6,
                {
                    "mean_total_effort": "0x1.48a740bdc8042p-1",
                    "se_total_effort": "0x1.43bfd8042c097p-7",
                    "win_freq_a": "0x1.fa5e353f7ced9p-2",
                    "se_win": "0x1.6e55d07681de6p-7",
                    "mean_length": "0x1.b50e560418937p+2",
                    "truncated_paths": 0,
                    "visit_counts": {1: 1246, 2: 2423, 3: 6403, 4: 2361, 5: 1225},
                    "state_a_wins": {1: 235, 2: 641, 3: 3187, 4: 1764, 5: 989},
                },
                id="tow-3-reset",
            ),
            pytest.param(
                ContestSpec(build_consecutive_win(3), SF1, 1.0),
                2000,
                10**6,
                {
                    "mean_total_effort": "0x1.9792c8302284fp-1",
                    "se_total_effort": "0x1.188c5dfd0f244p-7",
                    "win_freq_a": "0x1.03d70a3d70a3dp-1",
                    "se_win": "0x1.6e50efdb19b49p-7",
                    "mean_length": "0x1.15f3b645a1cacp+2",
                    "truncated_paths": 0,
                    "visit_counts": {1: 1323, 2: 2002, 3: 2000, 4: 2009, 5: 1352},
                    "state_a_wins": {1: 338, 2: 679, 3: 992, 4: 1352, 5: 1015},
                },
                id="cw-3",
            ),
            pytest.param(
                ContestSpec(build_tug_of_war(2, 0.3), Tullock(0.8), 1.0),
                2000,
                3,
                {
                    "mean_total_effort": "0x1.b36c4f443bb2bp-2",
                    "se_total_effort": "0x1.11c3cff7092efp-9",
                    "win_freq_a": "0x1.5810624dd2f1bp-2",
                    "se_win": "0x1.5a16f380a5bcbp-7",
                    "mean_length": "0x1.3c8b439581062p+1",
                    "truncated_paths": 658,
                    "visit_counts": {1: 912, 2: 3138, 3: 896},
                    "state_a_wins": {1: 242, 2: 1552, 3: 672},
                },
                id="tow-2-truncated",
            ),
            pytest.param(
                ContestSpec(build_best_of(1), SF1, 1.0),
                2000,
                10**6,
                {
                    "mean_total_effort": "0x1.46b851eb851ecp-1",
                    "se_total_effort": "0x1.3b35c5d69801dp-8",
                    "win_freq_a": "0x1.020c49ba5e354p-1",
                    "se_win": "0x1.6e587cc4a1498p-7",
                    "mean_length": "0x1.1f5c28f5c28f6p+1",
                    "truncated_paths": 0,
                    "visit_counts": {0: 2000, 1: 1008, 3: 992, 4: 490},
                    "state_a_wins": {0: 992, 1: 262, 3: 764, 4: 244},
                },
                id="bo3-one-leg",
            ),
            pytest.param(
                ContestSpec(automaton_from_dict(THREE_LEGS), Tullock(0.8), 1.0),
                2000,
                10**6,
                {
                    "mean_total_effort": "0x1.db2cfa8709e75p-2",
                    "se_total_effort": "0x1.2a1a1a3287beap-8",
                    "win_freq_a": "0x1.c20c49ba5e354p-2",
                    "se_win": "0x1.6baa62bec1d06p-7",
                    "mean_length": "0x1.19fbe76c8b439p+1",
                    "truncated_paths": 0,
                    "visit_counts": {0: 2000, 1: 527, 2: 1268, 3: 611},
                    "state_a_wins": {0: 1057, 1: 370, 2: 454, 3: 304},
                },
                id="three-legs",
            ),
            pytest.param(
                ContestSpec(build_tug_of_war(3, 0.3), Tullock(0.8), 1.0),
                1999,
                10**6,
                {
                    "mean_total_effort": "0x1.4931a1aad569fp-1",
                    "se_total_effort": "0x1.4637d4c83af64p-7",
                    "win_freq_a": "0x1.00a3ec05a2836p-1",
                    "se_win": "0x1.6e72a69d579b5p-7",
                    "mean_length": "0x1.b5b90d725c765p+2",
                    "truncated_paths": 0,
                    "visit_counts": {1: 1218, 2: 2418, 3: 6430, 4: 2376, 5: 1230},
                    "state_a_wins": {1: 221, 2: 679, 3: 3213, 4: 1809, 5: 1002},
                },
                id="tow-3-reset-odd-paths",
            ),
        ],
    )
    def test_seeded_summary(self, spec, paths, max_steps, expected):
        summary = simulate(solve(spec), spec, paths, seed=17, max_steps=max_steps)
        got = {k: getattr(summary, k) for k in expected}
        assert got == {
            k: float.fromhex(v) if isinstance(v, str) else v for k, v in expected.items()
        }


class TestSkippedLegBlocks:
    """Where every lottery has one leg the step loop passes over the legs'
    block unread; the summaries stay those of the loop that drew it."""

    @pytest.mark.parametrize("drawn", range(8))
    def test_skip_equals_drawing(self, drawn):
        for k in [*range(14), 1001]:
            read, skipped = (np.random.Generator(np.random.Philox(key=5)) for _ in "ab")
            read.random(drawn)
            skipped.random(drawn)
            read.random(k)
            _skip(skipped.bit_generator, drawn, k)
            assert read.random(9).tobytes() == skipped.random(9).tobytes()

    def test_summary_at_the_top_key(self):
        # recorded with the loop that drew one block of 2k uniforms a step and
        # stored every path's length and winner; at an odd path count most
        # skips start inside a part-used four-word buffer
        spec = ContestSpec(build_consecutive_win(3), SF1, 1.0)
        summary = simulate(solve(spec), spec, 999, seed=2**128 - 1)
        expected = {
            "mean_total_effort": "0x1.9453c44cf589bp-1",
            "se_total_effort": "0x1.7d8f8f36f43e7p-7",
            "win_freq_a": "0x1.00c4ce07b00c5p-1",
            "se_win": "0x1.032ea75eedf62p-6",
            "mean_length": "0x1.140d53488540dp+2",
            "truncated_paths": 0,
            "visit_counts": {1: 667, 2: 1005, 3: 999, 4: 990, 5: 648},
            "state_a_wins": {1: 169, 2: 338, 3: 483, 4: 648, 5: 501},
        }
        got = {k: getattr(summary, k) for k in expected}
        assert got == {
            k: float.fromhex(v) if isinstance(v, str) else v for k, v in expected.items()
        }


class TestStatisticalAgreement:
    def test_best_of_three_effort(self, best_of_three):
        sol, spec = best_of_three
        summary = simulate(sol, spec, 200000, seed=7)
        assert summary.truncated_paths == 0
        z = abs(summary.mean_total_effort - 41 / 64) / summary.se_total_effort
        assert z <= 4.0

    def test_symmetric_win_frequency(self, best_of_three):
        sol, spec = best_of_three
        summary = simulate(sol, spec, 200000, seed=11)
        se = math.sqrt(0.25 / summary.paths)
        assert abs(summary.win_freq_a - 0.5) <= 4 * se

    def test_margin_two_state_conditional(self, margin_two):
        sol, spec = margin_two
        summary = simulate(sol, spec, 200000, seed=5)
        report = compare_sim_analytic(summary, sol, spec)
        assert report["all_pass"]
        metrics = {row["metric"] for row in report["rows"]}
        assert "total_effort" in metrics and "win_freq_a" in metrics
        assert any(m.startswith("state_") for m in metrics)

    def test_lead_one_empirical_advantage(self, margin_two):
        # walk statistics from the lead-1 state against the absorption solve
        sol, spec = margin_two
        q = win_probabilities(sol, spec)[3][0]
        assert q == pytest.approx(0.9069296691827464, abs=1e-10)
        shifted = ContestSpec(build_tug_of_war(2, head_start=1), SF1, 1.0)
        sol_shift = solve_tow_closed(2, 0.0, 1, SF1, 1.0)
        summary = simulate(sol_shift, shifted, 200000, seed=13)
        se = math.sqrt(q * (1 - q) / summary.paths)
        assert abs(summary.win_freq_a - q) <= 4 * se

    def test_negative_control(self, best_of_three):
        # shifting the center value by 0.05 per player moves analytic effort
        # by 0.1, two orders of magnitude beyond the standard error
        sol, spec = best_of_three
        summary = simulate(sol, spec, 200000, seed=7)
        perturbed_effort = (1.0 - sol.v0_a - sol.v0_b) - 0.1
        z = abs(summary.mean_total_effort - perturbed_effort) / summary.se_total_effort
        assert z > 4.0

    def test_mean_length_consistency(self, margin_two):
        sol, spec = margin_two
        summary = simulate(sol, spec, 100000, seed=3)
        visits = sum(summary.visit_counts.values())
        assert visits == pytest.approx(summary.mean_length * summary.paths, abs=0.5)


class TestGuards:
    def test_single_path_skips_checks(self, best_of_three):
        sol, spec = best_of_three
        summary = simulate(sol, spec, 1, seed=0)
        assert math.isinf(summary.se_total_effort)
        report = compare_sim_analytic(summary, sol, spec)
        assert report["notices"]
        assert all(r["skipped"] for r in report["rows"] if r["metric"] == "total_effort")

    def test_truncation_accounting(self, margin_two):
        sol, spec = margin_two
        summary = simulate(sol, spec, 5000, seed=1, max_steps=2)
        assert summary.truncated_paths > 0
        assert summary.mean_length <= 2.0

    def test_validation(self, best_of_three):
        sol, spec = best_of_three
        with pytest.raises(DomainError):
            simulate(sol, spec, 0, seed=1)
        with pytest.raises(DomainError):
            simulate(sol, spec, 10, seed=-1)
        other = ContestSpec(build_tug_of_war(3), SF1, 1.0)
        with pytest.raises(DomainError):
            simulate(sol, other, 10, seed=1)

    def test_seed_below_the_philox_key_range(self, best_of_three):
        sol, spec = best_of_three
        assert simulate(sol, spec, 3, seed=2**128 - 1).seed == 2**128 - 1
        with pytest.raises(DomainError, match=r"seed must be below 2\*\*128"):
            simulate(sol, spec, 3, seed=2**128)
        # refused before the chain is checked or anything is drawn
        trapped = ContestSpec(TRAPPED, Serial(0.5), 1.0)
        with pytest.raises(DomainError, match="seed"):
            simulate(solve(trapped), trapped, 3, seed=2**128)

    def test_unallocatable_paths_refused(self, best_of_three):
        # one float a path is 8 PB: past any 48-bit address space, so the
        # allocation fails at once
        sol, spec = best_of_three
        with pytest.raises(DomainError, match="cannot be allocated"):
            simulate(sol, spec, 10**15, seed=1)

    @pytest.mark.parametrize(
        "paths, seed", [(10, 2**128), (10**15, 1)], ids=["seed", "paths"]
    )
    def test_refusals_cli_exit_two(self, capsys, paths, seed):
        argv = ["simulate", "--family", "best-of", "--k", "1", "--sf", "tullock:r=1"]
        assert main([*argv, "--paths", str(paths), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("paths", math.nan),
            ("paths", math.inf),
            ("seed", math.inf),
            ("seed", math.nan),
            ("max_steps", math.nan),
            ("max_steps", 2.5),
            ("max_steps", math.inf),
        ],
    )
    def test_non_integral_counts_refused(self, best_of_three, name, value):
        sol, spec = best_of_three
        args = {"paths": 10, "seed": 1, "max_steps": 10**6, name: value}
        kind = "nonnegative" if name == "seed" else "positive"
        with pytest.raises(DomainError, match=f"{name} must be a {kind} integer"):
            simulate(sol, spec, **args)

    def test_integral_float_counts(self, best_of_three):
        sol, spec = best_of_three
        summary = simulate(sol, spec, paths=3.0, seed=1.0)
        assert summary == simulate(sol, spec, paths=3, seed=1)
        assert type(summary.paths) is int and type(summary.seed) is int

    def test_terminal_start_degenerate(self):
        for winner in "AB":
            m = ContestAutomaton(start=0, transitions={}, terminal={0: winner})
            spec = ContestSpec(m, SF1, 1.0)
            for paths in (1, 5):
                summary = simulate(solve(spec), spec, paths, seed=0)
                se = 0.0 if paths > 1 else math.inf  # one path carries no standard error
                assert summary.to_dict() == {
                    "paths": paths,
                    "seed": 0,
                    "mean_total_effort": 0.0,
                    "se_total_effort": se,
                    "win_freq_a": 1.0 if winner == "A" else 0.0,
                    "se_win": se,
                    "mean_length": 0.0,
                    "truncated_paths": 0,
                    "visit_counts": {},
                    "state_a_wins": {},
                }

    def test_trapped_play_rejected(self):
        spec = ContestSpec(TRAPPED, Serial(0.5), 1.0)
        with pytest.raises(DegenerateChainError):
            simulate(solve(spec), spec, 1000, seed=3, max_steps=1000)

    def test_trapped_play_cli_exit_two(self, tmp_path, capsys):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(automaton_to_dict(TRAPPED)))
        argv = ["simulate", "--automaton", str(path), "--sf", "serial:alpha=0.5"]
        assert main([*argv, "--paths", "1000", "--seed", "3", "--max-steps", "1000"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_trapped_play_certificate_rejected(self):
        # A's weak set is empty here, so the chain must be tested before the
        # weak sets decide anything
        spec = ContestSpec(TRAPPED, Serial(0.5), 1.0)
        sol = solve(spec)
        with pytest.raises(DegenerateChainError):
            transient_dominance_auto(sol, spec)
        with pytest.raises(DegenerateChainError):
            transient_dominance(sol, spec, 0.1)

    def test_trapped_play_check_cli_exit_two(self, tmp_path, capsys):
        path = tmp_path / "trapped.json"
        path.write_text(json.dumps(automaton_to_dict(TRAPPED)))
        assert main(["check", "--automaton", str(path), "--sf", "serial:alpha=0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_chance_layer_paths(self):
        spec = ContestSpec(build_tug_of_war(3, reset_p=0.5), SF1, 1.0)
        sol = solve_tow_closed(3, 0.5, 0, SF1, 1.0)
        summary = simulate(sol, spec, 50000, seed=9)
        assert summary.truncated_paths == 0
        report = compare_sim_analytic(summary, sol, spec)
        assert report["all_pass"]
        # resets prolong play beyond the chance-free mean length
        base = simulate(
            solve_tow_closed(3, 0.0, 0, SF1, 1.0),
            ContestSpec(build_tug_of_war(3), SF1, 1.0),
            50000,
            seed=9,
        )
        assert summary.mean_length > base.mean_length
