"""Monte Carlo simulation tests: reproducibility and statistical agreement."""

import json
import math

import pytest

from contestlab import (
    ContestAutomaton,
    ContestSpec,
    DegenerateChainError,
    DomainError,
    Serial,
    Tullock,
    automaton_to_dict,
    build_best_of,
    build_tug_of_war,
    compare_sim_analytic,
    simulate,
    solve,
    solve_finite,
    solve_tow_closed,
    win_probabilities,
)
from contestlab.cli import main

SF1 = Tullock(1.0)

# The rule of tests/test_solver.py::TestCyclicEngine::test_trust_region_rescue.
# Under serial:alpha=0.5 its reported equilibrium has A win states 0 and 3 and
# B win state 1 surely, so play cycles 0 -> 3 -> 0 and 0 -> 4 -> 1 -> 3 -> 0
# and never reaches a terminal.
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

    def test_terminal_start_degenerate(self):
        from contestlab import ContestAutomaton, solve

        m = ContestAutomaton(start=0, transitions={}, terminal={0: "A"})
        spec = ContestSpec(m, SF1, 1.0)
        sol = solve(spec)
        summary = simulate(sol, spec, 50, seed=0)
        assert summary.win_freq_a == 1.0
        assert summary.mean_length == 0.0
        assert summary.mean_total_effort == 0.0

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
