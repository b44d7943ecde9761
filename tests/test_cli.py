"""Command-line interface tests: schemas, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import contestlab
from contestlab import (
    MK1,
    ContestSpec,
    IncumbencySpec,
    advantage_profile,
    automaton_from_dict,
    automaton_to_dict,
    build_best_of,
    build_tug_of_war,
    incumbency_transient_dominance,
    parse_sf,
    simulate,
    solve,
    solve_incumbency,
    solve_tow_closed,
    sweep,
    transient_dominance_auto,
)
from contestlab.cli import main
from contestlab.errors import DomainError, ValidationError
from contestlab.metrics import SWEEP_COLUMNS
from contestlab.serialize import to_csv, to_json, write_atomic
from test_metrics import _race_doc

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestSolve:
    def test_family_json(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "solve", "--family", "tug-of-war", "--margin", "4",
            "--sf", "tullock:r=1", "--prize", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"method", "residual", "iterations", "prize", "states"}
        assert doc["method"] == "closed_tow"
        assert doc["residual"] <= 1e-12
        row = doc["states"][0]
        assert set(row) == {"id", "label", "V_A", "V_B", "x_A", "x_B", "p_A"}

    def test_automaton_file(self, tmp_path):
        doc = automaton_to_dict(build_tug_of_war(2))
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(
            tmp_path, "solve", "--automaton", str(path), "--sf", "tullock:r=1"
        )
        assert code == 0
        out = json.loads(text)
        center = next(r for r in out["states"] if r["label"] == "lead +0")
        assert center["V_A"] == pytest.approx(0.18614066163450716, abs=1e-10)

    def test_automaton_file_takes_the_closed_form(self, tmp_path, relabel):
        # margin 20 with reset 0.5: the fixed-point engine reports a wrong
        # idle plateau on this rule (V_A at lead 0 is 0.3498 in the builder's
        # state ids and 0.1996 with the ids shifted by 7 mod 41)
        doc = automaton_to_dict(build_tug_of_war(20, 0.5))
        for rule in (doc, relabel(doc, [(s + 7) % 41 for s in range(41)])):
            path = tmp_path / "auto.json"
            path.write_text(json.dumps(rule))
            code, text = run_cli(
                tmp_path, "solve", "--automaton", str(path), "--sf", "tullock:r=1"
            )
            assert code == 0
            out = json.loads(text)
            assert out["method"] == "closed_tow"
            center = next(r for r in out["states"] if r["label"] == "lead +0")
            assert center["V_A"] == solve_tow_closed(20, 0.5).values_a[20]

    def test_csv_format(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "solve", "--family", "best-of", "--k", "1",
            "--sf", "tullock:r=1", "--format", "csv",
        )
        assert code == 0
        assert text.splitlines()[0] == "id,label,V_A,V_B,x_A,x_B,p_A"

    def test_determinism(self, tmp_path):
        args = (
            "solve", "--family", "consecutive-win", "--k", "5", "--sf", "serial:alpha=0.5",
        )
        _, a = run_cli(tmp_path, *args, name="a.json")
        _, b = run_cli(tmp_path, *args, name="b.json")
        assert a == b

    def test_source_exclusivity(self, tmp_path, capsys):
        assert main(["solve", "--sf", "tullock:r=1"]) == 2
        assert main(
            ["solve", "--family", "mk1", "--k", "2", "--automaton", "x.json", "--sf", "tullock:r=1"]
        ) == 2


class TestSweep:
    def test_exact_csv_header(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "sweep", "--family", "consecutive-win", "--k", "1..4",
            "--sf", "tullock:r=1", "--format", "csv",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "param,V0_A,V0_B,total_effort,dissipation,thm1_bound,min_length"
        assert len(lines) == 5
        assert lines[1].startswith("1,0.25,0.25,0.5,0.5,0.75,1")

    def test_json_mirror(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "sweep", "--family", "tug-of-war", "--margin", "1..3",
            "--sf", "tullock:r=1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert [row["param"] for row in doc["rows"]] == [1, 2, 3]

    def test_flagged_row_keeps_exit_zero(self, tmp_path, capsys):
        code, text = run_cli(
            tmp_path,
            "sweep", "--family", "best-of", "--k=-1..1", "--sf", "tullock:r=1", "--format", "csv",
        )
        assert code == 0
        assert "flagged rows: [-1]" in capsys.readouterr().err
        lines = text.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1"]
        assert lines[1] == "-1," + ",".join(["nan"] * 6)

    def test_flagged_row_is_null_in_json(self, tmp_path, capsys):
        code, text = run_cli(
            tmp_path,
            "sweep", "--family", "best-of", "--k=-1..2", "--sf", "tullock:r=1", "--format", "json",
        )
        assert code == 0
        assert "flagged rows: [-1]" in capsys.readouterr().err
        rows = json.loads(text)["rows"]
        assert [row["param"] for row in rows] == [-1, 0, 1, 2]
        assert rows[0] == {"param": -1} | dict.fromkeys(
            ["V0_A", "V0_B", "total_effort", "dissipation", "thm1_bound", "min_length"]
        )
        assert all(value is not None for row in rows[1:] for value in row.values())

    def test_range_validation(self):
        assert main(["sweep", "--family", "mk1", "--k", "5..2", "--sf", "tullock:r=1"]) == 2
        assert main(["sweep", "--family", "mk1", "--k", "abc", "--sf", "tullock:r=1"]) == 2


class TestSimulate:
    def test_summary_schema_and_determinism(self, tmp_path):
        args = (
            "simulate", "--family", "best-of", "--k", "1", "--sf", "tullock:r=1",
            "--paths", "5000", "--seed", "7",
        )
        code, a = run_cli(tmp_path, *args, name="a.json")
        assert code == 0
        _, b = run_cli(tmp_path, *args, name="b.json")
        assert a == b
        doc = json.loads(a)
        assert doc["paths"] == 5000 and doc["seed"] == 7
        assert doc["truncated_paths"] == 0
        assert 0.5 < doc["mean_total_effort"] < 0.8


class TestCheck:
    def test_epsilon_auto(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "check", "--family", "tug-of-war", "--margin", "12", "--reset-p", "0.5",
            "--sf", "tullock:r=1", "--epsilon", "auto",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["satisfied"] is True
        assert doc["measured_total_effort"] >= doc["implied_effort_floor"]

    def test_fixed_epsilon(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "check", "--family", "tug-of-war", "--margin", "5",
            "--sf", "tullock:r=1", "--epsilon", "0.01",
        )
        assert code == 0
        assert json.loads(text)["satisfied"] is False

    def test_bad_epsilon(self):
        assert main(
            ["check", "--family", "tug-of-war", "--margin", "3", "--sf", "tullock:r=1",
             "--epsilon", "0.7"]
        ) == 2


class TestIncumbency:
    def test_report_schema(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "incumbency", "--rounds", "5", "--shock-q", "0.5", "--sub", "mk1:k=2",
            "--sf", "tullock:r=1",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["rounds"] == 5
        assert len(doc["trajectory"]) == 10
        first = doc["trajectory"][0]
        assert set(first) == {"round", "incumbent", "V_A", "V_B"}
        assert first["incumbent"] in ("A", "B")

    def test_with_certificate(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "incumbency", "--rounds", "40", "--shock-q", "1", "--sub", "mk1:k=3",
            "--sf", "tullock:r=1", "--epsilon", "0.05",
        )
        assert code == 0
        doc = json.loads(text)
        assert "transient_dominance" in doc

    @pytest.mark.parametrize("sub", ["tow-head-start:k=9", "mk1:k=12"])
    def test_overflowed_bias_ratio_is_null(self, tmp_path, sub):
        # the ratio is past float range; its log is written as it is
        code, text = run_cli(
            tmp_path,
            "incumbency", "--rounds", "10", "--shock-q", "0.5", "--sub", sub,
            "--sf", "tullock:r=1",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["bias_ratio"] is None
        assert doc["log_bias_ratio"] > 700

    @pytest.mark.parametrize(
        ("sub", "sf"),
        [
            # the direct solve leaves 1 - V+ = 0: no ratio to take the log of
            ("mk1:k=15", "ratio:pow,alpha=0.7"),
        ],
    )
    def test_bias_ratio_out_of_reach_exits_two(self, capsys, sub, sf):
        argv = ["incumbency", "--rounds", "3", "--shock-q", "0.5", "--sub", sub, "--sf", sf]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_noisy_bias_ratio_where_phi_underflows(self, tmp_path):
        # phi underflows to 0 in the gap recursion; the noisy log forms mix
        # the base's exact ones, so at q = 1 the figure is the base's
        docs = []
        for sf in ("noisy:q=1,base=tullock:r=1", "tullock:r=1"):
            code, text = run_cli(
                tmp_path, "incumbency", "--rounds", "3", "--shock-q", "0.5",
                "--sub", "mk1:k=10", "--sf", sf,
            )
            assert code == 0
            docs.append(json.loads(text))
        assert docs[0]["log_bias_ratio"] == docs[1]["log_bias_ratio"]
        assert docs[0]["log_bias_ratio"] == pytest.approx(959.1976161974644, rel=1e-12)

    def test_bad_sub(self):
        assert main(
            ["incumbency", "--rounds", "2", "--shock-q", "0.5", "--sub", "race:k=2",
             "--sf", "tullock:r=1"]
        ) == 2


def _scipy_after(body: str) -> tuple:
    """Run ``body`` in a fresh interpreter after ``import contestlab``; the
    lines it prints, and the scipy modules loaded after the import and at
    the end."""
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import contestlab\n"
        "after_import = scipy_modules()\n"
        f"{body}\n"
        "print(json.dumps([after_import, scipy_modules()]))\n"
    )
    src = str(Path(contestlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    *printed, modules = run.stdout.splitlines()
    return printed, *json.loads(modules)


class TestImportHygiene:
    # scipy serves only the cyclic engine's root search: the import, the
    # closed routes, the absorbing-chain analytics and the simulator load none
    def test_closed_route_loads_no_scipy(self):
        printed, after_import, at_exit = _scipy_after(
            "from contestlab.cli import main\n"
            "code = main(['solve', '--family', 'tug-of-war', '--margin', '4', '--sf', "
            "'tullock:r=1', '--prize', '1', '--format', 'json'])\n"
            "print(code)"
        )
        assert json.loads("\n".join(printed[:-1]))["method"] == "closed_tow"
        assert (printed[-1], after_import, at_exit) == ("0", [], [])

    @pytest.mark.parametrize(
        "argv",
        [
            "check --family tug-of-war --margin 30 --reset-p 0.5 --sf tullock:r=1 --epsilon auto",
            "incumbency --rounds 1620 --shock-q 0.5 --sub mk1:k=3 --sf tullock:r=1 --epsilon 0.01",
        ],
        ids=["check", "incumbency"],
    )
    def test_chain_analytics_load_no_scipy(self, argv):
        printed, after_import, at_exit = _scipy_after(
            f"from contestlab.cli import main\nprint(main({argv.split()!r}))"
        )
        assert (printed[-1], after_import, at_exit) == ("0", [], [])

    def test_simulation_loads_no_scipy(self):
        printed, after_import, at_exit = _scipy_after(
            "cl = contestlab\n"
            "spec = cl.ContestSpec(cl.build_best_of(2), cl.Tullock(1.0), 1.0)\n"
            "sol = cl.solve(spec)\n"
            "summary = cl.simulate(sol, spec, 20000, seed=3)\n"
            "print(cl.compare_sim_analytic(summary, sol, spec)['all_pass'])"
        )
        assert (printed, after_import, at_exit) == (["True"], [], [])


def _readme_outputs(rule_doc: dict) -> dict:
    """The library's result for each README invocation, keyed by its line;
    ``rule.json`` holds ``rule_doc``."""
    tullock = parse_sf("tullock:r=1")
    tow4 = ContestSpec(build_tug_of_war(4), tullock, 1.0)
    rule = ContestSpec(automaton_from_dict(rule_doc), parse_sf("serial:alpha=0.5"), 1.0)
    best_of_1 = ContestSpec(build_best_of(1), tullock, 1.0)
    tow30 = ContestSpec(build_tug_of_war(30, 0.5), tullock, 1.0)
    incumbency = IncumbencySpec(rounds=1620, shock_q=0.5, sub=MK1(3), sf=tullock)
    report = solve_incumbency(incumbency)
    cert = incumbency_transient_dominance(report, incumbency, 0.01)
    return {
        "contest solve --family tug-of-war --margin 4 --sf tullock:r=1 --prize 1 --format json":
            to_json(solve(tow4).to_dict()),
        "contest solve --automaton rule.json --sf serial:alpha=0.5": to_json(solve(rule).to_dict()),
        "contest sweep --family consecutive-win --k 1..25 --sf tullock:r=1 --format csv":
            to_csv(SWEEP_COLUMNS, sweep("consecutive_win", range(1, 26), tullock).rows),
        "contest simulate --family best-of --k 1 --sf tullock:r=1 --paths 200000 --seed 7":
            to_json(simulate(solve(best_of_1), best_of_1, 200_000, 7).to_dict()),
        "contest check --family tug-of-war --margin 30 --reset-p 0.5 --sf tullock:r=1 --epsilon auto":
            to_json(transient_dominance_auto(solve(tow30), tow30).to_dict()),
        "contest incumbency --rounds 1620 --shock-q 0.5 --sub mk1:k=3 --sf tullock:r=1 --epsilon 0.01":
            to_json(report.to_dict() | {"transient_dominance": cert.to_dict()}),
    }


class TestReadmeInvocations:
    def test_stdout_is_the_library_result(self, tmp_path, monkeypatch, capsys):
        blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("contest ")]
        doc = _race_doc(4, 0.3)
        expected = _readme_outputs(doc)
        assert lines == list(expected)
        (tmp_path / "rule.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        for line in lines:
            capsys.readouterr()
            assert main(line.split()[1:]) == 0, line
            assert capsys.readouterr().out == expected[line], line


class TestExitCodes:
    def test_usage_error(self):
        assert main(["solve"]) == 2  # missing required --sf

    def test_unknown_flag(self):
        assert main(["solve", "--sf", "tullock:r=1", "--bogus", "1"]) == 2

    def test_bad_sf(self):
        assert main(["solve", "--family", "mk1", "--k", "2", "--sf", "tullock:r=9"]) == 2

    def test_missing_automaton_file(self, tmp_path):
        assert main(
            ["solve", "--automaton", str(tmp_path / "nope.json"), "--sf", "tullock:r=1"]
        ) == 2

    def test_non_numeric_probability(self, tmp_path, capsys):
        doc = automaton_to_dict(build_tug_of_war(2))
        doc["edges"][0]["to"][0]["prob"] = "abc"
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_infinite_state_id(self, tmp_path, capsys):
        path = tmp_path / "auto.json"
        text = json.dumps(automaton_to_dict(build_tug_of_war(2)))
        path.write_text(text.replace('"start": 2', '"start": Infinity', 1))
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("states", {"id": -1, "label": "ghost", "terminal": "A"}),
            ("edges", {"from": -2, "winner": "A", "to": [{"state": 1, "prob": 1.0}]}),
        ],
    )
    def test_negative_state_id(self, tmp_path, capsys, key, entry):
        doc = automaton_to_dict(build_best_of(0))
        doc[key].append(entry)
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_automaton_directory(self, tmp_path, capsys):
        assert main(["solve", "--automaton", str(tmp_path), "--sf", "tullock:r=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_automaton_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "auto.json"
        path.write_bytes(b'{"start": 0, "name": "\xff"}')
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("content", [b"\xff\xfe", b'{"start": 0,'], ids=["ff-fe", "bad-json"])
    def test_unreadable_automaton_names_the_file(self, tmp_path, capsys, content):
        path = tmp_path / "rule.json"
        path.write_bytes(content)
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_duplicate_state_id(self, tmp_path, capsys):
        doc = automaton_to_dict(build_best_of(0))
        doc["states"].append({"id": 1, "label": "again", "terminal": "B"})
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--automaton", str(path), "--sf", "tullock:r=1"]) == 2
        assert "duplicate state id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--family", "tug-of-war", "--margin", "3", "--sf", "tullock:r=1"],
            ["incumbency", "--rounds", "3", "--shock-q", "0.5", "--sub", "mk1:k=2",
             "--sf", "tullock:r=1"],
            ["sweep", "--family", "best-of", "--k", "1..2", "--sf", "tullock:r=1",
             "--format", "csv"],
        ],
    )
    def test_infinite_prize(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--prize", "inf"]) == 2
        err = capsys.readouterr().err
        assert "prize must be positive and finite" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nonconvergence_exit_three(self, tmp_path, monkeypatch, capsys):
        from contestlab.errors import ConvergenceError

        def explode(spec, **kw):
            raise ConvergenceError("stalled", residual=0.125)

        monkeypatch.setattr("contestlab.cli.solver.solve", explode)
        argv = ["solve", "--family", "mk1", "--k", "2", "--sf", "tullock:r=1"]
        out = tmp_path / "err.json"
        code = main([*argv, "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["residual"] == 0.125
        capsys.readouterr()
        # without --out the report goes to stderr
        assert main(argv) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert json.loads(stderr) == {"error": "stalled", "residual": 0.125}

    @pytest.mark.parametrize("residual", [None, math.inf], ids=["default", "inf"])
    def test_nonconvergence_without_finite_residual_exits_three(self, monkeypatch, capsys, residual):
        from contestlab.errors import ConvergenceError

        def explode(spec, **kw):
            if residual is None:
                raise ConvergenceError("stalled")
            raise ConvergenceError("stalled", residual=residual)

        monkeypatch.setattr("contestlab.cli.solver.solve", explode)
        assert main(["solve", "--family", "mk1", "--k", "2", "--sf", "tullock:r=1"]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and "Traceback" not in stderr
        assert json.loads(stderr) == {"error": "stalled", "residual": None}

    def test_far_apart_powsum_exponents_solve(self, capsys):
        # each battle's root lies within rounding of its effort bracket's end
        argv = ["solve", "--family", "best-of", "--k", "2", "--sf", "ratio:powsum,alpha=0.05,beta=0.99"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "backward"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--family", "mk1", "--k", "1..x"], "malformed range"),
            (["solve", "--family", "tug-of-war"], "requires --margin"),
            (["solve", "--family", "mk1", "--k", "1..3"], "single parameter, not a range"),
            (["sweep", "--automaton", "f.json"], "sweep requires --family"),
            (["check", "--family", "mk1", "--k", "2", "--epsilon", "abc"], "malformed epsilon"),
        ],
    )
    def test_documented_refusal_exits_two(self, capsys, argv, message):
        assert main([*argv, "--sf", "tullock:r=1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err


class TestUnreadOptions:
    """A rule option the command would not read is refused, not dropped."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sweep", "--family", "tug-of-war", "--margin", "2..3", "--head-start", "1"],
             "--head-start"),
            (["solve", "--family", "best-of", "--k", "1", "--reset-p", "0.5",
              "--head-start", "3"], "--reset-p"),
            (["solve", "--family", "best-of", "--k", "1", "--head-start", "0"], "--head-start"),
            (["solve", "--family", "tug-of-war", "--margin", "3", "--k", "2"], "--k"),
            (["check", "--family", "consecutive-win", "--k", "3", "--margin", "3"], "--margin"),
            (["sweep", "--family", "mk1", "--k", "1..3", "--reset-p", "0"], "--reset-p"),
            (["simulate", "--family", "mk1", "--k", "2", "--reset-p", "0.3", "--paths", "10",
              "--seed", "1"], "--reset-p"),
        ],
    )
    def test_family_option_exits_two(self, capsys, argv, option):
        assert main([*argv, "--sf", "tullock:r=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and option in captured.err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["solve", "--family", "mk1", "--k", "2", "--sf", "tullock:r=1,alpha=0.5"], "alpha"),
            (["incumbency", "--rounds", "2", "--shock-q", "0.5", "--sub", "mk1:k=2,q=9",
              "--sf", "tullock:r=1"], "q"),
            (["incumbency", "--rounds", "2", "--shock-q", "0.5", "--sub", "tow-head-start:k=2,j=1",
              "--sf", "tullock:r=1"], "j"),
        ],
    )
    def test_unread_spec_key_exits_two(self, capsys, argv, key):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"does not read {key}=" in captured.err

    @pytest.mark.parametrize(
        "extra", [["--k", "2"], ["--margin", "2"], ["--reset-p", "0.3"], ["--head-start", "1"]]
    )
    def test_option_with_automaton_exits_two(self, tmp_path, capsys, extra):
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(automaton_to_dict(build_tug_of_war(2))))
        argv = ["solve", "--automaton", str(path), *extra, "--sf", "tullock:r=1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and extra[0] in err

    def test_tug_of_war_options_are_read(self, tmp_path):
        code, text = run_cli(
            tmp_path, "solve", "--family", "tug-of-war", "--margin", "3", "--reset-p", "0.3",
            "--head-start", "1", "--sf", "tullock:r=1",
        )
        assert code == 0
        want = solve_tow_closed(3, 0.3, 1, parse_sf("tullock:r=1"), 1.0)
        assert json.loads(text)["states"] == json.loads(to_json(want.to_dict()))["states"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda sf: sweep("best_of", [1, 2], sf, 1.0, 0.3),
            lambda sf: sweep("consecutive_win", [1, 2], sf, 1.0, 0.5),
            lambda sf: advantage_profile("consecutive_win", 3, sf, 1.0, 0.3),
        ],
        ids=["sweep-best-of", "sweep-consecutive-win", "advantage-profile"],
    )
    def test_library_refuses_a_dropped_reset(self, call, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a row was solved")

        monkeypatch.setattr("contestlab.metrics._sweep_row", unreachable)
        with pytest.raises(DomainError, match="reset_p"):
            call(parse_sf("tullock:r=1"))

    @pytest.mark.parametrize("sub", ["mk1:k=3,x", "mk1:k", "mk1:q=3", "mk1:k=three"])
    def test_sub_grammar_is_the_sf_grammar(self, capsys, sub):
        argv = ["incumbency", "--rounds", "2", "--shock-q", "0.5", "--sub", sub,
                "--sf", "tullock:r=1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSerialize:
    def test_seventeen_digit_floats(self):
        text = to_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text
        assert json.loads(text)["x"] == 1.0 / 3.0

    def test_dissipation_report_round_trip(self):
        from contestlab import ContestSpec, Tullock, build_best_of, rent_dissipation, solve_finite

        spec = ContestSpec(build_best_of(1), Tullock(1.0), 1.0)
        rep = rent_dissipation(solve_finite(spec), spec)
        parsed = json.loads(to_json(rep))
        for key, value in rep.to_dict().items():
            assert parsed[key] == value

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            to_json({"residual": math.nan})
        with pytest.raises(ValidationError):
            to_json({"value": math.inf})

    def test_csv_nan_rendering(self):
        text = to_csv(["a", "b"], [{"a": 1, "b": math.nan}])
        assert text.splitlines()[1] == "1,nan"

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "file.json"
        write_atomic(str(target), "payload")
        assert target.read_text() == "payload"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "file.json"]
        assert not leftovers
