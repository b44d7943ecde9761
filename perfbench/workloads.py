"""Build and run benchmark items through contestlab's public API and CLI.

Every call into a layer is wrapped in a span of the context's tracer; with
tracing off the span is a shared no-op.  Each item checks its own output
and raises on a failed check, so the caller can count it as failed.
"""

from __future__ import annotations

import math
import subprocess
import sys
from collections import Counter

import contestlab as cl
from contestlab.metrics import SWEEP_COLUMNS
from contestlab.serialize import to_csv, to_json

from instances import RULE_PLACEHOLDER

# Residual bounds, as multiples of the prize.  The fixed-point engine stops
# at 1e-12 * prize, so its answers are held to that; the closed and
# backward routes have no stopping rule and are held to a stated looser bound.
FIXED_POINT_TOL = 1e-12
ROUTE_TOL = 1e-9
# Supremum gap between solve_cyclic and the closed forms (acceptance criterion 04).
ORACLE_TOL = 1e-8
WIN_SUM_TOL = 1e-9
CLI_TIMEOUT_S = 120


class GateError(Exception):
    """An item's output failed one of the benchmark's correctness checks."""


class Context:
    """State shared by the items of one run: tracer, tallies, solved contests."""

    def __init__(self, root: str, env: dict, tracer, rule_path: str):
        self.root = root
        self.env = env
        self.tracer = tracer
        self.rule_path = rule_path
        self.tally: Counter = Counter()
        self.solved: list = []


def _family(family: str, param: int, reset_p: float = 0.0):
    if family == "best_of":
        return cl.build_best_of(param)
    if family == "tug_of_war":
        return cl.build_tug_of_war(param, reset_p)
    if family == "consecutive_win":
        return cl.build_consecutive_win(param)
    raise ValueError(f"unknown family {family!r}")


def build(item: dict) -> dict:
    """Parse the technology and build the automaton and spec an item needs."""
    call = item.get("call", item)
    sf = cl.parse_sf(call["sf"])
    prep = {"sf": sf}
    if "rule" in call:
        prep["spec"] = cl.ContestSpec(cl.automaton_from_dict(call["rule"]), sf, 1.0)
    elif "param" in call:
        prep["spec"] = cl.ContestSpec(
            _family(call["family"], call["param"], call.get("reset_p", 0.0)), sf, 1.0
        )
    if "rounds" in call:
        prep["incumbency"] = cl.IncumbencySpec(
            call["rounds"], call["shock_q"], cl.MK1(call["sub_k"]), sf, 1.0
        )
    return prep


def expected_cli_output(item: dict, prep: dict) -> bytes:
    """What the ``contest`` call of a CLI item must print, computed in-process."""
    call = item["call"]
    op = call["op"]
    if op == "solve":
        text = to_json(cl.solve(prep["spec"]).to_dict())
    elif op == "sweep":
        table = cl.sweep(call["family"], call["params"], prep["sf"], 1.0, 0.0)
        text = to_csv(SWEEP_COLUMNS, table.rows)
    elif op == "simulate":
        spec = prep["spec"]
        sol = cl.solve(spec)
        text = to_json(cl.simulate(sol, spec, call["paths"], call["sim_seed"], 10**6).to_dict())
    elif op == "check":
        spec = prep["spec"]
        text = to_json(cl.transient_dominance_auto(cl.solve(spec), spec).to_dict())
    elif op == "incumbency":
        spec = prep["incumbency"]
        report = cl.solve_incumbency(spec)
        payload = report.to_dict()
        payload["transient_dominance"] = cl.incumbency_transient_dominance(
            report, spec, call["epsilon"]
        ).to_dict()
        text = to_json(payload)
    else:
        raise ValueError(f"unknown CLI op {op!r}")
    return text.encode()


def _finite(*values):
    if not all(math.isfinite(v) for v in values):
        raise GateError("non-finite value in output")


def _solve(ctx: Context, fn, *args):
    with ctx.tracer.span("solver.solve") as rec:
        sol = fn(*args)
    rec["route"] = sol.method
    ctx.tally["method." + sol.method] += 1
    if sol.method == "fixed_point":
        ctx.tally["solver.fixed_point_sweeps"] += sol.iterations
    return sol


def _verify(ctx: Context, sol, spec):
    _finite(*sol.values_a.values(), *sol.values_b.values())
    with ctx.tracer.span("solver.residual"):
        res = cl.residual(spec, sol)
    tol = (FIXED_POINT_TOL if sol.method == "fixed_point" else ROUTE_TOL) * spec.prize
    if not res <= tol:
        raise GateError(f"{sol.method} residual {res:.3g} exceeds {tol:.3g}")
    if ctx.tracer.enabled:
        ctx.solved.append((sol, spec))


def _run_ladder(item, prep, ctx):
    spec = prep["spec"]
    sol = _solve(ctx, cl.solve, spec)
    _verify(ctx, sol, spec)
    with ctx.tracer.span("metrics.win_probabilities"):
        q = cl.win_probabilities(sol, spec)
    worst = max(abs(qa + qb - 1.0) for qa, qb in q.values())
    if not worst <= WIN_SUM_TOL:
        raise GateError(f"win probabilities miss 1 by {worst:.3g}")
    with ctx.tracer.span("metrics.rent_dissipation"):
        rep = cl.rent_dissipation(sol, spec)
    with ctx.tracer.span("metrics.transient_dominance_auto"):
        cert = cl.transient_dominance_auto(sol, spec)
    _finite(rep.total_effort, rep.dissipation_ratio, cert.epsilon, cert.reach_both_prob)


def _run_cyclic(item, prep, ctx):
    spec = prep["spec"]
    sol = _solve(ctx, cl.solve_cyclic, spec)
    _verify(ctx, sol, spec)
    if item["family"] == "tug_of_war":
        oracle = _solve(ctx, cl.solve_tow_closed, item["param"], item["reset_p"], 0, spec.sf, 1.0)
    else:
        oracle = _solve(ctx, cl.solve_consecutive_closed, item["param"], spec.sf, 1.0)
    gap = max(
        max(abs(sol.values_a[s] - oracle.values_a[s]), abs(sol.values_b[s] - oracle.values_b[s]))
        for s in sol.values_a
    )
    if not gap <= ORACLE_TOL:
        raise GateError(f"fixed point is {gap:.3g} from the closed form")


def _run_route(item, prep, ctx):
    sol = _solve(ctx, cl.solve, prep["spec"])
    _verify(ctx, sol, prep["spec"])


def _run_sweep(item, prep, ctx):
    with ctx.tracer.span("metrics.sweep"):
        table = cl.sweep(item["family"], item["params"], prep["sf"], 1.0, item["reset_p"])
    if table.errors:
        raise GateError(f"sweep rows failed: {sorted(table.errors)}")
    for row in table.rows:
        _finite(*(row[col] for col in SWEEP_COLUMNS))


def _run_incumbency(item, prep, ctx):
    with ctx.tracer.span("incumbency.solve"):
        rep = cl.solve_incumbency(prep["incumbency"])
    _finite(rep.start_value_a, rep.start_value_b, *rep.w_plus, *rep.w_minus)


def _run_montecarlo(item, prep, ctx):
    spec = prep["spec"]
    sol = _solve(ctx, cl.solve, spec)
    _verify(ctx, sol, spec)
    with ctx.tracer.span("sim.simulate"):
        summary = cl.simulate(sol, spec, item["paths"], item["sim_seed"])
    ctx.tally["sim.battle_steps"] += sum(summary.visit_counts.values())
    with ctx.tracer.span("sim.compare"):
        table = cl.compare_sim_analytic(summary, sol, spec)
    if not table["all_pass"]:
        bad = [row["metric"] for row in table["rows"] if not row["pass"]]
        raise GateError(f"simulation disagrees with the analytic solution on {bad}")


def _run_cli(item, prep, ctx):
    argv = [ctx.rule_path if arg == RULE_PLACEHOLDER else arg for arg in item["argv"]]
    with ctx.tracer.span("cli.process") as rec:
        proc = subprocess.run(
            [sys.executable, "-m", "contestlab.cli", *argv],
            cwd=ctx.root,
            env=ctx.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
    rec["sub"] = argv[0]
    ctx.tally["cli.output_bytes"] += len(proc.stdout)
    if proc.returncode != 0:
        raise GateError(f"contest {argv[0]} exited {proc.returncode}: {proc.stderr[-200:]!r}")
    if proc.stdout != prep["expected"]:
        raise GateError(f"contest {argv[0]} output differs from the in-process result")


RUNNERS = {
    "ladder": _run_ladder,
    "cyclic": _run_cyclic,
    "route": _run_route,
    "sweep": _run_sweep,
    "incumbency": _run_incumbency,
    "montecarlo": _run_montecarlo,
    "cli": _run_cli,
}


def run_item(item: dict, prep: dict, ctx: Context):
    RUNNERS[item["kind"]](item, prep, ctx)
