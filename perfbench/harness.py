"""Passes, replays and metric assembly for the contestlab benchmark.

Imports contestlab, so ``run.py`` puts ``src`` on the path before importing
this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from statistics import median
from typing import NamedTuple

import contestlab as cl

import workloads
from hostspeed import factor, reference_s
from instances import TAIL_LEVEL, probe_items
from tracing import NullTracer, Tracer, layer_self_time, samples_needed, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_PROBES = 3
IMPORT_PROBES = 3
BUILD_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120
SHARE_LAYERS = ("bench", "solver", "metrics", "incumbency", "sim", "cli")
# Host-adjusted busy milliseconds per pass, from the spans around calls into each layer.
SPAN_METRICS = (
    "solver.solve_ms.backward",
    "solver.solve_ms.fixed_point",
    "solver.solve_ms.closed_tow",
    "solver.solve_ms.closed_cw",
    "solver.residual_ms",
    "metrics.win_probabilities_ms",
    "metrics.transient_dominance_auto_ms",
    "metrics.rent_dissipation_ms",
    "metrics.sweep_ms",
    "incumbency.solve_ms",
    "sim.simulate_ms",
    "sim.compare_ms",
    "cli.process_ms.solve",
    "cli.process_ms.sweep",
    "cli.process_ms.simulate",
    "cli.process_ms.check",
    "cli.process_ms.incumbency",
)
# Exact counts tallied per pass.
COUNT_METRICS = ("solver.fixed_point_sweeps", "sim.battle_steps", "cli.output_bytes")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CONTEST_LAB_THREADS"] = "1"
    return env


def code_hash() -> str:
    """Digest of the library and benchmark sources, to key recorded tallies."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepare(items: list, ctx: workloads.Context) -> list:
    """Build every item; a CLI item also gets its rule file and expected output."""
    preps = [workloads.build(item) for item in items]
    for item, prep in zip(items, preps):
        if item["kind"] == "cli":
            if "rule" in item["call"]:
                Path(ctx.rule_path).write_text(json.dumps(item["call"]["rule"]))
            prep["expected"] = workloads.expected_cli_output(item, prep)
    return preps


class Pass(NamedTuple):
    """One pass over the item list.  ``factors`` scale each item's wall time
    to host-adjusted time (``hostspeed``); ``latencies`` are the adjusted times."""

    raw: list
    factors: list
    failures: list
    tally: dict

    @property
    def latencies(self) -> list:
        return [t * f for t, f in zip(self.raw, self.factors)]

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def raw_seconds(self) -> float:
        return sum(self.raw)


def run_pass(items: list, preps: list, ctx: workloads.Context) -> Pass:
    """One pass over the item list, the host-speed reference timed between items."""
    ctx.tally = Counter()
    raw, factors, failures = [], [], []
    before = reference_s()
    for index, (item, prep) in enumerate(zip(items, preps)):
        ctx.tracer.item = index
        t0 = time.perf_counter()
        try:
            with ctx.tracer.span("bench.item"):
                workloads.run_item(item, prep, ctx)
        except Exception as exc:  # noqa: BLE001 - a failed item is counted, the run goes on
            failures.append({"item": index, "kind": item["kind"], "error": type(exc).__name__,
                             "message": str(exc)[:300]})
        raw.append(time.perf_counter() - t0)
        after = reference_s()
        factors.append(factor(before, after))
        before = after
    return Pass(raw, factors, failures, dict(ctx.tally))


def setup_seconds(workload: str, seed: int, env: dict) -> list:
    """Set-up time of the workload in fresh interpreters, one per probe:
    ``(adjusted, wall)`` seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        out.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return out


def import_ms(env: dict) -> float:
    """Median wall time of a fresh ``python -c "import contestlab"``."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import contestlab"], cwd=ROOT, env=env,
                       check=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def span_metrics(spans: list, factors: list) -> dict:
    """Host-adjusted busy milliseconds per span metric, keyed like
    ``solver.solve_ms.backward``; ``factors`` are the pass's per-item factors."""
    out: dict = {}
    for rec in spans:
        name = rec["name"] + "_ms"
        detail = rec.get("route") or rec.get("sub")
        if detail:
            name += "." + detail
        ms = (rec["end"] - rec["start"]) * 1e3 * factors[rec["item"]]
        out[name] = out.get(name, 0.0) + ms
    return out


def shares(spans: list) -> dict:
    """Per layer, its self time as a percentage of the pass's traced time."""
    own = layer_self_time(spans)
    total = sum(own.values())
    return {layer: 100.0 * own.get(layer, 0.0) / total for layer in SHARE_LAYERS}


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def replay_battles(solved: list) -> tuple:
    """Replay solve_battle at every active state; returns (calls, seconds)."""
    calls = 0
    start = time.perf_counter()
    for sol, spec in solved:
        for sv in sol.states.values():
            if sv.stake_a > 0.0 and sv.stake_b > 0.0:
                cl.solve_battle(spec.sf, sv.stake_a, sv.stake_b)
                calls += 1
    return calls, time.perf_counter() - start


def memory_peaks(solved: list, names: set) -> dict:
    """tracemalloc peaks of the named calls, replayed on the largest solved contest."""
    sol, spec = max(solved, key=lambda pair: pair[1].automaton.n)
    solve = cl.solve_cyclic if sol.method == "fixed_point" else cl.solve
    calls = {
        "solver.solve_peak_mb": lambda: solve(spec),
        "solver.residual_peak_mb": lambda: cl.residual(spec, sol),
        "metrics.win_probabilities_peak_mb": lambda: cl.win_probabilities(sol, spec),
        "metrics.transient_dominance_auto_peak_mb": lambda: cl.transient_dominance_auto(sol, spec),
    }
    return {name: peak_mb(fn) for name, fn in calls.items() if name in names}


def check_tallies(pass_tallies: list, path: Path, extra: dict, failed: int) -> tuple:
    """Tallies must repeat across the passes of a run and across runs of one seed.

    ``path`` names the workload, seed, trace flag and code digest.  The first
    clean run (no failed item, passes in agreement) records its tallies
    there, and every later run with the same path must reproduce them exactly.
    """
    problems = []
    if any(t != pass_tallies[0] for t in pass_tallies):
        problems.append("tallies differ between passes")
    record = {"per_pass": pass_tallies[0], **extra}
    if path.exists():
        if json.loads(path.read_text()) != record:
            problems.append(f"tallies differ from the earlier run recorded in {path.name}")
    elif failed == 0 and not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))
    return record, problems


def end_to_end(workload: str, seed: int, seconds: float, items, preps, ctx, env) -> dict:
    """Untraced passes for ``seconds`` after a warm-up pass, then set-up probes.

    A run makes at least enough passes to have ten item samples beyond the
    workload's tail percentile.
    """
    run_pass(items, preps, ctx)
    level = TAIL_LEVEL[workload]
    min_passes = -(-samples_needed(level) // len(items))
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(items, preps, ctx))
    # Read before the set-up probes, whose children would count for cli-readme.
    who = resource.RUSAGE_CHILDREN if workload == "cli-readme" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup = setup_seconds(workload, seed, env)
    latencies = [t for p in passes for t in p.latencies]
    raw = [t for p in passes for t in p.raw]
    failures = [f for p in passes for f in p.failures]
    tail_s, beyond, count = tail(latencies, level)
    metrics = {
        "setup_s": (median(adjusted for adjusted, _ in setup), "s"),
        "wall_s": (median(p.seconds for p in passes), "s"),
        "item_p50_ms": (median(latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "pass_s": [p.seconds for p in passes],
        "wall_clock": {
            "setup_s": median(wall for _, wall in setup),
            "wall_s": median(p.raw_seconds for p in passes),
            "item_p50_ms": median(raw) * 1e3,
            "item_tail_ms": tail(raw, level)[0] * 1e3,
        },
        "host_factor_median": median(f for p in passes for f in p.factors),
        "setup_runs_s": setup,
        "item_samples": count,
        "item_tail_percentile": level,
        "item_tail_samples_beyond": beyond,
        "failure_ratio": len(failures) / len(latencies),
    }
    tallies = [p.tally for p in passes]
    return {"metrics": metrics, "detail": detail, "attempted": len(latencies),
            "failures": failures, "tallies": tallies, "extra_tallies": {}}


def per_layer(workload: str, seed: int, seconds: float, items, preps, ctx, env) -> dict:
    """Alternating untraced and traced passes, then probes and replays.

    Per-layer metrics of a layer this workload never calls come from one
    traced pass over the probe items, so that every per-layer metric is a
    measurement on every workload; ``detail.sources`` names where each came
    from.  Replays run outside the timed passes.
    """
    run_pass(items, preps, ctx)
    plain, traced, failures, tallies = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracer in (NullTracer(), Tracer()):
            ctx.tracer = tracer
            ctx.solved = []
            done = run_pass(items, preps, ctx)
            attempted += len(done.raw)
            failures += done.failures
            tallies.append(done.tally)
            if tracer.enabled:
                traced.append((done, tracer.spans, ctx.solved))
            else:
                plain.append(done.seconds)

    metrics: dict = {}
    sources: dict = {}

    def put(name, value, unit, source=workload):
        metrics[name] = (value, unit)
        sources[name] = source

    per_pass = [span_metrics(spans, done.factors) for done, spans, _ in traced]
    for name in SPAN_METRICS:
        values = [pm[name] for pm in per_pass if name in pm]
        if values:
            put(name, median(values), "ms")
    pass_shares = [shares(spans) for _, spans, _ in traced]
    for layer in SHARE_LAYERS:
        put(f"share.{layer}", median([s[layer] for s in pass_shares]), "%")
    counts = {name: tallies[0].get(name, 0) for name in COUNT_METRICS}
    solved = traced[-1][2]

    probe = probe_items(seed)
    probe_preps = prepare(probe, ctx)
    ctx.tracer = Tracer()
    ctx.solved = []
    probed = run_pass(probe, probe_preps, ctx)
    attempted += len(probed.raw)
    failures += probed.failures
    probe_tally = probed.tally
    probe_solved = ctx.solved
    probe_metrics = span_metrics(ctx.tracer.spans, probed.factors)
    for name in SPAN_METRICS:
        if name not in metrics:
            put(name, probe_metrics[name], "ms", "probe")
    for name, value in counts.items():
        if value:
            put(name, value, "count")
        else:
            put(name, probe_tally[name], "count", "probe")
    steps_ms = metrics["sim.simulate_ms"][0]
    put("sim.steps_per_s", metrics["sim.battle_steps"][0] / (steps_ms / 1e3), "1/s",
        sources["sim.simulate_ms"])

    battle_source = workload if solved else "probe"
    calls, replay_s = replay_battles(solved or probe_solved)
    put("success.replay_calls", calls, "count", battle_source)
    put("success.solve_battle_us", replay_s / calls * 1e6, "us", battle_source)
    own = {"solver.solve_peak_mb", "solver.residual_peak_mb"} if solved else set()
    for layer_call in ("win_probabilities", "transient_dominance_auto"):
        if sources.get(f"metrics.{layer_call}_ms") == workload:
            own.add(f"metrics.{layer_call}_peak_mb")
    every = {"solver.solve_peak_mb", "solver.residual_peak_mb",
             "metrics.win_probabilities_peak_mb", "metrics.transient_dominance_auto_peak_mb"}
    if own:
        for name, value in memory_peaks(solved, own).items():
            put(name, value, "MB")
    for name, value in memory_peaks(probe_solved, every - own).items():
        put(name, value, "MB", "probe")

    builds = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        for item in items:
            workloads.build(item)
        builds.append((time.perf_counter() - t0) * 1e3)
    put("automaton.build_ms", median(builds), "ms")
    put("cli.import_ms", import_ms(env), "ms")
    traced_walls = [done.seconds for done, _, _ in traced]
    overhead = median(traced_walls) - median(plain)
    put("trace.overhead_ms", overhead * 1e3, "ms")
    put("trace.overhead_pct", 100.0 * overhead / median(plain), "%")

    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"spans-{workload}-seed{seed}.jsonl", "w") as handle:
        for rec in traced[-1][1]:
            handle.write(json.dumps(rec) + "\n")
    detail = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced_walls,
        "sources": dict(sorted(sources.items())),
        "failure_ratio": len(failures) / attempted,
    }
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failures": failures, "tallies": tallies,
            "extra_tallies": {"success.replay_calls": calls}}
