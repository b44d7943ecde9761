"""contestlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload acyclic-ladder --seed 1 --seconds 15 --trace 0

Run from the repository root; contestlab is imported from ``src``.  Load
model: closed loop, one client.  This process runs one item at a time and
waits for it; the CLI workload runs one child process at a time.

``--trace 0`` reports the end-to-end metrics, measured with tracing off; the
times are host-adjusted (see ``hostspeed``), and the wall-clock figures of the
same run are in ``detail.wall_clock``.
``--trace 1`` alternates untraced and traced passes; the traced passes give
the per-layer metrics and the difference in pass time is the tracing
overhead.  Both print a human-readable report and a ``detail`` JSON line,
then the result object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from instances import WORKLOADS, make_items
from tracing import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contestlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contestlab" / "__init__.py").is_file():
        print(f"error: no contestlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # An inherited value must not parallelise sweep and change the workload.
    os.environ["CONTEST_LAB_THREADS"] = "1"
    import contestlab

    if Path(contestlab.__file__).resolve().parent != SRC / "contestlab":
        print(f"error: contestlab was imported from {contestlab.__file__}", file=sys.stderr)
        return 2
    import harness
    import workloads
    from envinfo import environment

    env = harness.child_env()
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    rule_path = str(harness.RESULTS / f"rule-{args.workload}-seed{args.seed}.json")
    ctx = workloads.Context(str(ROOT), env, NullTracer(), rule_path)
    items = make_items(args.workload, args.seed)
    preps = harness.prepare(items, ctx)
    measure = harness.per_layer if args.trace else harness.end_to_end
    run = measure(args.workload, args.seed, args.seconds, items, preps, ctx, env)

    key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{harness.code_hash()}"
    failed = len(run["failures"])
    tallies, problems = harness.check_tallies(
        run["tallies"], harness.RESULTS / "tallies" / f"{key}.json", run["extra_tallies"], failed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items_per_pass": len(items),
        **run["detail"],
        "failed_items": run["failures"],
        "tallies": tallies,
        "tally_problems": problems,
        "environment": environment(),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(run["metrics"].items())}
    print(f"contestlab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed {failed} of {run['attempted']} items; tallies repeat: {not problems}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
