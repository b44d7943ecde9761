"""Scale-ladder report: where time or memory falls off a cliff (informational).

    python3 perfbench/ladder.py

Three ladders, each step in a fresh interpreter so that its peak RSS is its
own:

* best-of k through ``solve``, ``residual``, ``win_probabilities`` and
  ``transient_dominance_auto`` (never past k = 50);
* tug-of-war margin through ``solve_cyclic``;
* a generated first-to-k race automaton, loaded with ``automaton_from_dict``
  and taken through ``solve`` and ``win_probabilities``.

A ladder stops after the first step whose wall time exceeds ``CAP_SECONDS``, or
that fails or runs past two minutes.  The table goes to standard output and
``perfbench/results/ladder.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDERS = {
    "best-of": (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    "tow-cyclic": (5, 10, 20, 30, 40, 60, 80),
    "race-automaton": (5, 10, 20, 30, 40, 60),
}
STEP_TIMEOUT_S = 120
CAP_SECONDS = 10.0


def _timed(out: dict, name: str, fn):
    t0 = time.perf_counter()
    result = fn()
    out[name + "_s"] = time.perf_counter() - t0
    return result


def step(ladder: str, size: int) -> dict:
    """Run one ladder step in this process and return its timings."""
    import contestlab as cl
    from instances import race_automaton_doc

    out = {"ladder": ladder, "size": size}
    t0 = time.perf_counter()
    if ladder == "best-of":
        spec = cl.ContestSpec(cl.build_best_of(size), cl.Tullock(1.0), 1.0)
        sol = _timed(out, "solve", lambda: cl.solve(spec))
        _timed(out, "residual", lambda: cl.residual(spec, sol))
        _timed(out, "win_probabilities", lambda: cl.win_probabilities(sol, spec))
        _timed(out, "transient_dominance_auto", lambda: cl.transient_dominance_auto(sol, spec))
    elif ladder == "tow-cyclic":
        spec = cl.ContestSpec(cl.build_tug_of_war(size), cl.Tullock(0.9), 1.0)
        sol = _timed(out, "solve_cyclic", lambda: cl.solve_cyclic(spec))
        out["sweeps"] = sol.iterations
    else:
        doc = race_automaton_doc(size, 0.3)
        auto = _timed(out, "automaton_from_dict", lambda: cl.automaton_from_dict(doc))
        spec = cl.ContestSpec(auto, cl.Serial(0.5), 1.0)
        sol = _timed(out, "solve", lambda: cl.solve(spec))
        _timed(out, "win_probabilities", lambda: cl.win_probabilities(sol, spec))
    out["states"] = spec.automaton.n
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contestlab scale ladders")
    parser.add_argument("--step", nargs=2, metavar=("LADDER", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.step:
        print(json.dumps(step(args.step[0], int(args.step[1]))))
        return 0

    rows = []
    for ladder, sizes in LADDERS.items():
        for size in sizes:
            try:
                proc = subprocess.run(
                    [sys.executable, __file__, "--step", ladder, str(size)],
                    cwd=ROOT, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
                )
                error = proc.stderr.strip()[-300:] if proc.returncode else None
            except subprocess.TimeoutExpired:
                error = f"no result within {STEP_TIMEOUT_S} s"
            if error:
                rows.append({"ladder": ladder, "size": size, "error": error})
                print(f"{ladder:15s} {size:4d}  stopped: {error}")
                break
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            timings = " ".join(f"{k[:-2]}={v:.3f}" for k, v in row.items()
                               if k.endswith("_s") and k != "wall_s")
            print(f"{ladder:15s} {size:4d} states={row['states']:6d} wall={row['wall_s']:8.3f}s "
                  f"rss={row['peak_rss_mb']:7.1f}MB {timings}", flush=True)
            if row["wall_s"] > CAP_SECONDS:
                break
    results = ROOT / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "ladder.json").write_text(json.dumps({"cap_seconds": CAP_SECONDS,
                                                     "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
