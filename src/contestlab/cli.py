"""Command-line entry point.

Subcommands: solve, sweep, simulate, check, incumbency.  Exit codes: 0 on
success, 2 on validation/usage errors, 3 on solver non-convergence (the
emitted report carries the last residual, null where it is not finite).
Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import automaton as am
from . import incumbency as inc
from . import metrics, sim, solver
from .errors import (
    ContestError,
    ConvergenceError,
    StructureError,
    ValidationError,
)
from .serialize import to_csv, to_json, write_atomic
from .success import _parse_pairs, parse_sf

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contest",
        description="Equilibrium laboratory for dynamic multi-battle contests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--sf", required=True, help="success function, e.g. tullock:r=1")
        p.add_argument("--prize", type=float, default=1.0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_source(p):
        p.add_argument("--family", choices=[name.replace("_", "-") for name in am._FAMILIES])
        p.add_argument("--automaton", help="automaton JSON file")
        p.add_argument("--k", help="battle target for best-of / consecutive-win / mk1")
        p.add_argument("--margin", help="margin for tug-of-war")
        p.add_argument("--reset-p", type=float, dest="reset_p")
        p.add_argument("--head-start", type=int, dest="head_start")

    p_solve = sub.add_parser("solve", help="solve one contest")
    add_common(p_solve)
    add_source(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve a family across a parameter range")
    add_common(p_sweep)
    add_source(p_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo play-out of the equilibrium")
    add_common(p_sim)
    add_source(p_sim)
    p_sim.add_argument("--paths", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--max-steps", type=int, default=10**6, dest="max_steps")

    p_check = sub.add_parser("check", help="transient-dominance certificate")
    add_common(p_check)
    add_source(p_check)
    p_check.add_argument(
        "--epsilon",
        default="auto",
        help="certificate epsilon in (0, 1/4), or 'auto' for the frontier search",
    )

    p_inc = sub.add_parser("incumbency", help="iterated incumbency contest")
    p_inc.add_argument("--sf", required=True)
    p_inc.add_argument("--prize", type=float, default=1.0)
    p_inc.add_argument("--format", choices=("json",), default="json")
    p_inc.add_argument("--out")
    p_inc.add_argument("--rounds", type=int, required=True)
    p_inc.add_argument("--shock-q", type=float, required=True, dest="shock_q")
    p_inc.add_argument("--sub", required=True, help="mk1:k=3 or tow-head-start:k=2")
    p_inc.add_argument("--epsilon", type=float, help="also emit a certificate at epsilon")

    return parser


def _parse_range(raw: str) -> list:
    raw = raw.strip()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ValidationError(f"malformed range {raw!r}") from exc
        if hi_i < lo_i:
            raise ValidationError(f"empty range {raw!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(raw)]
    except ValueError as exc:
        raise ValidationError(f"malformed integer {raw!r}") from exc


_SOURCE_OPTIONS = ("k", "margin", "reset_p", "head_start")


def _given(args, reads: tuple, source: str) -> dict:
    """The rule options given, by name; refuses any that ``source`` does not read."""
    given = {name: v for name, v in vars(args).items() if name in _SOURCE_OPTIONS and v is not None}
    unread = [name for name in given if name not in reads]
    if unread:
        option = unread[0].replace("_", "-")
        raise ValidationError(f"--{option} does not apply to {args.command} {source}")
    return given


def _family_params(args, *reads) -> tuple:
    """The family as ``automaton._FAMILIES`` names it, its parameter values
    (from --margin for the tug-of-war, from --k otherwise) and the given
    tug-of-war options among ``reads``, by name."""
    tow = args.family == "tug-of-war"
    option = "margin" if tow else "k"
    given = _given(args, (option, *reads) if tow else (option,), f"--family {args.family}")
    if option not in given:
        raise ValidationError(f"{args.family} requires --{option}")
    return args.family.replace("-", "_"), _parse_range(given.pop(option)), given


def _build_contest(args):
    sf = parse_sf(args.sf)
    if (args.family is None) == (args.automaton is None):
        raise ValidationError("provide exactly one of --family or --automaton")
    if args.automaton is not None:
        _given(args, (), "--automaton")
        try:
            with open(args.automaton, encoding="utf-8") as handle:
                auto = am.automaton_from_dict(json.load(handle))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, StructureError) as exc:
            raise ValidationError(f"automaton file {args.automaton}: {exc}") from exc
        return am.ContestSpec(auto, sf, args.prize)
    family, values, options = _family_params(args, "reset_p", "head_start")
    if len(values) != 1:
        raise ValidationError("this command takes a single parameter, not a range")
    auto = am._build_family(family, values[0], **options)
    return am.ContestSpec(auto, sf, args.prize)


def _emit(args, text: str):
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    spec = _build_contest(args)
    sol = solver.solve(spec)
    if args.format == "json":
        _emit(args, to_json(sol.to_dict()))
    else:
        cols = ["id", "label", "V_A", "V_B", "x_A", "x_B", "p_A"]
        _emit(args, to_csv(cols, sol.to_dict()["states"]))
    return 0


def _cmd_sweep(args) -> int:
    sf = parse_sf(args.sf)
    if args.family is None:
        raise ValidationError("sweep requires --family")
    family, values, options = _family_params(args, "reset_p")
    table = metrics.sweep(family, values, sf, args.prize, **options)
    if table.errors:
        sys.stderr.write(f"flagged rows: {sorted(table.errors)}\n")
    if args.format == "csv":
        _emit(args, to_csv(metrics.SWEEP_COLUMNS, table.rows))
    else:
        _emit(args, to_json(table.to_dict()))
    return 0


def _cmd_simulate(args) -> int:
    spec = _build_contest(args)
    sol = solver.solve(spec)
    summary = sim.simulate(sol, spec, args.paths, args.seed, args.max_steps)
    _emit(args, to_json(summary.to_dict()))
    return 0


def _cmd_check(args) -> int:
    spec = _build_contest(args)
    sol = solver.solve(spec)
    if args.epsilon == "auto":
        report = metrics.transient_dominance_auto(sol, spec)
    else:
        try:
            eps = float(args.epsilon)
        except ValueError as exc:
            raise ValidationError(f"malformed epsilon {args.epsilon!r}") from exc
        report = metrics.transient_dominance(sol, spec, eps)
    _emit(args, to_json(report.to_dict()))
    return 0


def _parse_sub(raw: str):
    raw = raw.strip().lower()
    kind, _, rest = raw.partition(":")
    pairs = _parse_pairs(rest)
    if "k" not in pairs:
        raise ValidationError(f"subcontest spec {raw!r} is missing k=")
    if len(pairs) > 1:
        unread = ", ".join(key for key in pairs if key != "k")
        raise ValidationError(f"subcontest spec {raw!r} does not read {unread}=")
    try:
        k = int(pairs["k"])
    except ValueError as exc:
        raise ValidationError(f"malformed k in {raw!r}") from exc
    if kind == "mk1":
        return inc.MK1(k)
    if kind in ("tow-head-start", "tow_head_start"):
        return inc.TowHeadStart(k)
    raise ValidationError(f"unknown subcontest kind {kind!r}")


def _cmd_incumbency(args) -> int:
    sf = parse_sf(args.sf)
    spec = inc.IncumbencySpec(
        rounds=args.rounds,
        shock_q=args.shock_q,
        sub=_parse_sub(args.sub),
        sf=sf,
        prize=args.prize,
    )
    report = inc.solve_incumbency(spec)
    payload = report.to_dict()
    if args.epsilon is not None:
        cert = inc.incumbency_transient_dominance(report, spec, args.epsilon)
        payload["transient_dominance"] = cert.to_dict()
    _emit(args, to_json(payload))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "incumbency": _cmd_incumbency,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        residual = float(exc.residual)  # NaN by default; inf before any checkpoint
        payload = {"error": str(exc), "residual": residual if math.isfinite(residual) else None}
        text = to_json(payload)
        if getattr(args, "out", None):
            write_atomic(args.out, text)
        else:
            sys.stderr.write(text)
        return 3
    except (ContestError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
