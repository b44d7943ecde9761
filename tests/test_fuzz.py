"""Seeded fuzzing of the CLI input boundary (stdlib ``random`` only).

Each case mutates a small cyclic rule document (a hand-written four-state
rule, or a tug-of-war with resets that ``solve`` recognises from its table)
or draws a malformed or degenerate ``--sf`` string, runs ``solve``,
``check`` or ``simulate`` through ``cli.main`` in-process, and requires the
documented exit-code contract: nothing raised, and 0 (success), 2
(validation) or 3 (non-convergence).  A successful ``solve`` must report a
finite residual of at most 1e-9 * prize.

A second fuzzer renames the state ids of tug-of-war and consecutive-win
rules and rounds their chances; ``solve`` must still take the closed form
and give the builder's values and rows bit for bit through the renaming.

A third checks ``transient_dominance_auto`` on random rules of at most
seven states and on random family rules (reset rings, best-of, streaks and
extensions): the certificate is either unsatisfied at 1/4 - 1e-9 or sits at
its exact frontier, and on rules solved by backward induction a satisfied
certificate's effort floor lies below the measured effort.

A fourth draws ``ratio:powsum`` exponent pairs, far apart ones included, and
lopsided stakes: every battle solves and meets its first-order conditions
to 1e-12, and ``loggrad_inverse`` answers every positive target up to 1e19
or refuses it with a ``ContestError``.
"""

import copy
import json
import math
import random

import pytest

from contestlab import (
    ContestSpec,
    RatioForm,
    automaton_from_dict,
    automaton_to_dict,
    build_best_of,
    build_consecutive_win,
    build_extension,
    build_tug_of_war,
    parse_sf,
    solve,
    solve_battle,
    transient_dominance,
    transient_dominance_auto,
)
from contestlab.cli import main
from contestlab.errors import ContestError, ConvergenceError, DegenerateChainError
from test_automaton import _random_rule
from test_metrics import assert_frontier

# Two nonterminal states on a cycle (0 -A-> 1 -B-> 0, A's win at 0 is a
# lottery), a terminal won by A (2) and one won by B (3).
RULE = {
    "states": [
        {"id": 0, "label": "start", "terminal": None},
        {"id": 1, "label": "ahead", "terminal": None},
        {"id": 2, "label": "A wins", "terminal": "A"},
        {"id": 3, "label": "B wins", "terminal": "B"},
    ],
    "start": 0,
    "edges": [
        {"from": 0, "winner": "A", "to": [{"state": 1, "prob": 0.5}, {"state": 2, "prob": 0.5}]},
        {"from": 0, "winner": "B", "to": [{"state": 3, "prob": 1.0}]},
        {"from": 1, "winner": "A", "to": [{"state": 2, "prob": 1.0}]},
        {"from": 1, "winner": "B", "to": [{"state": 0, "prob": 1.0}]},
    ],
}

SF_SPECS = [
    "tullock:r=1",
    "tullock:r=0.5",
    "tullock:r=0",
    "tullock:r=-1",
    "tullock:r=2.5",
    "tullock:r=nan",
    "tullock:r=inf",
    "tullock:r=1e-300",
    "tullock:r=abc",
    "tullock:r",
    "tullock",
    "",
    ":",
    "serial:alpha=1",
    "serial:alpha=0.5",
    "ratio:pow,alpha=0.7",
    "ratio:pow,alpha=1.5",
    "ratio:powsum,alpha=0.5",
    "ratio:cube,alpha=0.5",
    "noisy:q=0.7,base=tullock:r=0.8",
    "noisy:q=2,base=tullock:r=1",
    "noisy:q=0.5",
    "noisy:q=0.5,base=noisy:q=0.5,base=tullock:r=1",
    "bogus:x=1",
]

BAD_VALUES = [math.inf, -math.inf, math.nan, "x", [1, 2], True, False, -1, -7]


def _fields(doc):
    """(container, key) of every scalar field of the document."""
    out = [(doc, "start")]
    for st in doc["states"]:
        out.extend((st, key) for key in ("id", "label", "terminal"))
    for edge in doc["edges"]:
        out.extend((edge, key) for key in ("from", "winner", "to"))
        for leg in edge["to"]:
            out.extend((leg, key) for key in ("state", "prob"))
    return out


def _mutate(rng, doc):
    kind = rng.choice(["none", "field", "field", "edge", "key"])
    if kind == "field":
        container, key = rng.choice(_fields(doc))
        container[key] = rng.choice(BAD_VALUES)
    elif kind == "edge":
        del doc["edges"][rng.randrange(len(doc["edges"]))]
    elif kind == "key":
        del doc[rng.choice(sorted(doc))]
    return kind


@pytest.mark.parametrize("seed", range(200))
def test_cli_exit_contract(seed, tmp_path):
    rng = random.Random(seed)
    doc = copy.deepcopy(RULE)
    _mutate(rng, doc)
    sf = rng.choice(SF_SPECS) if rng.random() < 0.5 else "tullock:r=1"
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    command = rng.choice(["solve", "check", "simulate"])
    out = tmp_path / "out"
    argv = [command, "--automaton", str(path), "--sf", sf, "--out", str(out)]
    if command == "simulate":
        argv += ["--paths", "200", "--seed", str(seed)]
    code = main(argv)
    assert code in (0, 2, 3)
    if command == "solve" and code == 0:
        residual = json.loads(out.read_text())["residual"]
        assert math.isfinite(residual) and residual <= 1e-9  # the default prize is 1


# The margin-3 tug-of-war with reset 0.3: an odd state count, so the closed
# form's recognizer runs on every valid draw.
TOW_RULE = automaton_to_dict(build_tug_of_war(3, 0.3))


def _homogeneous(sf: str) -> bool:
    try:
        return parse_sf(sf).homogeneous
    except ContestError:
        return False


@pytest.mark.parametrize("seed", range(60))
def test_cli_exit_contract_recognised_rule(seed, tmp_path):
    rng = random.Random(seed)
    doc = copy.deepcopy(TOW_RULE)
    kind = _mutate(rng, doc)
    sf = rng.choice(SF_SPECS) if rng.random() < 0.5 else "tullock:r=1"
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    command = rng.choice(["solve", "check", "simulate"])
    out = tmp_path / "out"
    argv = [command, "--automaton", str(path), "--sf", sf, "--out", str(out)]
    if command == "simulate":
        argv += ["--paths", "200", "--seed", str(seed)]
    code = main(argv)
    assert code in (0, 2, 3)
    if command == "solve" and code == 0:
        report = json.loads(out.read_text())
        assert math.isfinite(report["residual"]) and report["residual"] <= 1e-9
        if kind == "none" and _homogeneous(sf):
            assert report["method"] == "closed_tow"


@pytest.mark.parametrize("seed", range(60))
def test_relabelled_family_rule_keeps_the_closed_form(seed, relabel):
    rng = random.Random(seed)
    if rng.random() < 0.6:
        n = rng.randint(1, 12)
        reset_p = rng.choice([0.0, 0.3, 0.5, 0.7])
        rule = build_tug_of_war(n, reset_p, rng.randint(-(n - 1), n - 1))
    else:
        rule = build_consecutive_win(rng.randint(1, 12))
    ids = list(range(rule.n))
    rng.shuffle(ids)
    twin = automaton_from_dict(relabel(automaton_to_dict(rule), ids, rng.randint(9, 15)))
    sf = parse_sf(rng.choice(["tullock:r=1", "tullock:r=0.5", "serial:alpha=0.5"]))
    ref, sol = solve(ContestSpec(rule, sf)), solve(ContestSpec(twin, sf))
    assert sol.method == ref.method and ref.method in ("closed_tow", "closed_cw")
    for field in ("values_a", "values_b", "states"):
        rows, renamed = getattr(ref, field), getattr(sol, field)
        assert repr([rows[s] for s in sorted(rows)]) == repr([renamed[ids[s]] for s in sorted(rows)])


def _family_rule(rng):
    kind = rng.choice(["ring", "ring", "best-of", "streak", "extension"])
    if kind == "ring":
        n = rng.randint(2, 30)
        reset_p = rng.choice([0.0, round(rng.uniform(0.05, 0.6), 2)])
        return build_tug_of_war(n, reset_p, rng.randint(-(n - 1) // 2, (n - 1) // 2))
    if kind == "best-of":
        return build_best_of(rng.randint(0, 12))
    if kind == "streak":
        return build_consecutive_win(rng.randint(1, 12))
    return build_extension(build_best_of(rng.randint(1, 5)), rng.randint(2, 6))


@pytest.mark.parametrize("family", [False, True], ids=["random-rule", "family-rule"])
def test_certificate_frontier(family):
    satisfied, floors, at_reach = 0, 0, 0
    for seed in range(100 if family else 200):
        rng = random.Random(seed)
        rule = _family_rule(rng) if family else _random_rule(rng)
        sf = parse_sf(("tullock:r=1", "serial:alpha=0.5")[seed % 2])
        spec = ContestSpec(rule, sf, rng.choice([1.0, 2.5]) if family else 1.0)
        try:
            sol = solve(spec)
            report = transient_dominance_auto(sol, spec)
        except (ConvergenceError, DegenerateChainError):
            continue
        if not report.satisfied:
            assert report == transient_dominance(sol, spec, 0.25 - 1e-9)
            continue
        assert_frontier(sol, spec, report)
        satisfied += 1
        at_reach += report.epsilon == 1.0 - report.reach_both_prob
        if sol.method == "backward":
            assert report.implied_effort_floor <= report.measured_total_effort
            floors += 1
    if family:  # rules this small and random almost never certify
        assert satisfied >= 60 and floors >= 30 and at_reach >= 3


def test_powsum_battles_meet_their_first_order_conditions():
    rng = random.Random(24)
    pairs = [(0.05, 0.99, 1.0, 1.0)]  # the root sits within rounding of kmin/y here
    for _ in range(400):
        alpha, beta = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        pairs += [(alpha, beta, math.exp(rng.uniform(-6.0, 6.0)), math.exp(rng.uniform(-6.0, 6.0)))
                  for _ in range(5)]
    for alpha, beta, da, db in pairs:
        sf = RatioForm("powsum", alpha, beta)
        eq = solve_battle(sf, da, db)
        ga, gb = sf.curve_value(eq.effort_a), sf.curve_value(eq.effort_b)
        s2 = (ga + gb) ** 2
        assert abs(sf.curve_prime(eq.effort_a) * gb * da / s2 - 1.0) <= 1e-12
        assert abs(sf.curve_prime(eq.effort_b) * ga * db / s2 - 1.0) <= 1e-12
    refused = 0
    for alpha, beta, *_ in pairs[::5]:  # one entry per exponent pair
        sf = RatioForm("powsum", alpha, beta)
        for y in [5e-324, 1e-300, 1.0, 1e19] + [10.0 ** rng.uniform(-300.0, 19.0) for _ in range(5)]:
            try:
                x = sf.loggrad_inverse(y)
            except ContestError:
                refused += 1
                continue
            assert 0.0 < x < math.inf
    assert refused == len(pairs[::5])  # only at 5e-324, whose efforts exceed float range
