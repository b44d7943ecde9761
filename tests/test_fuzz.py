"""Seeded fuzzing of the CLI input boundary (stdlib ``random`` only).

Each case mutates a small cyclic rule document or draws a malformed or
degenerate ``--sf`` string, runs ``solve``, ``check`` or ``simulate`` through
``cli.main`` in-process, and requires the documented exit-code contract:
nothing raised, and 0 (success), 2 (validation) or 3 (non-convergence).  A
successful ``solve`` must report a finite residual of at most 1e-9 * prize.
"""

import copy
import json
import math
import random

import pytest

from contestlab.cli import main

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
