"""Seeded item lists for the benchmark workloads.

Standard library only, so that the set-up probe can draw a workload's items
before it starts timing ``import contestlab``.  The seed draws parameters
only: every workload has the same item shapes and sizes on every seed.  Each
parameter is drawn within 1% of a fixed centre (``_near``), because the
solvers' cost moves steeply with some of them (the cyclic engine's restart
and Newton stages fire or not; a simulation's cost follows the expected
contest length), and the work must stay comparable across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("acyclic-ladder", "cyclic-engine", "closed-montecarlo", "cli-readme")
# Percentile reported as each workload's item tail.  It is fixed per workload,
# not picked from the sample count, so that a faster program (more passes in
# a run) is compared at the same percentile; a run makes enough passes to
# have at least ten samples beyond it.  On cli-readme it is the median: a
# pass is six processes of about a second, and any level that reaches the two
# slowest invocations (check, incumbency) needs six or more passes a run.
TAIL_LEVEL = {
    "acyclic-ladder": 75.0,
    "cyclic-engine": 90.0,
    "closed-montecarlo": 75.0,
    "cli-readme": 50.0,
}

LADDER_KS = (4, 8, 12, 16, 20)
CYCLIC_SIZES = tuple(range(2, 11))
SIM_PATHS = 500_000
INCUMBENCY_ROUNDS = 1600
RULE_PLACEHOLDER = "{rule}"


def _near(rng: random.Random, centre: float) -> float:
    return rng.uniform(0.99 * centre, 1.01 * centre)


def _tullock(rng: random.Random, r: float) -> str:
    return f"tullock:r={_near(rng, r)!r}"


def _serial(rng: random.Random, alpha: float) -> str:
    return f"serial:alpha={_near(rng, alpha)!r}"


def race_automaton_doc(k: int, bonus_p: float) -> dict:
    """A first-to-k race in which a battle win jumps two steps with chance bonus_p.

    The rule is acyclic and symmetric; it has k*k nonterminal states plus
    2*k terminals.  The document follows the contestlab automaton schema.
    """
    ids = {}
    states = []

    def sid(a: int, b: int) -> int:
        if (a, b) not in ids:
            ids[(a, b)] = len(ids)
            terminal = "A" if a >= k else "B" if b >= k else None
            states.append({"id": ids[(a, b)], "label": f"{a}-{b}", "terminal": terminal})
        return ids[(a, b)]

    edges = []
    start = sid(0, 0)
    for a in range(k):
        for b in range(k):
            s = sid(a, b)
            for winner, da, db in (("A", 1, 0), ("B", 0, 1)):
                one, two = (a + da, b + db), (a + 2 * da, b + 2 * db)
                if max(two) > k:
                    legs = [{"state": sid(*one), "prob": 1.0}]
                else:
                    legs = [
                        {"state": sid(*one), "prob": 1.0 - bonus_p},
                        {"state": sid(*two), "prob": bonus_p},
                    ]
                edges.append({"from": s, "winner": winner, "to": legs})
    return {"states": states, "start": start, "edges": edges}


def _acyclic_ladder(rng: random.Random) -> list:
    return [
        {"kind": "ladder", "family": "best_of", "param": k,
         "sf": _tullock(rng, 0.8) if i % 2 == 0 else _serial(rng, 0.5)}
        for i, k in enumerate(LADDER_KS)
    ]


def _cyclic_engine(rng: random.Random) -> list:
    # Every item draws its own parameters: a stage of the engine fires or not
    # per item, and independent draws keep the number that flip small.
    items = []
    for r, reset_p in ((0.75, 0.0), (0.91, 0.3)):
        for family in ("tug_of_war", "consecutive_win"):
            for n in CYCLIC_SIZES:
                p = _near(rng, reset_p) if family == "tug_of_war" else 0.0
                items.append({"kind": "cyclic", "family": family, "param": n,
                              "reset_p": p, "sf": _tullock(rng, r)})
    for family, param in (("tug_of_war", 2), ("tug_of_war", 3),
                          ("consecutive_win", 2), ("consecutive_win", 3)):
        for sf in (
            f"ratio:pow,alpha={_near(rng, 0.7)!r}",
            f"ratio:powsum,alpha={_near(rng, 0.5)!r},beta={_near(rng, 0.8)!r}",
            f"noisy:q={_near(rng, 0.7)!r},base=ratio:pow,alpha={_near(rng, 0.6)!r}",
            f"noisy:q={_near(rng, 0.7)!r},base=ratio:powsum,alpha={_near(rng, 0.5)!r},"
            f"beta={_near(rng, 0.8)!r}",
        ):
            items.append({"kind": "route", "family": family, "param": param,
                          "reset_p": 0.0, "sf": sf})
    return items


def _closed_montecarlo(rng: random.Random) -> list:
    sf = _tullock(rng, 0.8)
    items = [
        {"kind": "sweep", "family": "tug_of_war", "params": list(range(1, 41)),
         "reset_p": _near(rng, 0.3), "sf": sf},
        {"kind": "sweep", "family": "consecutive_win", "params": list(range(1, 26)),
         "reset_p": 0.0, "sf": _serial(rng, 0.5)},
        {"kind": "route", "family": "tug_of_war", "param": 200,
         "reset_p": _near(rng, 0.4), "sf": sf},
        {"kind": "incumbency", "rounds": INCUMBENCY_ROUNDS,
         "shock_q": _near(rng, 0.5), "sub_k": 3, "sf": sf},
    ]
    for family, param in (("best_of", 2), ("tug_of_war", 3), ("consecutive_win", 3)) * 2:
        items.append({"kind": "montecarlo", "family": family, "param": param,
                      "reset_p": _near(rng, 0.3) if family == "tug_of_war" else 0.0,
                      "sf": _tullock(rng, 0.8), "paths": SIM_PATHS,
                      "sim_seed": rng.randrange(2**32)})
    return items


def _cli_readme(rng: random.Random) -> list:
    """The six ``contest`` invocations of the README.

    The seed generates the ``--automaton`` document and the ``simulate
    --seed``.  Each item carries the argv and the equivalent library call,
    from which the expected output is computed in-process.
    """
    rule = race_automaton_doc(4, _near(rng, 0.3))
    sim_seed = rng.randrange(2**31)
    tullock = "tullock:r=1"
    return [
        {"kind": "cli",
         "argv": ["solve", "--family", "tug-of-war", "--margin", "4", "--sf", tullock,
                  "--prize", "1", "--format", "json"],
         "call": {"op": "solve", "family": "tug_of_war", "param": 4, "sf": tullock}},
        {"kind": "cli",
         "argv": ["solve", "--automaton", RULE_PLACEHOLDER, "--sf", "serial:alpha=0.5"],
         "call": {"op": "solve", "rule": rule, "sf": "serial:alpha=0.5"}},
        {"kind": "cli",
         "argv": ["sweep", "--family", "consecutive-win", "--k", "1..25", "--sf", tullock,
                  "--format", "csv"],
         "call": {"op": "sweep", "family": "consecutive_win", "params": list(range(1, 26)),
                  "sf": tullock}},
        {"kind": "cli",
         "argv": ["simulate", "--family", "best-of", "--k", "1", "--sf", tullock,
                  "--paths", "200000", "--seed", str(sim_seed)],
         "call": {"op": "simulate", "family": "best_of", "param": 1, "sf": tullock,
                  "paths": 200_000, "sim_seed": sim_seed}},
        {"kind": "cli",
         "argv": ["check", "--family", "tug-of-war", "--margin", "30", "--reset-p", "0.5",
                  "--sf", tullock, "--epsilon", "auto"],
         "call": {"op": "check", "family": "tug_of_war", "param": 30, "reset_p": 0.5,
                  "sf": tullock}},
        {"kind": "cli",
         "argv": ["incumbency", "--rounds", "1620", "--shock-q", "0.5", "--sub", "mk1:k=3",
                  "--sf", tullock, "--epsilon", "0.01"],
         "call": {"op": "incumbency", "rounds": 1620, "shock_q": 0.5, "sub_k": 3,
                  "sf": tullock, "epsilon": 0.01}},
    ]


# One small item per layer and route: a traced run uses their spans for the
# per-layer metrics of layers its workload does not call.
PROBE_ITEMS = (
    {"kind": "ladder", "family": "best_of", "param": 3, "sf": "tullock:r=1"},
    {"kind": "cyclic", "family": "tug_of_war", "param": 3, "reset_p": 0.3, "sf": "tullock:r=0.75"},
    {"kind": "cyclic", "family": "consecutive_win", "param": 3, "reset_p": 0.0,
     "sf": "tullock:r=0.75"},
    {"kind": "sweep", "family": "consecutive_win", "params": [1, 2, 3, 4, 5], "reset_p": 0.0,
     "sf": "tullock:r=1"},
    {"kind": "incumbency", "rounds": 200, "shock_q": 0.5, "sub_k": 3, "sf": "tullock:r=1"},
    {"kind": "montecarlo", "family": "best_of", "param": 1, "reset_p": 0.0, "sf": "tullock:r=1",
     "paths": 20_000, "sim_seed": 7},
)


def probe_items(seed: int) -> list:
    """The probe items plus the six CLI invocations."""
    return [dict(item) for item in PROBE_ITEMS] + make_items("cli-readme", seed)


_MAKERS = {
    "acyclic-ladder": _acyclic_ladder,
    "cyclic-engine": _cyclic_engine,
    "closed-montecarlo": _closed_montecarlo,
    "cli-readme": _cli_readme,
}


def make_items(workload: str, seed: int) -> list:
    """The fixed item list of one workload, with parameters drawn from ``seed``."""
    return _MAKERS[workload](random.Random(f"{workload}/{seed}"))
