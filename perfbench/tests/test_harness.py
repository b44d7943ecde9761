"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import pytest

import harness
import hostspeed
import workloads
from instances import WORKLOADS, make_items
from tracing import NullTracer, Tracer, layer_self_time, samples_needed, self_times, tail


def _shape(item: dict) -> tuple:
    """Everything about an item that fixes its size, and nothing the seed draws."""
    keys = ("kind", "family", "param", "params", "paths", "rounds", "sub_k")
    shape = tuple(item.get(key) for key in keys)
    if item["kind"] == "cli":
        shape += (item["argv"][0], len(item["call"].get("rule", {}).get("states", ())))
    return shape


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_items(workload):
    assert make_items(workload, 11) == make_items(workload, 11)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_sizes_other_parameters(workload):
    one, two = make_items(workload, 11), make_items(workload, 12)
    assert [_shape(item) for item in one] == [_shape(item) for item in two]
    assert one != two


@pytest.mark.parametrize(
    "n, level, value, beyond",
    [
        (1000, 99.0, 990, 10),
        (200, 95.0, 190, 10),
        (100, 90.0, 90, 10),
        (99, 75.0, 75, 24),
        (25, 50.0, 13, 12),
    ],
)
def test_tail_rule(n, level, value, beyond):
    samples = list(range(n, 0, -1))
    assert tail(samples, level) == (value, beyond, n)


@pytest.mark.parametrize("level, needed", [(50.0, 20), (75.0, 40), (90.0, 100), (95.0, 200)])
def test_samples_needed_leaves_ten_beyond(level, needed):
    assert samples_needed(level) == needed
    assert tail(list(range(needed)), level)[1] == 10
    assert tail(list(range(needed - 1)), level)[1] < 10


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "item": 0, "parent": parent, "start": start, "end": end}


def test_self_time_of_a_span_tree():
    spans = [
        _span(0, "bench.item", 0.0, 10.0),
        _span(1, "solver.solve", 1.0, 4.0, parent=0),
        _span(2, "metrics.sweep", 5.0, 9.0, parent=0),
        _span(3, "solver.solve", 6.0, 7.0, parent=2),
        _span(4, "solver.residual", 6.5, 8.0, parent=2),
    ]
    # spans 3 and 4 overlap inside span 2: together they cover 6.0..8.0
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    assert layer_self_time(spans) == pytest.approx({"bench": 3.0, "solver": 5.5, "metrics": 2.0})


def test_tracer_records_parents_and_items():
    tracer = Tracer()
    tracer.item = 4
    with tracer.span("bench.item"):
        with tracer.span("solver.solve") as rec:
            rec["route"] = "backward"
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["item"] == 4 and inner["route"] == "backward"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def _context(tmp_path, tracer=None):
    return workloads.Context(str(harness.ROOT), harness.child_env(), tracer or NullTracer(),
                             str(tmp_path / "rule.json"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_item_smoke_pass(workload, tmp_path):
    items = make_items(workload, 3)[:1]
    ctx = _context(tmp_path, Tracer())
    preps = harness.prepare(items, ctx)
    done = harness.run_pass(items, preps, ctx)
    assert done.failures == []
    assert len(done.raw) == len(done.factors) == 1 and done.raw[0] > 0.0
    assert done.seconds == pytest.approx(done.raw[0] * done.factors[0])
    root, first_call = ctx.tracer.spans[:2]
    assert root["name"] == "bench.item" and first_call["parent"] == root["id"]


def test_a_failed_check_counts_as_a_failed_item(tmp_path):
    items = make_items("cli-readme", 3)[:1]
    ctx = _context(tmp_path)
    preps = harness.prepare(items, ctx)
    preps[0]["expected"] = b"something else\n"
    failures = harness.run_pass(items, preps, ctx).failures
    assert [f["error"] for f in failures] == ["GateError"]


def test_tallies_must_repeat(tmp_path):
    path = tmp_path / "tally.json"
    assert harness.check_tallies([{"a": 1}, {"a": 1}], path, {}, 0)[1] == []
    assert harness.check_tallies([{"a": 1}], path, {}, 0)[1] == []
    assert len(harness.check_tallies([{"a": 2}], path, {}, 0)[1]) == 1
    assert len(harness.check_tallies([{"a": 1}, {"a": 2}], tmp_path / "other.json", {}, 0)[1]) == 1


def test_only_a_clean_run_sets_the_reference(tmp_path):
    path = tmp_path / "tally.json"
    harness.check_tallies([{"a": 1}, {"a": 2}], path, {}, 0)
    harness.check_tallies([{"a": 3}], path, {}, 1)
    assert not path.exists()
    assert harness.check_tallies([{"a": 1}], path, {}, 0)[1] == []
    assert path.exists()


def test_host_factor_scales_to_the_nominal_loop_time():
    assert hostspeed.factor(hostspeed.NOMINAL_S, hostspeed.NOMINAL_S) == pytest.approx(1.0)
    # a host twice as slow as nominal halves the measured times
    assert hostspeed.factor(1.0e-3, 2.0e-3) == pytest.approx(hostspeed.NOMINAL_S / 1.5e-3)
    assert hostspeed.factor(2.0e-3) == pytest.approx(hostspeed.NOMINAL_S / 2.0e-3)
    assert hostspeed.reference_s() > 0.0


def test_span_times_are_scaled_by_their_items_factor():
    spans = [_span(0, "solver.solve", 0.0, 2.0), {**_span(1, "solver.solve", 3.0, 4.0), "item": 1}]
    spans[0]["route"] = spans[1]["route"] = "backward"
    assert harness.span_metrics(spans, [0.5, 3.0]) == pytest.approx(
        {"solver.solve_ms.backward": 1000.0 + 3000.0})
