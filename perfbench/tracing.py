"""Spans, self time and the percentile rule used by the benchmark.

Spans are recorded by the benchmark around its own calls into contestlab's
public API; the library itself is not instrumented.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import math
import time

TAIL_MIN_BEYOND = 10


class Tracer:
    """Records spans in memory: name, item, parent, start, end and attributes."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.item = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "item": self.item,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    item = None
    _null = contextlib.nullcontext({})

    def span(self, name: str):
        return self._null


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
    out = []
    for rec in spans:
        covered = 0.0
        cursor = rec["start"]
        for child in sorted(children.get(rec["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor, rec["start"])
            hi = min(child["end"], rec["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(rec["end"] - rec["start"] - covered)
    return out


def layer_self_time(spans: list) -> dict:
    """Total self time per layer."""
    totals: dict = {}
    for rec, own in zip(spans, self_times(spans)):
        layer = rec["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def samples_needed(level: float) -> int:
    """Fewest samples that leave at least ten beyond the ``level`` percentile."""
    n = TAIL_MIN_BEYOND
    while n - _rank(level, n) < TAIL_MIN_BEYOND:
        n += 1
    return n


def _rank(level: float, n: int) -> int:
    # the small offset keeps 95 * 200 / 100 from rounding up past 190
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def tail(samples: list, level: float) -> tuple:
    """The ``level`` percentile by the nearest rank rule.

    Returns ``(value, samples beyond it, sample count)``.
    """
    ordered = sorted(samples)
    rank = _rank(level, len(ordered))
    return ordered[rank - 1], len(ordered) - rank, len(ordered)
