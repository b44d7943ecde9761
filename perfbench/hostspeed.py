"""The host-speed reference by which the benchmark's end-to-end times are scaled.

On a shared host the speed of one core drifts by 20-50% over seconds to
minutes (the same pure-Python loop takes 20 ms in one second and 30 ms in the
next), and every timing of a run moves with it.  The benchmark therefore times
a short fixed reference, ``reference_s``, before and after every item, and
multiplies the item's wall time by ``factor``: ``NOMINAL_S`` over the mean of
the two reference times.  The adjusted time is the item's time on a host that
runs the reference in ``NOMINAL_S``.

The reference does the two kinds of work contestlab's solvers do: an
interpreted Python loop and a chain of small numpy solves.  A pure-Python loop
alone under-corrects the items that spend their time in small numpy and scipy
calls, which slow down more than it does in a slow phase of the host.  The
reference runs no contestlab code, so a change to the program moves adjusted
times as it moves wall times, while a change in host speed cancels.  Wall
times are reported beside the adjusted ones.
"""

from __future__ import annotations

import time
from statistics import mean, median

import numpy as np

NOMINAL_S = 1.0e-3
LOOP_N = 5_000
SOLVES = 30
REPEATS = 3

_A = np.eye(20) * 20.0 + np.linspace(0.0, 1.0, 400).reshape(20, 20)
_B = np.linspace(1.0, 2.0, 20)


def _once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    x = _B
    for _ in range(SOLVES):
        x = np.linalg.solve(_A, x + _B)
        x = np.maximum(x, 0.0) / (1.0 + x.sum())
    return time.perf_counter() - start


def reference_s() -> float:
    """Median time of the reference over a few repeats; a stray interrupt in
    one repeat does not move it."""
    return median(_once() for _ in range(REPEATS))


def factor(*readings: float) -> float:
    """Scale for a time measured next to these reference readings."""
    return NOMINAL_S / mean(readings)
