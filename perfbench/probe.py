"""Reference probes: fixed computations timed between operations.

The host this benchmark runs on changes speed from minute to minute
(see README.md).  Dividing an operation's time by a probe timed next to
it gives a figure in "probes" that follows the program's cost rather
than the host's.  Interpreter-bound and memory-bound code drift
differently, so there are two probes: ``probe`` mixes float
arithmetic, ``math`` calls and a small heap, like the inner oracle;
``ArrayProbe`` sorts and scans arrays a few MB large, like the improper
sampling and hull.  Neither touches the program.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

_STEPS = 6000
_REPEATS = 3


def _reference_work() -> float:
    heap: list[tuple[float, int]] = []
    acc, x = 0.0, 0.5
    for i in range(_STEPS):
        x = x * 0.999 + 0.37
        acc += math.log1p(x) - 0.25 * x / (1.0 + x)
        heapq.heappush(heap, (-acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def probe() -> float:
    """Seconds taken by the reference computation, mean of three runs.

    The mean, not the fastest: the operations meet the host's contention
    on average, and a probe that filters it out drifts against them."""
    total = 0.0
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        total += time.perf_counter() - t0
    return total / _REPEATS


class ArrayProbe:
    """Seconds to lexsort and scan fixed arrays of 2**18 pairs, mean of
    three runs.  The arrays are drawn once, when the probe is made."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(0.0, 1.0, 1 << 18)
        self._y = rng.uniform(0.0, 1.0, 1 << 18)

    def __call__(self) -> float:
        total = 0.0
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            order = np.lexsort((-self._y, -self._x))
            np.log1p(self._x * np.maximum.accumulate(self._y[order]))
            total += time.perf_counter() - t0
        return total / _REPEATS
