"""Host speed, sampled with a fixed reference loop between ops.

On shared machines the same process doing the same work runs 20-40%
faster or slower for stretches of seconds to minutes, with process CPU
time equal to wall time (so it is not descheduling; it is the core being
shared).  A benchmark run of 20 s sits inside one or two such stretches,
so raw wall times of runs minutes apart differ by more than any useful
regression bound.

The reference loop below does a fixed mix of the work the package does
(Fraction arithmetic, tuples and dicts, small int64 numpy updates) and
never changes.  Taking it every ``INTERVAL_S`` between ops measures the
host's speed where each op ran; an op's time multiplied by
``REFERENCE_MS / reference time`` is its time at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_MS = 2.0  # reference-loop time that scaled figures assume
INTERVAL_S = 0.1  # at most one reference sample per interval of loop time
WINDOW = 5  # samples in the running median around each op


def reference_work():
    acc = Fraction(0)
    rows = []
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        rows.append(tuple((i * j) % 97 for j in range(12)))
    index = {row: k for k, row in enumerate(rows)}
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(40):
        a = (a * 3 + np.outer(a[0], a[1])) % 101
    return acc, len(index), int(a.sum())


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self):
        """Time one reference loop, with the garbage collector off so that
        a collection of the package's objects is not charged to the host."""
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append(start)
        self.seconds.append(end - start)
        self.spent += end - start

    def maybe_sample(self):
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        now = perf_counter()
        if now >= self._next:
            self.sample()
            self._next = perf_counter() + INTERVAL_S

    def scale_at(self, t: float) -> float:
        """Factor from wall time to reference time near time ``t``: the
        running median of the ``WINDOW`` samples closest in order."""
        k = bisect_left(self.times, t)
        lo = max(0, min(k - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_MS / 1000 / statistics.median(self.seconds[lo:lo + WINDOW])

    def scale(self) -> float:
        """Factor from wall time to reference time over every sample."""
        return REFERENCE_MS / 1000 / statistics.median(self.seconds)
