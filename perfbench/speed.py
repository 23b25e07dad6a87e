"""A speedometer for a host whose speed drifts.

On a shared host the same code can run at speeds that differ by a factor
of two from one second to the next, with CPU time equal to wall time, so
neither more repeats nor CPU time remove the drift.  The speedometer times
a fixed pure-Python snippet (exact ``Fraction`` arithmetic over dicts and
tuples, like boxnet's inner loops, but independent of boxnet) often during
a measurement, and rescales each measured duration to a host on which the
snippet takes ``REFERENCE_S``: the duration times ``REFERENCE_S`` over the
median of the readings taken during it and the NEIGHBOURS nearest on each
side.  Only work done in this process is scaled: readings here do not
track the speed of a child process (on two vCPUs they would run beside it).
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from time import perf_counter

REFERENCE_S = 0.0008
PERIOD_S = 0.05
GAP_S = 0.03  # between operations, take a reading when the last is older than this
BURST = 3  # a reading is the fastest of BURST runs, so one interruption does not count
NEIGHBOURS = 2  # readings on each side of an interval that also count for it


def snippet() -> dict:
    acc = {}
    half = Fraction(1, 2)
    for a in product(range(2), repeat=7):
        v = half ** (sum(a) % 3 + 1) * Fraction(a[0] + 1, 3)
        acc[a[:4]] = acc.get(a[:4], 0) + v
    return acc


class Speedometer:
    def __init__(self):
        self.times: list[float] = []     # when each reading started
        self.readings: list[float] = []  # seconds the snippet took
        self._busy = False

    def tick(self, *_signal) -> None:
        """Take one reading (also the SIGALRM handler)."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = t = perf_counter()
        fastest = float("inf")
        for _ in range(BURST):
            snippet()
            fastest, t = min(fastest, perf_counter() - t), perf_counter()
        self.readings.append(fastest)
        self.times.append(t0)
        if collecting:
            gc.enable()
        self._busy = False

    def due(self) -> None:
        """Take a reading unless the last one is younger than GAP_S (called
        between operations)."""
        if not self.times or perf_counter() - self.times[-1] > GAP_S:
            self.tick()

    @contextmanager
    def around(self):
        """Readings before and after the block and every PERIOD_S seconds in
        the middle of it, from a timer; readings taken inside a timed
        interval are subtracted from it by ``scaled``."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def scaled(self, t0: float, t1: float) -> float:
        """The work done in this process in [t0, t1], less the readings taken
        inside, at the reference speed.  The caller takes readings before t0
        and after t1."""
        i, j = bisect_left(self.times, t0), bisect_right(self.times, t1)
        seconds = t1 - t0 - sum(self.readings[i:j])
        window = self.readings[max(i - NEIGHBOURS, 0):j + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.median(window)
