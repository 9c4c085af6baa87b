"""Machine-speed gauge: a fixed piece of work timed between the ops of a run.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 2x within minutes: one round of identical
photon-stats ops took 1.8 s to 4.1 s within one minute, with CPU time equal
to wall time, so the slowdown is not time stolen from the process but a
slower core.  The gauge times a fixed workload that shares no code with wcs
(the brute-force photon statistics of `references.py`: pure-Python float
arithmetic, `math.lgamma`, list building) between ops, and the runner scales
each measured time by NOMINAL_S / (median of the NEAREST gauge samples taken
closest to it in time).  A time then reads as
it would have on a machine where one gauge sample takes NOMINAL_S, and a
change to wcs moves it while a change in machine speed mostly does not.  The
raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import references as ref

# one sample on the reference machine described in README.md, median
NOMINAL_S = 0.8e-3
# a run takes a sample after every EVERY_S of ops; a long op is followed by
# one sample per EVERY_S it took, up to MAX_SAMPLES
EVERY_S = 0.05
MAX_SAMPLES = 10
# an op is scaled by the median of this many samples nearest to it
NEAREST = 7


def sample() -> float:
    """Seconds taken by the fixed gauge work, once."""
    t0 = time.perf_counter()
    for x in (5.0, 10.0, 15.0, 20.0):
        ref.photon_stats(x, 0.0, 1.0, 0.5)
    return time.perf_counter() - t0


class Gauge:
    """Gauge samples of one stretch of a run (a round, a set-up probe)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._last = time.perf_counter()

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(sample())
            self.times.append(time.perf_counter())
        self._last = self.times[-1]

    def tick(self) -> None:
        """Sample in proportion to the op time since the last sample."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due:
            self.take(min(due, MAX_SAMPLES))

    def factor(self, at: float | None = None) -> float:
        """Scale from measured times to nominal ones: over the whole stretch,
        or at time `at` from the NEAREST samples closest to it."""
        if at is None:
            return NOMINAL_S / statistics.median(self.samples)
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(self.samples[lo:lo + NEAREST])
