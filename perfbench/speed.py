"""Machine-speed sampling, so that op times can be read at one reference speed.

On a shared 2-core host the same pure-Python op runs up to ~1.7x slower
while a neighbour is busy, and those phases last seconds, so two 20-second
runs of identical code can differ by half.  The benchmark therefore samples
the speed of a fixed calibration kernel every INTERVAL_S during the timed
section (from a SIGALRM handler, so long ops are covered too) and scales
each op's wall time by the mean of REF_S / (kernel time) over the samples
taken within WINDOW_S of the op, which for a long op spanning several
phases is its time-average speed factor.
The result reads as milliseconds on the reference machine.  Raw wall-clock
figures are reported next to the scaled ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

# One calibrate() call on the reference machine in its fast phase
# (Intel Xeon, 2 vCPUs, CPython 3.11.7): ~200 us.
REF_S = 200e-6
INTERVAL_S = 0.025
# Neighbour phases last seconds; a window of this half-width holds ~20
# samples, enough for a steady mean.
WINDOW_S = 0.25


def calibrate():
    """Fixed pure-Python work: a loop of list indexing, integer arithmetic and dict stores."""
    d = {}
    s = 0
    table = list(range(64))
    for i in range(1500):
        s = (s + table[i & 63] * i) % 1000003
        d[i & 255] = s
    return s


def kernel_seconds(reps=5):
    """Mean time of one calibrate() call, measured now."""
    t0 = perf_counter()
    for _ in range(reps):
        calibrate()
    return (perf_counter() - t0) / reps


class SpeedSampler:
    """Samples calibrate() every INTERVAL_S while active (a context manager)."""

    def __init__(self):
        self.times = []  # sample start times
        self.durations = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        calibrate()
        self.durations.append(perf_counter() - t0)
        self.times.append(t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def inside(self, t0, t1):
        """Time taken by samples that started in [t0, t1): the handler runs
        to completion before the interrupted code resumes, so they lie
        within the interval."""
        return sum(self.durations[bisect_left(self.times, t0) : bisect_left(self.times, t1)])

    def scale(self, t0, t1):
        """Mean of REF_S / kernel time over the samples within WINDOW_S of [t0, t1].

        The lowest and highest tenth of the samples are dropped, so that a
        sample interrupted by the OS does not skew a short window.
        """
        i = bisect_left(self.times, t0 - WINDOW_S)
        j = bisect_right(self.times, t1 + WINDOW_S)
        window = sorted(self.durations[i:j] or self.durations[max(0, i - 1) : i + 1])
        cut = len(window) // 10
        return fmean(REF_S / d for d in window[cut : len(window) - cut])
