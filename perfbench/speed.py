"""Host-speed meter: wall times corrected for the speed a shared host gives.

On a shared host the speed one process gets drifts, by up to 2x over
stretches of ten seconds and more, so two runs of the same code on the
same inputs can read 30% apart.  The meter measures that speed while the
benchmark works: every PERIOD seconds a SIGALRM handler, in the
benchmark's own thread, runs a fixed piece of exact rational arithmetic
of the kinds commro does (see sample_work) and records how long it took.

An interval of benchmark work is then reported in reference seconds:
its wall time, minus the time the meter itself ran inside it, times the
host speed averaged over the interval.  The speed of one sample is
REFERENCE / sample time, smoothed as the median of SMOOTH neighbouring
samples so that one preempted sample does not count; the speed of an
interval is the mean of the smoothed speeds of the samples taken in it
or within one PERIOD either side.  A mean and not a median, because the
host switches between a slow and a fast state for seconds at a time, and
a long interval spends part of its time in each.

A reference second is a second on a host where one sample takes
REFERENCE seconds; on the benchmark's 2-vCPU development host a sample
takes 5-9 ms, so reference seconds are close to wall seconds there.  A
change to commro moves its reference seconds, because the sample work
does not call commro.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.2  # seconds between the starts of two samples
REFERENCE = 0.007  # seconds one sample takes on the reference host
SMOOTH = 5  # samples in the running median of speeds

_rng = random.Random(5)
_SMALL = tuple(tuple(Fraction(7 * i + j + 1, j + 2) for j in range(6)) for i in range(6))
_SPARSE = tuple(tuple(Fraction(_rng.randint(-4, 4), _rng.randint(1, 3))
                      if _rng.random() < 0.25 else 0 for _ in range(16)) for _ in range(16))
_POOL = [Fraction(_rng.randint(-99, 99), _rng.randint(1, 50)) for _ in range(20000)]
_PICKS = [_rng.randrange(len(_POOL)) for _ in range(600)]


def sample_work() -> tuple:
    """The fixed work of one sample, in three kinds that commro's work mixes:
    products of small Fraction matrices whose entries grow, a dense product
    of mostly-zero matrices that skips zeros, and sums over Fractions spread
    through a few megabytes of memory."""
    m = _SMALL
    for _ in range(3):
        m = tuple(tuple(sum(m[i][k] * _SMALL[k][j] for k in range(6)) / (i + j + 1)
                        for j in range(6)) for i in range(6))
    a = tuple(tuple(Fraction(x) for x in row) for row in _SPARSE)
    out = [[Fraction(0)] * 16 for _ in range(16)]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x == 0:
                continue
            for j, y in enumerate(a[k]):
                if y:
                    out[i][j] += x * y
    total = Fraction(0)
    for index in _PICKS:
        total += _POOL[index]
    return m[0][0], out[0][0], total


class SpeedMeter:
    """Samples host speed from SIGALRM while running; main thread only."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        sample_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        if self._previous is not None:  # still running: arm the next sample
            signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def __enter__(self) -> SpeedMeter:
        for _ in range(3):  # warm-up, not recorded
            sample_work()
        self._previous = signal.signal(signal.SIGALRM, self._sample) or signal.SIG_DFL
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        previous, self._previous = self._previous, None
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    def speeds(self) -> list[float]:
        return [REFERENCE / (e - s) for s, e in zip(self.starts, self.ends)]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done between two perf_counter readings."""
        if not self.starts:
            raise RuntimeError("the speed meter has no samples")
        lo = bisect.bisect_left(self.starts, start - PERIOD)
        hi = bisect.bisect_right(self.starts, end + PERIOD)
        if lo == hi:  # no sample near: take the closest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        own = sum(max(0.0, min(e, end) - max(s, start))
                  for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        if len(self._smoothed) < len(self.starts):
            speeds = self.speeds()
            half = SMOOTH // 2
            self._smoothed = [statistics.median(speeds[max(0, i - half):i + half + 1])
                              for i in range(len(speeds))]
        return (end - start - own) * statistics.fmean(self._smoothed[lo:hi])
