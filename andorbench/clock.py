"""Times at the machine's reference speed.

The shared VM that runs the benchmark changes speed by up to 40% over tens
of seconds to minutes: the median time of one fixed probe differed by that
much between runs a minute apart, in CPU time as well as wall time. No run
length averages that out. So the benchmark times a fixed probe, a 2-ms loop
of numpy work on a 1024-entry array and Python arithmetic, the mix the
program itself runs, after every operation and around every other timed
interval. An interval's scaled time is its wall time multiplied by
``REFERENCE_S`` over the median probe time within ``WINDOW_S`` of the
interval's midpoint. At the reference speed, scaled time equals wall time.
"""

import bisect
import statistics
import time

import numpy as np

# The probe's time at the reference speed: its typical fast time on the 2-vCPU
# Xeon VM of the reference figures.
REFERENCE_S = 0.002
WINDOW_S = 3.0

_X = np.random.default_rng(0).normal(size=1024)


def _probe_work() -> float:
    acc = 0.0
    for _ in range(250):
        y = _X.reshape(-1, 2)
        z = np.abs(y[:, 1] - y[:, 0])
        acc += float(np.where(z < 1.0, z * z, z).sum())
        for k in range(20):
            acc += k * 0.5
    return acc


class Clock:
    def __init__(self):
        self.mids: list[float] = []      # probe midpoints, increasing
        self.times: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _probe_work()
            t1 = time.perf_counter()
            self.mids.append(0.5 * (t0 + t1))
            self.times.append(t1 - t0)

    def speed(self, at: float) -> float:
        """Median probe time within WINDOW_S of ``at``, or the nearest probe's."""
        lo = bisect.bisect_left(self.mids, at - WINDOW_S)
        hi = bisect.bisect_right(self.mids, at + WINDOW_S)
        if lo == hi:
            lo = min(max(0, lo - 1), len(self.mids) - 1)
            hi = lo + 1
        return statistics.median(self.times[lo:hi])

    def scaled(self, interval) -> float:
        """Scaled seconds of a (start, wall seconds) interval."""
        start, seconds = interval
        return seconds * REFERENCE_S / self.speed(start + 0.5 * seconds)

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between probes; returns its (start, wall seconds)."""
        self.probe(3)
        t0 = time.perf_counter()
        fn(*args)
        interval = (t0, time.perf_counter() - t0)
        self.probe(3)
        return interval
