"""Host timings at a reference host speed.

On a shared machine the speed one process gets drifts by tens of
percent within seconds to minutes (neighbours come and go), so raw wall
time between runs — or between the drains of one run — varies far more
than the program does. :class:`HostClock` samples the host's speed all
through a run: every ``INTERVAL`` seconds a ``SIGALRM`` handler times a
short fixed loop that never calls the program. A wall-clock interval is
then converted to *reference seconds*: its wall time minus the ticks
that fell inside it, times the mean speed those ticks measured (ticks
are evenly spaced in time, so their mean is the time-weighted speed).
A program speed-up shows in full; host drift largely cancels.

The loop runs in the program's process, so it must not depend on the
program's state: it allocates no object the garbage collector tracks
and runs with the collector off, so a program that churns objects
neither slows the loop nor has collections land inside a tick (whose
time is taken out of the program's).
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

INTERVAL = 0.2
"""Seconds between speed samples (one sample costs ~4 ms)."""
REFERENCE_HZ = 200.0
"""The reference host runs the calibration loop this many times a
second; reported host timings are what that host would measure."""


class HostClock:
    """Context manager sampling host speed on a timer while active.

    Use only from the main thread (``signal.setitimer``). The samples
    are ``(time, tick_seconds, loop_seconds)`` triples: when the tick
    ran, how long the whole handler took, and how long its loop took.
    """

    def __init__(self):
        self.samples = []
        # The loop mixes the simulator's three kinds of host work: small
        # NumPy scans over PE-sized rows, gathers over a multi-megabyte
        # array, and interpreted dict churn.
        self._loads = (np.arange(4 * 192, dtype=np.int64)
                       .reshape(4, 192) * 7919 % 1000)
        self._big = np.arange(1 << 20, dtype=np.int64)  # 8 MB
        self._big *= 7919
        self._big %= 100003
        self._index = np.arange(1 << 16, dtype=np.int64) * 104729 % (1 << 20)
        self._previous = None

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def loop_seconds(self):
        """Wall time of one pass of the calibration loop."""
        started = time.perf_counter()
        for _ in range(150):
            prefix = np.cumsum(self._loads, axis=1)
            np.searchsorted(
                np.maximum(prefix[:, 1:], prefix[:, :-1])[0], 5000)
        gathered = self._big[self._index]
        np.cumsum(gathered)
        np.sort(gathered[:8192])
        table = {}  # int keys and values: the collector never tracks it
        for i in range(2500):
            table[i & 1023] = 2 * i
            if i % 3 == 0:
                table.get(i & 511)
        return time.perf_counter() - started

    def _tick(self, _signum, _frame):
        started = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            loop = self.loop_seconds()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((started, time.perf_counter() - started, loop))

    def speeds(self, start, end):
        """Speeds relative to the reference sampled in [start, end]."""
        return [1.0 / (loop * REFERENCE_HZ)
                for when, _tick, loop in self.samples if start <= when <= end]

    def speed(self, start, end):
        """Mean speed over [start, end]; the nearest sample's when no
        tick fell inside (there is always one: entry samples once)."""
        inside = self.speeds(start, end)
        if inside:
            return sum(inside) / len(inside)
        when, _tick, loop = min(
            self.samples, key=lambda s: abs(s[0] - (start + end) / 2))
        return 1.0 / (loop * REFERENCE_HZ)

    def reference_seconds(self, start, end, speed=None):
        """Wall seconds in [start, end] without the ticks, at reference
        host speed (``speed`` overrides the speed measured inside)."""
        ticks = sum(tick for when, tick, _loop in self.samples
                    if start <= when <= end)
        if speed is None:
            speed = self.speed(start, end)
        return (end - start - ticks) * speed
