"""Host speed, sampled while the program runs, to scale the times measured.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within seconds, for every process alike: process CPU time drifts
with wall time, so the slowdown is in execution, not in waiting for a core.
A ``Sampler`` interrupts the process every ``PERIOD_S`` seconds of wall time
and runs one unit of a fixed pure-Python kernel, so that the kernel runs on
the same host, at the same moments, as the program it interrupts. The
benchmark divides each time it measures by the mean time of the units that
ran during it, or around it if it is short. The kernel is not the program's
code and does not change with it, so a change to the program moves the
quotient, while a change of host speed mostly cancels out of it.

Intervals are timed with ``Sampler.now``, a clock that stops while a unit
runs, so that the samples are not counted in the program's time.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from heapq import heappop, heappush

PERIOD_S = 0.02        # wall time between two units
EVENTS_PER_UNIT = 300  # so that about 2.5% of the process's time goes to units
UNIT_MS = 0.5          # nominal time of one unit; scaled times are at this speed
LOCAL_UNITS = 20       # fewest units that give the host's speed around an interval
NODES = 64


class Sampler:
    """Runs kernel units on a wall-clock timer while it is entered.

    Use it in the main thread of a process that installs no other SIGALRM
    handler; the previous handler is put back on exit.
    """

    def __init__(self):
        self._rng = random.Random(12345)
        self._heap: list[tuple[float, int, int]] = []
        self._state = [[0, 0.0] for _ in range(NODES)]
        for v in range(NODES):
            heappush(self._heap, (self._rng.random(), v, 0))
        self.unit_times: list[float] = []
        self.busy = 0.0        # seconds spent in units so far
        self._previous = None

    def _unit(self) -> None:
        heap, state, rng = self._heap, self._state, self._rng
        acc = 0.0   # float work per event, as the simulator does; the value is not used
        for _ in range(EVENTS_PER_UNIT):
            t, v, k = heappop(heap)
            s = state[v]
            s[0] += 1
            s[1] += t * 0.5 + (k & 3)
            acc += s[1] / (s[0] + 1.0)
            heappush(heap, (t + rng.expovariate(1.0), (v * 7 + k) % NODES, k + 1))

    def _tick(self, signum, frame) -> None:
        # The cyclic collector stays off during a unit: a collection of the
        # program's objects would be charged to the unit and slow it.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._unit()
        elapsed = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.unit_times.append(elapsed)
        self.busy += elapsed

    def now(self) -> float:
        """Seconds from an arbitrary origin, not counting time spent in units."""
        while True:
            busy = self.busy
            t = time.perf_counter()
            if busy == self.busy:   # no unit ran between the two reads
                return t - busy

    def mean_unit_ms(self) -> float:
        return 1e3 * sum(self.unit_times) / len(self.unit_times)

    def scale(self, first: int, end: int) -> float:
        """Factor that brings a time measured while units ``first`` to
        ``end - 1`` ran to the nominal speed: UNIT_MS over their mean time.

        An interval shorter than LOCAL_UNITS units is given the units around
        it, the same number on either side where the run has them.
        """
        mid, half = (first + end) // 2, max((end - first + 1) // 2, LOCAL_UNITS // 2)
        window = self.unit_times[max(0, mid - half):mid + half] or self.unit_times
        return UNIT_MS / (1e3 * sum(window) / len(window))

    def __enter__(self) -> Sampler:
        self._tick(None, None)   # so that a short run has a unit too
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
