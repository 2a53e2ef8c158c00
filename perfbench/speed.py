"""Machine-speed sampling inside a measured worker process.

On a shared host the same work takes 20-40% longer from one minute to
the next.  ``SpeedSampler`` interrupts the worker every 100 ms (SIGALRM,
same thread, no extra thread) and times one fixed chunk of ``Fraction``
arithmetic over a 40 000-element pool, so the probe sees the core, the
caches and the memory the workload sees.  ``measure`` returns the wall
time of a call minus the time spent in the probe, both as measured and
scaled to the reference speed: ``work * REF_CHUNK_S / median(chunk)``.

A call that runs in another process (a CLI request) cannot be
interrupted; it is scaled by bursts of chunks taken just before and
just after it.
"""

from __future__ import annotations

import gc
import random
import signal
import sys
import time
from fractions import Fraction
from typing import Callable, List, Tuple

from common import median

INTERVAL_S = 0.1
#: median chunk time on the machine the benchmark was defined on
REF_CHUNK_S = 0.002
_BRACKET = 10  # explicit samples before and after each measured call


class SpeedSampler:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._pool = [Fraction(rng.randint(10, 10 ** 6), rng.randint(2, 10 ** 4))
                      for _ in range(40000)]
        self._pos = 0
        self.samples: List[float] = []

    def chunk(self) -> float:
        """Time one fixed chunk of arithmetic; returns its seconds.

        The collector is paused: otherwise the chunk's allocations would
        trigger collections whose cost depends on the workload's heap.
        """
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        seg = self._pool[self._pos:self._pos + 400]
        self._pos = (self._pos + 7919) % (len(self._pool) - 400)
        acc = 0
        for x, y in zip(seg, seg[1:]):
            acc += hash(x * y + y)
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        return took

    def pool_mb(self) -> float:
        """Memory the probe pool holds in this process, in MB."""
        return (sys.getsizeof(self._pool) + sum(
            sys.getsizeof(x) + sys.getsizeof(x.numerator)
            + sys.getsizeof(x.denominator) for x in self._pool)) / 2 ** 20

    def burst(self) -> List[float]:
        return [self.chunk() for _ in range(_BRACKET)]

    @staticmethod
    def scale(seconds: float, samples: List[float]) -> float:
        return seconds * REF_CHUNK_S / median(samples)

    def _on_alarm(self, signum, frame) -> None:
        self.chunk()

    def measure(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Run ``fn(*args)``; return (result, seconds, scaled seconds)."""
        before = self.burst()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        during = self.samples[first:]
        work = end - start - sum(during)
        return result, work, self.scale(work, before + during + self.burst())
