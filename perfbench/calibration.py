"""Host-speed calibration for timings taken on a shared, noisy machine.

On a shared two-vCPU x86_64 host, the same simulation of the same
scenario took anywhere from 1.5 s to 2.8 s with nothing else of the
benchmark running: neighbours on the shared host slow every core by up to
a third, on a scale of seconds to minutes.  A fixed interpreter-bound
kernel timed right before and right after each measured section slows
down with it, so every host time the benchmark reports is scaled to a
reference speed:

    reported = measured x REFERENCE_S / (mean kernel time around the section)

i.e. seconds on a host where :func:`kernel` takes ``REFERENCE_S``.  On
six repeats of one 12-scenario workload this cut the run-to-run spread
of the summed time from 9.5 % to 5.4 % (coefficient of variation).

The kernel exercises what the simulator spends its time on: object
creation, heap pushes and pops of tuple keys, dict updates, frozensets and
small numpy gathers.  It belongs to the benchmark, not the program, so a
change to the simulator never changes the yardstick.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

import numpy as np

#: Kernel seconds that define the reference host speed (about its median
#: on that two-vCPU x86_64 host).
REFERENCE_S = 0.05
_ITERATIONS = 25_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def kernel() -> float:
    """A fixed amount of interpreter work; returns a checksum."""
    rng = random.Random(7)
    heap: list = []
    counts: dict = {}
    acc = 0.0
    table = np.arange(32, dtype=np.float64)
    picks = np.arange(0, 32, 3)
    for i in range(_ITERATIONS):
        item = _Item(i, rng.random())
        heapq.heappush(heap, (item.value, i, item))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].key
        if i & 7 == 0:
            acc += int(np.count_nonzero(table[picks] <= item.value * 32))
        acc += len(frozenset((i % 13, i % 7, i % 5)))
    return acc


def kernel_seconds() -> float:
    """Host seconds of one :func:`kernel` call, now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
