"""Calibration kernel: how fast is this box *right now*?

The 2-core boxes this benchmark runs on change speed by +-15% over tens of
seconds (neighbours on the host, not this process: CPU time moves with wall
time).  Raw wall-clock medians of the same code then differ by 10-30% from
one run to the next, wider than any bound worth gating on.  A fixed pure-
Python kernel, timed in slices just before and just after each timed region,
moves with the workloads (correlation 0.7-0.8 per repetition) and takes the
drift out: run-to-run spread drops from 4-9% to 2.5-4% on a calm box, from
10-30% to 3-7% on a busy one.

Every timing metric is therefore reported **at reference speed**: wall
seconds divided by ``speed_factor`` = median slice time / REFERENCE_SLICE_S.
On a box on which the kernel takes exactly the reference time the figures are
plain wall-clock; the raw wall figures and the factor are kept beside them in
every record.  The kernel lives in ``perf/`` and must not change when the
program does: a change to it re-bases every timing metric.
"""

import gc
import heapq
import statistics
import time

#: Median slice time on the box the baseline in perf/README.md was taken on.
REFERENCE_SLICE_S = 0.0115
SLICES = 12
_ITERATIONS = 12_000


class _Cell:
    __slots__ = ("count", "key")

    def __init__(self, count, key):
        self.count = count
        self.key = key

    def bump(self, amount):
        self.count += amount
        return self.count


def _slice():
    """The interpreter work the layers are made of: dict and heap traffic,
    small-object allocation, method calls, string formatting."""
    heap = []
    table = {}
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(_ITERATIONS):
        key = i * 2654435761 % 1000003
        table[key % 4096] = (i, key)
        push(heap, (key, i))
        if i & 3 == 3:
            total += pop(heap)[0]
        total += _Cell(i, key).bump(1)
        total += len(f"t{key}/{i}")
    return total


def slice_seconds(slices=SLICES):
    """Wall seconds of ``slices`` kernel slices.

    The cyclic GC is off meanwhile: the kernel makes no cycles, and a full
    collection over the workload's live heap would be charged to the kernel
    after the timed region but not before it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = []
        for _ in range(slices):
            start = time.perf_counter()
            _slice()
            seconds.append(time.perf_counter() - start)
        return seconds
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(seconds):
    """> 1: the box is slower than the reference right now."""
    return statistics.median(seconds) / REFERENCE_SLICE_S
