"""Host-speed calibration.

The host this benchmark was built on changes speed by up to a third
for tens of seconds at a time: a fixed pure-Python loop takes 2.2 ms in
one minute and 3.8 ms in the next, and the library's run times follow.
Runs of the same work a few minutes apart then differ by more than any
change worth detecting.  So every timed unit of work is preceded by a
short calibration kernel that exercises the interpreter the way the
simulator does (heap operations, dict updates, float arithmetic,
small tuples), and the unit's seconds are scaled by
``REFERENCE_S / kernel_s``: the time the unit would have taken at the
speed at which the kernel takes ``REFERENCE_S``.

The kernel is part of the benchmark, not of the library, so a change to
the library moves the unit's time and never the kernel's.  It runs with
the cyclic garbage collector off, so the size of the library's heap
does not leak into its time.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_S", "kernel", "speed_factor"]

#: Kernel seconds at the reference speed (its fast-minute time on the
#: 2-CPU host the bounds were set on).  Only ratios matter; the value
#: fixes the scale of every calibrated metric.
REFERENCE_S = 0.0022


def kernel(n: int = 3000) -> float:
    heap = []
    counts = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        t, _ = heapq.heappop(heap)
        acc += t * 1.0001
    return acc


def speed_factor(repeats: int = 3) -> float:
    """``REFERENCE_S`` over the fastest of ``repeats`` kernel runs now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return REFERENCE_S / best
