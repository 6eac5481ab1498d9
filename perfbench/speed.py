"""Host speed calibration: how fast this machine runs Python right now.

The benchmark's machine is a 2-vCPU VM on a shared host.  Each logical
CPU flips between a fast and a slow state, about 1.7x apart, that last a
fraction of a second to a few seconds, and the share of time spent slow
drifts over minutes: a whole run can be mostly slow.  Timing the program
alone then measures the host.  So the benchmark times a fixed reference
job (:func:`reference_job`, pure-Python heap, dict and float work that
uses nothing from the program) on the CPU the program runs on, right
before and right after each short piece of program work, and scales the
work's time by ``REFERENCE_S`` over the reference job's mean time around
it.  A scaled time reads as "seconds on the reference host" and changes
only when the program's own cost does: the reference job cannot get
faster or slower with the program.

What scaling leaves behind: the slow state slows the program slightly
less than the reference job (about 1.6x against 1.7x), and the state can
flip during a piece of work, so each scaled time is noisy; the
benchmark reports medians over many of them.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import time
from typing import Optional

__all__ = ["REFERENCE_S", "reference_job", "calibrate", "scaled"]

#: Reference job time on a 2-vCPU x86 VM (Intel Xeon) in its fast state.
#: Only fixes the scale of reported times; any constant would do.
REFERENCE_S = 0.0045
#: Reference jobs per calibration (about 15-25 ms in all).
_JOBS = 3


def reference_job(n: int = 6000) -> float:
    """Fixed interpreter-bound work: seeded heap, dict and float updates."""
    rng = random.Random(12345)
    heap: list = []
    sums: dict = {}
    acc = 0.0
    for i in range(n):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        key = i % 97
        sums[key] = sums.get(key, 0.0) + x * 1.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc + sum(sorted(sums.values()))


def calibrate(cpu: Optional[int] = None) -> float:
    """Mean seconds the reference job takes now, on logical CPU ``cpu`` if given."""
    saved = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        for _ in range(_JOBS):
            reference_job()
        return (time.perf_counter() - start) / _JOBS
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, saved)


def scaled(seconds: float, *calibrations: float) -> float:
    """``seconds`` of program time as seconds on the reference host.

    ``calibrations`` are reference job times (:func:`calibrate`) taken
    on the same CPU right around the program work.
    """
    return seconds * REFERENCE_S / statistics.fmean(calibrations)
