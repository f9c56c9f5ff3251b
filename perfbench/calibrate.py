"""The machine-speed reference: a fixed computation timed between measured runs.

The benchmark is meant for small shared virtual machines.  There, the speed
of one virtual CPU drifts by tens of percent over seconds to minutes as the
neighbours of its physical core come and go, and the two CPUs drift
independently.  Medians over many runs remove short noise, not that drift.
So a batch workload pins the benchmark and its children to one CPU
(:func:`one_cpu`) and times this kernel — which never changes and
calls nothing of the program — before and after every measured run.  A run's
CPU-bound times are then reported in *reference seconds*::

    t * NOMINAL_S / mean(kernel time before the run, kernel time after it)

the time the run would have taken on that CPU at the speed it had when the
benchmark was defined.  A slower program still reads slower; a busier
neighbour does not.

The kernel mixes the kinds of work the workloads do: interpreter-bound
record building, sorting and JSON encoding, many NumPy calls on small
arrays, and a few passes over arrays larger than the per-core caches.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from typing import List

import numpy

#: Median kernel time on the 2-core Xeon VM the benchmark was defined on.
NOMINAL_S = 0.125
#: Kernel runs per reading; a reading is their median.
REPEATS = 3


def kernel() -> float:
    """Run the reference computation once; return its wall time in seconds."""
    started = time.perf_counter()
    records = [
        {"id": index, "shape": (index % 7, index % 11), "value": (index * 2654435761) % 4093}
        for index in range(12000)
    ]
    records.sort(key=lambda record: (record["value"], record["id"]))
    json.dumps(records)
    small = numpy.arange(256, dtype=numpy.int64)
    for step in range(1500):
        numpy.abs(small - step % 256).max()
    large = (numpy.arange(1 << 19, dtype=numpy.int64) * 2654435761) % 1000003
    for _ in range(3):
        order = numpy.argsort(large, kind="stable")
        numpy.bincount(large[order] & 4095).max()
    return time.perf_counter() - started


@contextlib.contextmanager
def one_cpu():
    """Run this process, and every child it starts meanwhile, on one CPU, so
    the kernel readings and the runs share that CPU's speed."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class SpeedGauge:
    """Kernel readings taken between measured runs."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> None:
        self.readings.append(statistics.median(kernel() for _ in range(REPEATS)))

    def scale(self) -> float:
        """Reference seconds per wall second of the run between the last two
        readings."""
        return NOMINAL_S / statistics.mean(self.readings[-2:])
