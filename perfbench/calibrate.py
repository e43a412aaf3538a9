"""Host-speed calibration: scale host timings to a reference host speed.

Other tenants of a shared machine slow it by 10-40%, in phases of seconds
to minutes, which moves every host timing taken meanwhile.  A fixed kernel
(interpreter work plus small matrix products, like the workloads) timed
right before and right after a measurement tracks that speed; each timing
is reported as it would read on a host whose kernel takes
:data:`REFERENCE_S`.  The kernel runs none of the program's code, so a
change to the program moves the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Tuple, TypeVar

import numpy as np

#: About the median kernel time on the reference host (2-core Intel Xeon, 2.0 GHz).
REFERENCE_S = 0.1
#: Kernel runs per speed reading; their median halves a single run's 6.5%
#: spread on a quiet host.
KERNEL_RUNS = 3

T = TypeVar("T")


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(200_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    a = np.ones((64, 128))
    b = np.full((128, 64), 1e-3)
    for _ in range(1_500):
        a[:, :64] = (a @ b) * 0.5
    return time.perf_counter() - t0


def speed_s() -> float:
    """Median of :data:`KERNEL_RUNS` kernel runs: one reading of host speed."""
    return statistics.median(kernel_s() for _ in range(KERNEL_RUNS))


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """``(fn(), wall seconds, wall seconds at the reference host speed)``."""
    before = speed_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    speed = (before + speed_s()) / 2
    return result, wall, wall * REFERENCE_S / speed
