"""A fixed kernel that measures how fast the machine runs right now.

The machine's speed drifts by tens of percent within a minute.  A time
divided by the kernel's time around it cancels most of that.  The
kernel does not touch cliffcast, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the baseline machine (bench/README.md).
# Set-up times are reported in seconds at this speed.
NOMINAL_S = 0.036


def calibration_s() -> float:
    """Wall time of interpreter work mixed with 2x2 complex products, like
    the program's inner loops."""
    t0 = time.perf_counter()
    a = np.eye(2, dtype=complex)
    acc = 0
    for i in range(10000):
        a = a @ a
        acc += i * i
    return time.perf_counter() - t0


def calibrate(budget_s: float) -> list[float]:
    """Kernel times for about budget_s seconds, and at least two."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 2 or time.perf_counter() < deadline:
        samples.append(calibration_s())
    return samples
