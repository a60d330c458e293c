"""A fixed reference loop that the benchmark's times are divided by.

On a shared host the CPU speed a process gets can swing by +-25 % over
minutes.  This loop does the kinds of work qlag does (small-matrix numpy
calls, building a set of tuples, sweeping a 64^3 array; about 40 ms on a
2-core Xeon) and slows with those swings, so a time divided by this
loop's time, measured on both sides of it, stays steady where the raw
time does not.  qlag's code never runs inside it.
"""

import time

import numpy as np

# The loop's time on the 2-core Xeon the benchmark was tuned on, in a
# quiet phase; converts ratios back to seconds.
NOMINAL_SECONDS = 0.040


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()  # the results are discarded; only the time counts
    small = np.arange(16.0).reshape(4, 4) / 7.0
    acc = 0.0
    for i in range(2000):
        acc += float(np.max(np.abs(small @ small.T + i)))
    seen = {(i % 97, i % 89, i) for i in range(50000)}
    grid = np.linspace(0.0, 1.0, 64**3).reshape(64, 64, 64)
    for axis in range(3):
        grid = (np.roll(grid, 1, axis=axis) + np.roll(grid, -1, axis=axis)) * 0.5
    return time.perf_counter() - start
