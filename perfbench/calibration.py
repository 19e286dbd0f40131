"""Machine-speed calibration: a fixed reference load timed between jobs.

On a shared host the same job's time swings by up to 1.7x from one minute
to the next, in CPU time as much as in wall time, because other tenants
contend for the cores, caches and memory bus.  A fixed load timed right
before and right after a job slows down with it, so the benchmark reports
each measured time scaled by ``REF_S / calibration time``: seconds on a
machine where this load takes ``REF_S``.  The load is the benchmark's own
code and never calls the library, so a change to the library moves the
scaled times by the same factor as the raw ones.

The load mixes the three kinds of work the jobs do: interpreted Python
loops over ints and dicts, many small mod-p matrix products (group
closure) and an elementwise pass over a 4 MiB array (the z-scan's chunk
temporaries).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.02            # nominal time of one calibration load
REPEATS = 3
P = 11

_SMALL = np.random.default_rng(1).integers(0, P, size=(16, 16), dtype=np.int64)
_LARGE = np.arange(1 << 19, dtype=np.int64)     # 4 MiB


def _load() -> int:
    table, acc = {}, 0
    for i in range(45000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += k
    m = _SMALL
    for _ in range(1100):
        m = (m @ _SMALL) % P
    x = (_LARGE * 7 + 3) % 1000003
    return acc + int(m[0, 0]) + int(x[-1])


def measure() -> float:
    """Seconds one calibration load takes now: the median of REPEATS, so a
    single preemption does not skew it."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _load()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two calibrations into
    reference seconds."""
    return REF_S / ((before + after) / 2)
