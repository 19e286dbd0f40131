"""Kernel layer: fixed micro-cases for the pure-numpy mod-p kernels.

The numpy implementations are timed directly (``*_np``), because the numpy
path is the one that counts where numba is absent.  Shapes:

* rref_mod     -- 50 matrices of 40 x 40 over GF(10007)
* matmul_mod   -- 3000 products of 8 x 8 matrices over GF(10007), the shape
                  of group closure
* z-scan       -- best_z_exhaustive over 96 normals and all 7^6 vectors
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from rep2ldc import _kernels as K

P = 10007
REPEATS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_cases(seed: int) -> tuple[dict[str, float], list[str]]:
    """Return ({metric: median seconds}, [failed checks])."""
    rng = np.random.default_rng(seed)
    mats = [rng.integers(0, P, size=(40, 40), dtype=np.int64) for _ in range(50)]
    pairs = [
        (rng.integers(0, P, size=(8, 8), dtype=np.int64),
         rng.integers(0, P, size=(8, 8), dtype=np.int64))
        for _ in range(3000)
    ]
    zp, zn = 7, 6
    normals = rng.integers(0, zp, size=(96, zn), dtype=np.int64)
    normals[normals.sum(axis=1) == 0, 0] = 1

    times = {
        "kernels.case_rref_s": _median_time(lambda: [K.rref_mod_np(m, P) for m in mats]),
        "kernels.case_matmul_s": _median_time(
            lambda: [K.matmul_mod_np(a, b, P) for a, b in pairs]
        ),
        "kernels.case_zscan_s": _median_time(lambda: K.best_z_exhaustive_np(normals, zp, zn)),
    }

    failures = []
    r, rk, piv = K.rref_mod_np(mats[0], P)
    r2, rk2, piv2 = K.rref_mod_np(r, P)
    if not (rk == rk2 and np.array_equal(r, r2) and np.array_equal(piv, piv2)):
        failures.append("rref_mod is not idempotent")
    a, b = pairs[0]
    if not np.array_equal(K.matmul_mod_np(a, b, P), (a.astype(object) @ b.astype(object)) % P):
        failures.append("matmul_mod differs from the exact product")
    z, count = K.best_z_exhaustive_np(normals, zp, zn)
    if count != K.count_nonzero_dots_np(normals, z, zp):
        failures.append("z-scan count differs from the recount of its z")
    return times, failures
