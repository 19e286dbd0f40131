"""Hot mod-p kernels: numba-jitted loops with a pure-numpy fallback.

All arrays are int64 with entries already reduced into [0, p).  The jit
path is used when numba imports cleanly and the environment variable
REP2LDC_NUMBA is not set to 0/false/off; otherwise the numpy
implementations are bound to the public names.  Both variants stay
importable (``*_np`` / ``*_jit``) so benchmarks/bench_kernels.py can
compare them head to head.  numba is the optional ``jit`` extra.
rank_mod_batched, the whole-group rank pass, is numpy only.

Only prime fields come through here.  Rational arithmetic lives on the
Fraction code paths in linalg.py and never touches these kernels.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "NUMBA_IMPORTABLE",
    "rref_mod",
    "rank_mod_batched",
    "matmul_mod",
    "count_nonzero_dots",
    "best_z_exhaustive",
    "warmup",
]

# p*p must fit in int64 with headroom for one subtraction.
MAX_PRIME = 2**31 - 1


def _numba_requested() -> bool:
    flag = os.environ.get("REP2LDC_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def rref_mod_np(a: np.ndarray, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Reduced row-echelon form over GF(p).

    Returns (R, rank, pivot_cols).  Pivoting is the first nonzero entry
    in column order; no heuristics, so the output is deterministic.
    """
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, np.asarray(pivots, dtype=np.int64)


def _inv_mod_batched(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverses of nonzero residues.

    Square-and-multiply on int64; every product of two residues is below
    (p-1)^2 < 2^62 while p <= MAX_PRIME, so nothing overflows.
    """
    result = np.ones_like(x)
    base = x % p
    e = p - 2
    while e > 0:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def rank_mod_batched(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a (b, m, n) stack of matrices, as int64 (b,).

    numpy only, no jit twin: one elimination step per column, vectorized
    over the batch.  In column c each matrix takes its first row with a
    nonzero entry as pivot, scales it to 1 and clears column c in every
    row.  That zeroes the pivot row itself, so used rows drop out, every
    column before c is already zero, and the rank is the number of
    columns that found a pivot.  A matrix whose column c is zero
    subtracts zero multiples, so no batch member needs to be skipped.
    Entries stay in [0, p); products stay below (p-1)^2 < 2^62.
    """
    a = np.mod(a, p, dtype=np.int64)
    b, _, n = a.shape
    ranks = np.zeros(b, dtype=np.int64)
    batch = np.arange(b)
    for c in range(n):
        nz = a[:, :, c] != 0
        ranks += nz.any(axis=1)
        pivot = a[batch, nz.argmax(axis=1), c:]
        pivot = pivot * _inv_mod_batched(pivot[:, 0], p)[:, None] % p
        a[:, :, c:] -= a[:, :, c, None] * pivot[:, None, :]
        a[:, :, c:] %= p
    return ranks


def matmul_mod_np(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p, exact for any machine-word prime."""
    k = a.shape[1]
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if k * (p - 1) * (p - 1) < 2**63 - 1:
        return (a @ b) % p
    # Accumulator would overflow int64; fall back to Python ints.
    prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64)


def count_nonzero_dots_np(normals: np.ndarray, z: np.ndarray, p: int) -> int:
    """Number of rows of `normals` whose dot product with z is nonzero mod p."""
    dots = matmul_mod_np(normals, z.reshape(-1, 1), p)
    return int(np.count_nonzero(dots))


def best_z_exhaustive_np(normals: np.ndarray, p: int, n: int) -> tuple[np.ndarray, int]:
    """Scan all p**n vectors z, return the first one maximizing the number
    of rows of `normals` with nonzero dot product mod p.

    Enumeration order is lexicographic in the coordinates (last coordinate
    fastest), matching the jit kernel exactly.
    """
    total = p**n
    best_count = -1
    best_z = np.zeros(n, dtype=np.int64)
    chunk = 4096
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = np.empty((n, idx.size), dtype=np.int64)
        rem = idx
        for c in range(n - 1, -1, -1):
            cols[c] = rem % p
            rem = rem // p
        counts = np.count_nonzero(matmul_mod_np(normals, cols, p), axis=0)
        j = int(np.argmax(counts))
        if int(counts[j]) > best_count:
            best_count = int(counts[j])
            best_z = cols[:, j].copy()
    return best_z, best_count


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

NUMBA_IMPORTABLE = False
rref_mod_jit = None
matmul_mod_jit = None
count_nonzero_dots_jit = None
best_z_exhaustive_jit = None

if _numba_requested():
    try:
        from numba import njit

        NUMBA_IMPORTABLE = True
    except ImportError:
        NUMBA_IMPORTABLE = False

if NUMBA_IMPORTABLE:

    @njit(cache=True)
    def _pow_mod(a, e, p):
        result = 1
        base = a % p
        while e > 0:
            if e & 1:
                result = result * base % p
            base = base * base % p
            e >>= 1
        return result

    @njit(cache=True)
    def _rref_mod_impl(a, p):
        a = a.copy() % p
        m, n = a.shape
        r = 0
        pivots = np.empty(min(m, n), dtype=np.int64)
        for c in range(n):
            if r == m:
                break
            piv = -1
            for i in range(r, m):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(n):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            inv = _pow_mod(a[r, c], p - 2, p)
            for j in range(c, n):
                a[r, j] = a[r, j] * inv % p
            for i in range(m):
                if i != r and a[i, c] != 0:
                    f = a[i, c]
                    for j in range(c, n):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            pivots[r] = c
            r += 1
        return a, r, pivots[:r].copy()

    @njit(cache=True)
    def _mod_step(p):
        # how many products of residues fit in int64 before reducing
        step = (2**62) // ((p - 1) * (p - 1)) if p > 1 else 2**62
        if step < 1:
            step = 1
        return step

    @njit(cache=True)
    def _matmul_mod_impl(a, b, p):
        m, k = a.shape
        n = b.shape[1]
        out = np.zeros((m, n), dtype=np.int64)
        step = _mod_step(p)
        for i in range(m):
            for j in range(n):
                acc = 0
                cnt = 0
                for l in range(k):
                    acc += a[i, l] * b[l, j]
                    cnt += 1
                    if cnt == step:
                        acc %= p
                        cnt = 0
                out[i, j] = acc % p
        return out

    @njit(cache=True)
    def _count_nonzero_dots_impl(normals, z, p):
        k, n = normals.shape
        step = _mod_step(p)
        cnt = 0
        for r in range(k):
            acc = 0
            terms = 0
            for c in range(n):
                acc += normals[r, c] * z[c]
                terms += 1
                if terms == step:
                    acc %= p
                    terms = 0
            if acc % p != 0:
                cnt += 1
        return cnt

    @njit(cache=True)
    def _best_z_exhaustive_impl(normals, p, n):
        k = normals.shape[0]
        total = 1
        for _ in range(n):
            total *= p
        step = _mod_step(p)
        z = np.zeros(n, dtype=np.int64)
        best_z = np.zeros(n, dtype=np.int64)
        best_count = -1
        for _ in range(total):
            cnt = 0
            for r in range(k):
                acc = 0
                terms = 0
                for c in range(n):
                    acc += normals[r, c] * z[c]
                    terms += 1
                    if terms == step:
                        acc %= p
                        terms = 0

                if acc % p != 0:
                    cnt += 1
            if cnt > best_count:
                best_count = cnt
                best_z[:] = z
            i = n - 1
            while i >= 0:
                z[i] += 1
                if z[i] == p:
                    z[i] = 0
                    i -= 1
                else:
                    break
        return best_z, best_count

    rref_mod_jit = _rref_mod_impl
    matmul_mod_jit = _matmul_mod_impl
    count_nonzero_dots_jit = _count_nonzero_dots_impl
    best_z_exhaustive_jit = _best_z_exhaustive_impl


USING_NUMBA = NUMBA_IMPORTABLE

if USING_NUMBA:
    rref_mod = rref_mod_jit
    matmul_mod = matmul_mod_jit
    count_nonzero_dots = count_nonzero_dots_jit
    best_z_exhaustive = best_z_exhaustive_jit
else:
    rref_mod = rref_mod_np
    matmul_mod = matmul_mod_np
    count_nonzero_dots = count_nonzero_dots_np
    best_z_exhaustive = best_z_exhaustive_np


def warmup() -> None:
    """Trigger jit compilation of every kernel on tiny inputs."""
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    rref_mod(a, 5)
    matmul_mod(a, a, 5)
    z = np.array([1, 1], dtype=np.int64)
    count_nonzero_dots(a, z, 5)
    best_z_exhaustive(a, 2, 2)
