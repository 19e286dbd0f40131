"""Hot mod-p kernels, in numpy.

All arrays are int64 with entries already reduced into [0, p).  Every
result is exact: matmul_mod accumulates in int64 while that cannot
overflow and in Python ints otherwise, and the eliminations keep every
product of two residues below (p-1)^2 < 2^62.

Only prime fields come through here.  Rational arithmetic lives on the
Fraction code paths in linalg.py and never touches these kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rref_mod",
    "rank_mod_batched",
    "matmul_mod",
    "count_nonzero_dots",
    "best_z_exhaustive",
]

# p*p must fit in int64 with headroom for one subtraction.
MAX_PRIME = 2**31 - 1


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, int, np.ndarray]:
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

    One elimination step per column, vectorized over the batch.  In
    column c each matrix takes its first row with a nonzero entry as
    pivot, scales it to 1 and clears column c in every row.  That zeroes the pivot row itself, so used rows drop out, every
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


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p with np.matmul semantics: 1-D operands, 2-D operands
    and stacks broadcast over the leading axes.

    Exact for any machine-word prime: numpy's int64 product is used while
    k (p-1)^2 < 2^63 - 1 for the contracted length k, and one object-dtype
    product in Python ints beyond that.
    """
    if a.shape[-1] * (p - 1) * (p - 1) < 2**63 - 1:
        return np.matmul(a, b) % p
    return np.asarray(np.matmul(a.astype(object), b.astype(object)) % p, dtype=np.int64)


def count_nonzero_dots(normals: np.ndarray, z: np.ndarray, p: int) -> int:
    """Number of rows of `normals` whose dot product with z is nonzero mod p."""
    dots = matmul_mod(normals, z, p)
    return int(np.count_nonzero(dots))


def best_z_exhaustive(normals: np.ndarray, p: int, n: int) -> tuple[np.ndarray, int]:
    """Scan all p**n vectors z, return the first one maximizing the number
    of rows of `normals` with nonzero dot product mod p.

    Enumeration order is lexicographic in the coordinates (last coordinate
    fastest), so the first maximizer is the lex-first one.
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
        counts = np.count_nonzero(matmul_mod(normals, cols, p), axis=0)
        j = int(np.argmax(counts))
        if int(counts[j]) > best_count:
            best_count = int(counts[j])
            best_z = cols[:, j].copy()
    return best_z, best_count


# Read by the benchmark under perfbench/: USING_NUMBA for its environment
# fingerprint, the *_np names for its untraced kernel cases.  There is one
# (numpy) implementation of each kernel; these are its old names.
USING_NUMBA = False
rref_mod_np = rref_mod
matmul_mod_np = matmul_mod
count_nonzero_dots_np = count_nonzero_dots
best_z_exhaustive_np = best_z_exhaustive
