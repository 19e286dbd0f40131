"""The numpy mod-p kernels against exact Python-int arithmetic."""

import itertools

import numpy as np
import pytest

from rep2ldc import _kernels as K


def _exact_matmul(a, b, p):
    """(a @ b) mod p in Python ints, with np.matmul's broadcasting."""
    return np.matmul(a.astype(object), b.astype(object)) % p


def test_matmul_overflow_path_is_exact():
    # k*(p-1)^2 overflows int64, forcing the object fallback; results
    # must match big-int arithmetic
    p = 2**31 - 1
    rng = np.random.default_rng(9)
    a = rng.integers(0, p, size=(3, 10), dtype=np.int64)
    b = rng.integers(0, p, size=(10, 3), dtype=np.int64)
    got = K.matmul_mod(a, b, p)
    want = [
        [sum(int(a[i, l]) * int(b[l, j]) for l in range(10)) % p for j in range(3)]
        for i in range(3)
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("p", [10007, 2**31 - 1])  # int64 path, object fallback
@pytest.mark.parametrize("shapes", [
    ((5,), (4, 5, 3)),      # 1-D @ 3-D
    ((4, 3, 5), (5,)),      # 3-D @ 1-D
    ((4, 3, 5), (5, 2)),    # 3-D @ 2-D
    ((3, 5), (4, 5, 2)),    # 2-D @ 3-D
])
def test_matmul_stacks_match_python_ints(p, shapes):
    rng = np.random.default_rng(13)
    a = rng.integers(0, p, size=shapes[0], dtype=np.int64)
    b = rng.integers(0, p, size=shapes[1], dtype=np.int64)
    a.flat[0] = b.flat[0] = p - 1
    want = _exact_matmul(a, b, p)
    got = K.matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


def test_rref_postconditions():
    rng = np.random.default_rng(11)
    for p in (2, 5):
        a = rng.integers(0, p, size=(6, 4), dtype=np.int64)
        r, rank, piv = K.rref_mod(a, p)
        assert 0 <= rank <= 4
        r2, rank2, piv2 = K.rref_mod(r, p)
        assert rank2 == rank and np.array_equal(r2, r)
        for row, col in enumerate(piv):
            assert r[row, col] == 1
            assert np.count_nonzero(r[:, col]) == 1


@pytest.mark.parametrize("p", [2, 3, 10007, 2**31 - 1])
def test_rank_mod_batched_matches_rref(p):
    # low-rank products as well as full random matrices, square and not
    rng = np.random.default_rng(12)
    for m, n in [(4, 4), (6, 3), (3, 7), (1, 5), (8, 8)]:
        full = rng.integers(0, p, size=(20, m, n), dtype=np.int64)
        k = int(rng.integers(0, min(m, n) + 1))
        low = np.stack([
            K.matmul_mod(rng.integers(0, p, size=(m, k), dtype=np.int64),
                         rng.integers(0, p, size=(k, n), dtype=np.int64), p)
            for _ in range(20)
        ])
        batch = np.concatenate([full, low, np.zeros((1, m, n), dtype=np.int64)])
        want = [K.rref_mod(a, p)[1] for a in batch]
        got = K.rank_mod_batched(batch, p)
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_rank_mod_batched_leaves_input_alone():
    a = np.array([[[1, 2], [3, 4]], [[2, 4], [1, 2]]], dtype=np.int64)
    before = a.copy()
    assert K.rank_mod_batched(a, 5).tolist() == [2, 1]
    assert np.array_equal(a, before)


def test_zscan_finds_lex_first_maximizer():
    # brute force over itertools.product order (last coordinate fastest)
    rng = np.random.default_rng(10)
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        normals = rng.integers(0, p, size=(13, n), dtype=np.int64)
        normals[np.all(normals == 0, axis=1), 0] = 1
        counts = {
            z: sum(sum(int(a) * b for a, b in zip(row, z)) % p != 0 for row in normals)
            for z in itertools.product(range(p), repeat=n)
        }
        best = max(counts.values())
        first = next(z for z, c in counts.items() if c == best)
        z, count = K.best_z_exhaustive(normals, p, n)
        assert count == best
        assert tuple(int(x) for x in z) == first
        assert K.count_nonzero_dots(normals, z, p) == best
