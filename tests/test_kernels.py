"""Jit and numpy kernel implementations must agree bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from rep2ldc import _kernels as K

NEEDS_JIT = pytest.mark.skipif(not K.NUMBA_IMPORTABLE, reason="numba unavailable")


@NEEDS_JIT
@pytest.mark.parametrize("p", [2, 3, 5, 10007])
def test_rref_agreement(p):
    rng = np.random.default_rng(7)
    for _ in range(30):
        shape = tuple(rng.integers(1, 9, size=2))
        a = rng.integers(0, p, size=shape, dtype=np.int64)
        r1, k1, piv1 = K.rref_mod_np(a, p)
        r2, k2, piv2 = K.rref_mod_jit(a, p)
        assert k1 == k2
        assert np.array_equal(r1, r2)
        assert np.array_equal(piv1, piv2)


@NEEDS_JIT
@pytest.mark.parametrize("p", [2, 3, 10007, 2**31 - 1])
def test_matmul_agreement(p):
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, k, n = rng.integers(1, 8, size=3)
        a = rng.integers(0, p, size=(m, k), dtype=np.int64)
        b = rng.integers(0, p, size=(k, n), dtype=np.int64)
        assert np.array_equal(K.matmul_mod_np(a, b, p), K.matmul_mod_jit(a, b, p))


def test_matmul_overflow_path_is_exact():
    # k*(p-1)^2 overflows int64, forcing the object fallback in the
    # numpy implementation; results must match big-int arithmetic
    p = 2**31 - 1
    rng = np.random.default_rng(9)
    a = rng.integers(0, p, size=(3, 10), dtype=np.int64)
    b = rng.integers(0, p, size=(10, 3), dtype=np.int64)
    got = K.matmul_mod_np(a, b, p)
    want = [
        [sum(int(a[i, l]) * int(b[l, j]) for l in range(10)) % p for j in range(3)]
        for i in range(3)
    ]
    assert got.tolist() == want


@NEEDS_JIT
def test_zscan_agreement():
    rng = np.random.default_rng(10)
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        normals = rng.integers(0, p, size=(13, n), dtype=np.int64)
        normals[np.all(normals == 0, axis=1), 0] = 1
        z1, c1 = K.best_z_exhaustive_np(normals, p, n)
        z2, c2 = K.best_z_exhaustive_jit(normals, p, n)
        assert c1 == c2
        assert np.array_equal(z1, z2)
        for z in (z1, np.zeros(n, dtype=np.int64)):
            assert K.count_nonzero_dots_np(normals, z, p) == K.count_nonzero_dots_jit(
                normals, z, p
            )


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


def test_env_flag_disables_numba():
    env = dict(os.environ, REP2LDC_NUMBA="0")
    out = subprocess.run(
        [sys.executable, "-c",
         "from rep2ldc import _kernels as K; print(K.USING_NUMBA, K.rref_mod is K.rref_mod_np)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("p", [2, 3, 10007, 2**31 - 1])
def test_rank_mod_batched_matches_rref(p):
    # low-rank products as well as full random matrices, square and not
    rng = np.random.default_rng(12)
    for m, n in [(4, 4), (6, 3), (3, 7), (1, 5), (8, 8)]:
        full = rng.integers(0, p, size=(20, m, n), dtype=np.int64)
        k = int(rng.integers(0, min(m, n) + 1))
        low = np.stack([
            K.matmul_mod_np(rng.integers(0, p, size=(m, k), dtype=np.int64),
                            rng.integers(0, p, size=(k, n), dtype=np.int64), p)
            for _ in range(20)
        ])
        batch = np.concatenate([full, low, np.zeros((1, m, n), dtype=np.int64)])
        want = [K.rref_mod_np(a, p)[1] for a in batch]
        got = K.rank_mod_batched(batch, p)
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_rank_mod_batched_leaves_input_alone():
    a = np.array([[[1, 2], [3, 4]], [[2, 4], [1, 2]]], dtype=np.int64)
    before = a.copy()
    assert K.rank_mod_batched(a, 5).tolist() == [2, 1]
    assert np.array_equal(a, before)
