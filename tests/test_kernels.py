"""The numpy mod-p kernels against exact Python-int arithmetic."""

import itertools

import numpy as np
import pytest
from helpers import reference_best_z

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


def _zscan_cases():
    """(p, n, normals): random rows, then rows that collapse to few
    projective classes (scalar multiples, exact duplicates, a zero row),
    then every row on one line, where most z tie."""
    rng = np.random.default_rng(10)
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        normals = rng.integers(0, p, size=(13, n), dtype=np.int64)
        normals[np.all(normals == 0, axis=1), 0] = 1
        yield p, n, normals
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 3)]:
        lines = rng.integers(0, p, size=(3, n), dtype=np.int64)
        lines[np.all(lines == 0, axis=1), 0] = 1
        scalars = rng.integers(1, p, size=(30, 1), dtype=np.int64)
        rows = lines[rng.integers(0, 3, size=30)] * scalars % p
        rows = np.concatenate([rows, rows[:6], np.zeros((1, n), dtype=np.int64)])
        yield p, n, rows[rng.permutation(len(rows))]
        yield p, n, lines[:1] * rng.integers(1, p, size=(12, 1), dtype=np.int64) % p


def test_zscan_finds_lex_first_maximizer():
    # brute force over the raw rows in itertools.product order (last
    # coordinate fastest)
    for p, n, normals in _zscan_cases():
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


@pytest.mark.parametrize("p, n", [(7, 3), (31, 4), (2**31 - 1, 3)])  # int64 keys, object keys
def test_projective_classes_are_the_lines_of_the_rows(p, n):
    rng = np.random.default_rng(p)
    base = rng.integers(0, p, size=(6, n), dtype=np.int64)
    base[:, 0] = 0
    base[:, 1] = rng.integers(1, p, size=6)
    rows = base[rng.integers(0, 6, size=50)] * rng.integers(1, p, size=(50, 1)) % p
    rows = np.concatenate([rows, rng.integers(0, p, size=(20, n), dtype=np.int64)])
    rows[np.all(rows == 0, axis=1), -1] = 1
    classes, weights = K.projective_classes(rows, p)
    assert weights.dtype == np.int64 and int(weights.sum()) == len(rows)
    lead = classes[np.arange(len(classes)), np.argmax(classes != 0, axis=1)]
    assert lead.tolist() == [1] * len(classes)
    assert len({tuple(c) for c in classes.tolist()}) == len(classes)
    # the class with leading 1 at i holds the rows r with r[i] != 0 and r = r[i] c
    for c, w in zip(classes.tolist(), weights.tolist()):
        i = c.index(1)
        on = [r for r in rows.tolist()
              if r[i] and all((r[i] * x - y) % p == 0 for x, y in zip(c, r))]
        assert len(on) == w


def test_projective_classes_zero_row_counts_nowhere():
    rows = np.array([[0, 0], [2, 4], [1, 2], [0, 0]], dtype=np.int64)
    classes, weights = K.projective_classes(rows, 5)
    assert classes.tolist() == [[0, 0], [1, 2]] and weights.tolist() == [2, 2]
    z = np.array([[1], [1]], dtype=np.int64)
    counts = weights @ (K.matmul_mod(classes, z, 5) != 0)
    assert counts.tolist() == [K.count_nonzero_dots(rows, z[:, 0], 5)]


def _unclearable(p, n):
    """Every line of the plane of e_0 and e_1: each z is orthogonal to one."""
    rows = np.zeros((p + 1, n), dtype=np.int64)
    rows[0, 1] = 1
    rows[1:, 0], rows[1:, 1] = 1, np.arange(p)
    return rows


def _cleared_only_by_minus_last(p, n):
    """e_j for every j and e_{n-1} - c e_j for j < n - 1 and c = 1..p-2: a
    clearing z has z_j = -z_{n-1} != 0, so the lex-first is (1, ..., 1, p-1)."""
    rows = [np.eye(n, dtype=np.int64)]
    for c in range(1, p - 1):
        block = np.zeros((n - 1, n), dtype=np.int64)
        block[:, -1] = 1
        block[np.arange(n - 1), np.arange(n - 1)] = -c % p
        rows.append(block)
    return np.concatenate(rows)


def _zscan_oracle_cases():
    rng = np.random.default_rng(34)
    for p, n in [(3, 5), (3, 8), (5, 4), (5, 6), (7, 3), (7, 5)]:
        for k in (1, 4, 12, 40):
            yield p, n, rng.integers(0, p, size=(k, n), dtype=np.int64)
        yield p, n, _unclearable(p, n)
        yield p, n, _cleared_only_by_minus_last(p, n)
    # GF(3)^8 scans two chunks of 4096; the only clearing z are +-(1, 2, ..., 2),
    # the lex-first at index 3^7 + 3^7 - 1 = 4373, in the last chunk
    rows = np.concatenate([np.eye(8, dtype=np.int64), np.eye(8, dtype=np.int64)[1:]])
    rows[8:, 0] = 1
    rows[8:, 1:] *= 2  # e_0 - e_j: z_j != z_0
    yield 3, 8, rows


ZSCAN_CASES = list(_zscan_oracle_cases())


@pytest.mark.parametrize("p, n, normals", ZSCAN_CASES,
                         ids=[f"GF({p})^{n}-{len(r)}-rows-{i}" for i, (p, n, r) in
                              enumerate(ZSCAN_CASES)])
def test_zscan_matches_the_full_scan(p, n, normals):
    """The scan stops after the chunk whose best count clears every row,
    with the z and count of a scan of all p**n vectors."""
    z, count = K.best_z_exhaustive(normals, p, n)
    want_z, want_count = reference_best_z(normals, p, n)
    assert count == want_count
    assert z.tolist() == want_z.tolist()


def _chunks_scanned(monkeypatch, normals, p, n) -> int:
    calls = []
    matmul = K.matmul_mod
    monkeypatch.setattr(K, "matmul_mod", lambda *args: calls.append(1) or matmul(*args))
    K.best_z_exhaustive(normals, p, n)
    return len(calls)


def test_zscan_stops_once_every_row_is_cleared(monkeypatch):
    """GF(3)^8 is two chunks.  A z clearing every row in the first stops the
    scan there, a clearing z in the last chunk or none at all scans both."""
    first = _cleared_only_by_minus_last(3, 8)  # (1, ..., 1, 2), at index 3281
    assert reference_best_z(first, 3, 8)[1] == len(first)
    assert _chunks_scanned(monkeypatch, first, 3, 8) == 1
    last = ZSCAN_CASES[-1][2]
    assert reference_best_z(last, 3, 8)[0].tolist() == [1] + [2] * 7
    assert _chunks_scanned(monkeypatch, last, 3, 8) == 2
    assert _chunks_scanned(monkeypatch, _unclearable(3, 8), 3, 8) == 2
