"""Acceptance suite: one test per criterion, each printing a PASS line.

Timings are measured on the numpy kernels, which need no warm-up;
exact comparisons use Fractions and big-integer power tests throughout.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import brute_entropy, brute_max_matching

from rep2ldc.bounds import (
    avg_fixed_space,
    check_rank_separation,
    entropy_audit,
    gamma,
    lambda_bound,
    match_entropy_check,
)
from rep2ldc.cli import main
from rep2ldc.construct import (
    beta,
    build_special_2ldc,
    lambda_variant,
    spanning_tuple_identity,
)
from rep2ldc.fields import GF
from rep2ldc.fixtures import (
    dihedral_rep,
    signed_shift_group,
    symmetric_standard_rep,
)
from rep2ldc.groups import burnside_irreducible, close_group
from rep2ldc.ldc import hadamard, max_special_matching, verify
from rep2ldc.linalg import Matrix, rank

F2, F3, F11 = GF(2), GF(3), GF(11)


@pytest.fixture(scope="module")
def flagship():
    group = signed_shift_group(4, 3)
    cert = build_special_2ldc(group, group.generators[0], seed=0)
    return group, cert


def test_criterion_01_tightness_example():
    t0 = time.perf_counter()
    group = signed_shift_group(4, 3)
    irreducible = burnside_irreducible(group)
    refl = group.generators[0]
    witness = rank(group.matrix(refl) - Matrix.identity(F3, 4))
    elapsed = time.perf_counter() - t0
    assert len(group) == 64
    assert irreducible
    assert witness == 1
    assert elapsed < 1.0
    print(f"PASS criterion 1: signed shift group has 64 elements, is irreducible, "
          f"reflection witness rank 1 ({elapsed:.3f}s)")


def test_criterion_02_special_2ldc_pipeline():
    group = signed_shift_group(4, 3)
    refl = group.generators[0]
    t0 = time.perf_counter()
    cert = build_special_2ldc(group, refl, seed=0)
    assert cert.code.m == 64
    assert cert.t == 4
    assert cert.achieved_delta >= Fraction(1, 3)  # theta*gamma/2 = (2/3)*1/2
    assert verify(cert.code).passed
    checked = 0
    for j in range(cert.t):
        for s in range(64):
            lhs = spanning_tuple_identity(cert, j, s)
            expected = np.zeros(cert.t, dtype=np.int64)
            expected[j] = beta(cert, j, s)
            assert np.array_equal(lhs % 3, expected % 3)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 4 * 64
    assert elapsed < 5.0
    print(f"PASS criterion 2: m=64 t=4 delta={cert.achieved_delta} >= 1/3, "
          f"all {checked} tuple identities hold ({elapsed:.3f}s)")


def test_criterion_03_rank_separation_consistency(flagship):
    group, cert = flagship
    audit = entropy_audit(cert.code)
    # log2(64) = 6 >= 2*delta*t via exact big-integer comparison
    assert audit.log2m_ge_2dt
    two_dt = 2 * audit.delta * audit.t
    assert 64**two_dt.denominator >= 2**two_dt.numerator
    reports = check_rank_separation(group)
    assert len(reports) == 63
    violations = [r for r in reports if not r.satisfied]
    assert violations == []
    refl_report = next(r for r in reports if r.h == group.generators[0])
    assert refl_report.bound.numerator == Fraction(8, 3)
    assert abs(refl_report.bound.value - 4 / 9) < 1e-12
    print(f"PASS criterion 3: log2(64)=6 >= 2*delta*t exactly, 63/63 elements "
          f"satisfy the rank bound (reflection bound 4/9)")


def test_criterion_04_hadamard_tightness():
    t0 = time.perf_counter()
    for n in range(1, 7):
        inst = hadamard(n, F2)
        report = verify(inst)
        assert report.passed
        assert report.achieved_delta == Fraction(1, 2)
        audit = entropy_audit(inst)
        assert audit.passed
        assert audit.code_size_relation == "eq"  # m = 2^{2*delta*n} = 2^n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 4: hadamard(1..6, GF(2)) verifies at delta=1/2 with "
          f"m = 2^(2*delta*n) exactly ({elapsed:.3f}s)")


def test_criterion_05_odd_order_matching_count():
    c6 = close_group([Matrix(GF(7), [[3]])])
    assert len(c6) == 6
    h = c6.position_of(Matrix(GF(7), [[2]]))
    assert c6.element_order(h) == 3
    cert = build_special_2ldc(c6, h, seed=0)
    expected = Fraction(6) * (Fraction(1, 2) - Fraction(1, 6))
    assert cert.prefilter_size == expected == 2
    print("PASS criterion 5: order-3 element in the size-6 cyclic fixture gives "
          "pre-filter matching size 6*(1/2 - 1/6) = 2 per coordinate")


def test_criterion_06_lambda_variant():
    group = dihedral_rep(5, 11)
    rot = group.generators[0]
    assert group.element_order(rot) == 5
    lam = next(
        c for c in range(1, 11)
        if rank(group.matrix(rot) - Matrix.identity(F11, 2).scale(c)) == 1
    )
    cert = lambda_variant(group, rot, lam, seed=0)
    assert cert.code.m == 2 * len(group) == 20
    assert verify(cert.code).passed
    floor = Fraction(10, 11) * gamma(5) / 4
    assert cert.achieved_delta >= floor
    bound = lambda_bound(2, 10, Fraction(10, 11), gamma(5))
    actual = rank(group.matrix(rot) - Matrix.identity(F11, 2).scale(lam))
    assert bound.satisfied_by(actual)
    print(f"PASS criterion 6: lambda={lam} variant gives a verified special "
          f"2-LDC of length 20 with delta={cert.achieved_delta} >= {floor}; "
          f"rank {actual} meets the scalar-shift bound {bound.value:.4f}")


def test_criterion_07_match_entropy_oracle():
    rng = np.random.default_rng(2024)
    failures = 0
    trials = 1000
    for _ in range(trials):
        t = int(rng.integers(2, 13))
        s = int(rng.integers(0, t // 2 + 1))
        perm = rng.permutation(t)
        pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(s)]
        f = [int(x) for x in rng.integers(0, 6, size=t)]
        for j1, j2 in pairs:
            while f[j1] == f[j2]:
                f[j2] = int(rng.integers(0, 7))
        res = match_entropy_check(t, pairs, f)
        counts = {}
        for v in f:
            counts[v] = counts.get(v, 0) + 1
        oracle = brute_entropy(counts.values())
        if abs(res.entropy_value - oracle) > 1e-12 or not res.passed:
            failures += 1
    assert failures == 0
    print(f"PASS criterion 7: match entropy check agrees with brute force and "
          f"meets 2s/t on {trials}/{trials} random instances")


def test_criterion_08_z_selection_guarantee(flagship):
    group, cert = flagship
    total = cert.t * cert.prefilter_size
    survivors = sum(cert.beta_nonzero_count)
    # certified fraction: survivors/total >= 1 - 1/3, exactly
    assert survivors * 3 >= 2 * total
    # oracle: independent exhaustive scan over all 3^4 = 81 vectors
    best = -1
    for z in itertools.product(range(3), repeat=4):
        count = sum(
            1
            for j in range(cert.t)
            for s in cert.kept_s
            if beta(cert, j, s, z=list(z)) != 0
        )
        best = max(best, count)
    assert survivors == best

    rational_group = signed_shift_group(4, 0)
    rcert = build_special_2ldc(rational_group, rational_group.generators[0], seed=0)
    assert sum(rcert.beta_nonzero_count) == rcert.t * rcert.prefilter_size
    print(f"PASS criterion 8: chosen z keeps {survivors}/{total} tuples "
          f"(>= 2/3, equal to the exhaustive optimum); rational field keeps all")


def test_criterion_09_max_matching_exactness():
    rng = np.random.default_rng(4096)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        t = int(rng.integers(1, 4))
        p = int(rng.choice([2, 3]))
        vectors = Matrix(GF(p), rng.integers(0, p, size=(m, t)).tolist())
        for i in range(t):
            def edge(j1, j2, _i=i):
                d = (vectors.row(j1) - vectors.row(j2)) % p
                return d[_i] != 0 and np.count_nonzero(d) == 1

            assert max_special_matching(vectors, i).size == brute_max_matching(edge, m)
    print("PASS criterion 9: max special matching equals exhaustive maximum "
          "matching on 100 random instances (m <= 10)")


def test_criterion_10_average_fixed_space():
    groups = []
    for n in range(2, 6):
        groups.append((f"signed_shift({n},3)", signed_shift_group(n, 3)))
    for k, p in [(3, 7), (4, 5), (5, 11), (6, 7), (7, 29)]:
        groups.append((f"dihedral({k},{p})", dihedral_rep(k, p)))
    for k, p in [(3, 2), (3, 5), (4, 3), (4, 5)]:
        groups.append((f"symmetric({k},{p})", symmetric_standard_rep(k, p)))
    for name, group in groups:
        report = avg_fixed_space(group)
        assert report.irreducible, name
        assert report.average <= Fraction(group.dim, 2), name
    print(f"PASS criterion 10: average fixed-space dimension <= n/2 on all "
          f"{len(groups)} irreducible fixtures (exact rationals)")


def test_criterion_11_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc = main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                   "--h", "1", "--seed", "0", "--output", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    print("PASS criterion 11: identical seeds give byte-identical certificates")
