import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from rep2ldc.bounds import entropy_audit, gamma
from rep2ldc.certcheck import _beta_mask, verify_cert
from rep2ldc.construct import (
    beta,
    beta_table,
    build_q_ldc,
    build_special_2ldc,
    check_spanning_identities,
    choose_z,
    combine,
    dual_vectors,
    lambda_variant,
    minimal_spanning_family,
    orbit_projection_check,
    spanning_tuple_identity,
)
from rep2ldc.errors import (
    IdentityElement,
    InternalInconsistency,
    OrbitDoesNotSpan,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from rep2ldc.fields import GF, QQ
from rep2ldc.groups import close_group
from rep2ldc.ldc import verify
from rep2ldc.linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    rank,
    rank_factorize,
    subspace_sum,
)
from rep2ldc.serialize import canonical_json, cert_to_json

F3, F7, F11, F31 = GF(3), GF(7), GF(11), GF(31)


def shift_matrix(field, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    return Matrix(field, rows)


@pytest.fixture(scope="module")
def c6_gf7():
    return close_group([Matrix(F7, [[3]])])


@pytest.fixture(scope="module")
def shift_only_gf3():
    return close_group([shift_matrix(F3, 4)])


class TestCombine:
    def test_difference_to_identity(self, signed_shift_4_3):
        g = signed_shift_4_3
        refl = g.generators[0]
        d = combine(g, [refl, 0], [1, -1])
        assert d == g.matrix(refl) - Matrix.identity(F3, 4)
        assert d == Matrix.diag(F3, [1, 0, 0, 0])  # -2 = 1 mod 3

    def test_zero_alphas(self, signed_shift_4_3):
        d = combine(signed_shift_4_3, [0, 1], [0, 0])
        assert d.is_zero()

    def test_zero_matrix_rejected_by_pipeline(self, signed_shift_4_3):
        with pytest.raises(ZeroMatrix):
            build_q_ldc(signed_shift_4_3, [0, 1], [0, 0])


class TestMinimalSpanningFamily:
    def test_full_subspace_needs_only_identity(self, signed_shift_4_3):
        fam = minimal_spanning_family(signed_shift_4_3, Subspace.full(F3, 4))
        assert fam == [0]

    def test_signed_shift_coordinate_lines(self, signed_shift_4_3):
        g = signed_shift_4_3
        u = Subspace.from_rows(F3, 4, [[1, 0, 0, 0]])
        fam = minimal_spanning_family(g, u)
        assert len(fam) == 4
        images = [apply_to_subspace(g.matrix(pos), u) for pos in fam]
        assert subspace_sum(images).is_full()
        # minimality oracle: dropping any translate loses the span
        for k in range(4):
            rest = [images[i] for i in range(4) if i != k]
            assert not subspace_sum(rest).is_full()
        # each translate of a coordinate line is a coordinate line
        for img in images:
            assert np.count_nonzero(img.basis.a) == 1

    def test_reducible_group_coordinate_line_still_spans(self, shift_only_gf3):
        u = Subspace.from_rows(F3, 4, [[1, 0, 0, 0]])
        fam = minimal_spanning_family(shift_only_gf3, u)
        assert len(fam) == 4

    def test_reducible_group_invariant_line_fails(self, shift_only_gf3):
        u = Subspace.from_rows(F3, 4, [[1, 1, 1, 1]])
        with pytest.raises(OrbitDoesNotSpan):
            minimal_spanning_family(shift_only_gf3, u)


class TestDualVectors:
    def test_full_space_t1(self, signed_shift_4_3):
        g = signed_shift_4_3
        y = Matrix.identity(F3, 4)
        u = Subspace.full(F3, 4)
        w, hats = dual_vectors(g, u, [0], y)
        assert w.cols == 1
        assert np.any(hats[0] != 0)

    def test_signed_shift_orthogonality_iff(self, signed_shift_4_3):
        g = signed_shift_4_3
        refl = g.generators[0]
        d = combine(g, [refl, 0], [1, -1])
        y, x = rank_factorize(d)
        u = Subspace.from_rows(F3, 4, y.T)
        fam = minimal_spanning_family(g, u)
        w, hats = dual_vectors(g, u, fam, y)
        for i in range(4):
            for j, pos in enumerate(fam):
                prod = (g.matrix(pos) @ y).T.matvec(w.col(i))
                if i == j:
                    assert np.any(prod != 0)
                else:
                    assert not np.any(prod != 0)

    def test_dihedral_rank_one_identity(self, dihedral_5_11):
        g = dihedral_5_11
        swap = g.generators[1]
        assert g.element_order(swap) == 2
        d = combine(g, [swap, 0], [1, -1])
        y, x = rank_factorize(d)
        # column span of swap - I is the line through (1, -1)
        u = Subspace.from_rows(F11, 2, y.T)
        assert u == Subspace.from_rows(F11, 2, [[1, -1]])
        fam = minimal_spanning_family(g, u)
        assert len(fam) == 2
        w, hats = dual_vectors(g, u, fam, y)
        t = len(fam)
        for j, pos in enumerate(fam):
            prod = w.T @ (g.matrix(pos) @ y)
            expected = Matrix.zeros(F11, t, 1).a.copy()
            expected[j, :] = hats[j]
            assert np.array_equal(prod.a, expected)


class TestBeta:
    def test_zero_z(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        for j in range(cert.t):
            for s in (0, 5, 17):
                assert beta(cert, j, s, z=[0, 0, 0, 0]) == 0

    def test_identity_s_is_plain_inner_product(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        for j in range(cert.t):
            c = cert.X.matvec(cert.family.hat_w[j])
            expected = int(c.dot(cert.z)) % 3
            assert beta(cert, j, 0) == expected

    def test_exhaustive_tabulation_fraction(self, signed_shift_4_3):
        # for every (j, s) the bad z's form one hyperplane: exactly 27 of 81
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        for j in range(cert.t):
            for s in cert.kept_s[:4]:
                nonzero = sum(
                    1
                    for z in itertools.product(range(3), repeat=4)
                    if beta(cert, j, s, z=list(z)) != 0
                )
                assert nonzero == 54  # (1 - 1/3) * 81


class TestChooseZ:
    def test_rational_keeps_everything(self):
        normals = QQ.array([[1, 0], [1, 1], [0, 1], [2, 1]])
        z, mask = choose_z(QQ, normals)
        assert mask.all()
        assert all(v != 0 for v in normals.dot(z))

    def test_gf3_twelve_candidates_keep_at_least_eight(self):
        rng = np.random.default_rng(2)
        normals = rng.integers(0, 3, size=(12, 4), dtype=np.int64)
        normals[np.all(normals == 0, axis=1), 0] = 1
        z, mask = choose_z(F3, normals)
        assert int(mask.sum()) >= 8  # (1 - 1/3) * 12
        # oracle: independent exhaustive scan over all 81 vectors
        best = max(
            sum(1 for row in normals if int(row @ np.array(zz)) % 3 != 0)
            for zz in itertools.product(range(3), repeat=4)
        )
        assert int(mask.sum()) == best

    def test_one_dimensional_ambient(self):
        normals = np.array([[1]], dtype=np.int64)
        z, mask = choose_z(GF(2), normals)
        assert z.tolist() == [1] and mask.all()

    def test_random_path_meets_bound_and_is_deterministic(self):
        # 31^4 = 923521 > 10^5 forces the sampled path
        rng = np.random.default_rng(4)
        normals = rng.integers(0, 31, size=(40, 4), dtype=np.int64)
        normals[np.all(normals == 0, axis=1), 0] = 1
        z1, mask1 = choose_z(F31, normals, seed=9)
        z2, mask2 = choose_z(F31, normals, seed=9)
        assert np.array_equal(z1, z2) and np.array_equal(mask1, mask2)
        assert int(mask1.sum()) * 31 >= 30 * 40


class TestSpecial2Pipeline:
    def test_signed_shift_parameters(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        assert cert.code.m == 64 and cert.t == 4 and cert.R == 1
        assert cert.prefilter_size == 32  # perfect matching on 32 2-cycles
        assert cert.achieved_delta >= Fraction(1, 3)  # theta*gamma/2 = (2/3)/2... * 1
        assert verify(cert.code).passed
        assert cert.code.claimed_delta == Fraction(1, 3)

    def test_rational_field_no_filtering_loss(self, signed_shift_4_q):
        g = signed_shift_4_q
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        assert cert.achieved_delta == Fraction(1, 2)
        assert cert.beta_nonzero_count == (32, 32, 32, 32)

    def test_odd_order_cycle_matching(self, c6_gf7):
        h = c6_gf7.position_of(Matrix(F7, [[2]]))
        cert = build_special_2ldc(c6_gf7, h, seed=0)
        assert cert.prefilter_size == 2  # (ord-1)/2 = 1 edge in each of 2 cycles
        assert Fraction(cert.prefilter_size, 6) == Fraction(1, 2) - Fraction(1, 6)

    def test_identity_rejected(self, signed_shift_4_3):
        with pytest.raises(IdentityElement):
            build_special_2ldc(signed_shift_4_3, 0)

    def test_survivor_fraction(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        total = cert.t * cert.prefilter_size
        survivors = sum(cert.beta_nonzero_count)
        assert survivors * 3 >= 2 * total

    def test_determinism(self, signed_shift_4_3):
        g = signed_shift_4_3
        a = build_special_2ldc(g, g.generators[0], seed=0)
        b = build_special_2ldc(g, g.generators[0], seed=0)
        assert canonical_json(cert_to_json(a)) == canonical_json(cert_to_json(b))


class TestTupleIdentities:
    def test_all_identities_signed_shift(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        assert check_spanning_identities(cert) == 4 * 64

    def test_zero_beta_gives_zero_vector(self):
        # S3 standard rep over GF(2): only three nonzero directions exist,
        # so no z avoids every hyperplane and some betas must vanish
        from rep2ldc.fixtures import symmetric_standard_rep

        g = symmetric_standard_rep(3, 2)
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        zeros = [
            (j, s)
            for j in range(cert.t)
            for s in range(len(g))
            if beta(cert, j, s) == 0
        ]
        assert zeros
        for j, s in zeros:
            assert not np.any(spanning_tuple_identity(cert, j, s) != 0)

    def test_difference_form(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        h = cert.hs[0]
        for j in range(cert.t):
            gj_perm = g.left_perm(cert.family.g_refs[j])
            h_perm = g.left_perm(h)
            for s in range(0, 64, 7):
                lhs = (
                    cert.code.vectors.row(int(gj_perm[h_perm[s]]))
                    - cert.code.vectors.row(int(gj_perm[s]))
                ) % 3
                expected = np.zeros(cert.t, dtype=np.int64)
                expected[j] = beta(cert, j, s)
                assert np.array_equal(lhs, expected)


def _reference_identity_failure(cert):
    """First (j, s) whose tuple identity fails, by the scalar per-element
    reference in j-major order, or None."""
    for j in range(cert.t):
        for s in range(len(cert.group)):
            expected = Matrix.zeros(cert.group.field, 1, cert.t).a.copy().ravel()
            expected[j] = beta(cert, j, s)
            lhs = spanning_tuple_identity(cert, j, s)
            if not all(a == e for a, e in zip(lhs, expected)):
                return j, s
    return None


def _every_kind(group):
    """special2, general (q = 3) and lambda certificates on one group."""
    h, h2 = group.generators[0], group.generators[1]
    return [
        build_special_2ldc(group, h, seed=0),
        build_q_ldc(group, [h, h2, 0], [1, 1, 1], seed=0),
        lambda_variant(group, h, 3, seed=0),
    ]


class TestArrayChecksAgainstScalarReference:
    """The batched identity check and beta mask agree with beta() and
    spanning_tuple_identity() element by element."""

    @pytest.fixture(scope="class")
    def certs(self, signed_shift_4_3, dihedral_5_11, signed_shift_4_q):
        g = signed_shift_4_q
        return (
            [build_special_2ldc(signed_shift_4_3, signed_shift_4_3.generators[0], seed=0)]
            + _every_kind(dihedral_5_11)
            + [build_special_2ldc(g, g.generators[0], seed=0)]
        )

    def test_beta_table_matches_beta(self, certs):
        for cert in certs:
            if not cert.group.field.char:
                continue
            table = beta_table(cert)
            assert table.shape == (len(cert.group), cert.t)
            for j in range(cert.t):
                for s in range(len(cert.group)):
                    assert table[s, j] == beta(cert, j, s)

    def test_beta_mask_matches_beta(self, certs):
        for cert in certs:
            expected = [[beta(cert, j, s) != 0 for s in cert.kept_s] for j in range(cert.t)]
            assert _beta_mask(cert) == expected

    def test_identities_hold_elementwise(self, certs):
        for cert in certs:
            assert _reference_identity_failure(cert) is None
            assert check_spanning_identities(cert) == cert.t * len(cert.group)

    def test_large_prime_matches_reference(self):
        from rep2ldc.fixtures import signed_shift_group

        g = signed_shift_group(4, 2147483647)
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        table = beta_table(cert)
        for j in range(cert.t):
            for s in range(0, len(g), 5):
                assert table[s, j] == beta(cert, j, s)
        assert _reference_identity_failure(cert) is None
        assert check_spanning_identities(cert) == cert.t * len(g)


class TestIdentityFailureLocation:
    def _tampered(self, cert, row, col):
        a = cert.code.vectors.a.copy()
        p = cert.group.field.char
        a[row, col] = (a[row, col] + 1) % p if p else a[row, col] + 1
        code = dataclasses.replace(cert.code, vectors=Matrix.from_array(cert.group.field, a))
        return dataclasses.replace(cert, code=code)

    def test_first_failing_pair_named(self, signed_shift_4_3):
        g = signed_shift_4_3
        bad = self._tampered(build_special_2ldc(g, g.generators[0], seed=0), 7, 1)
        with pytest.raises(InternalInconsistency) as exc:
            check_spanning_identities(bad)
        assert str(exc.value) == "tuple identity fails at (j=0, s=5)"
        assert _reference_identity_failure(bad) == (0, 5)
        assert "tuple identity failed: tuple identity fails at (j=0, s=5)" in (
            verify_cert(bad).failures
        )

    @pytest.mark.parametrize("row, col", [(0, 0), (9, 1), (3, 0)])
    def test_location_agrees_with_reference(self, dihedral_5_11, row, col):
        for cert in _every_kind(dihedral_5_11):
            bad = self._tampered(cert, row, col % cert.t)
            j, s = _reference_identity_failure(bad)
            with pytest.raises(InternalInconsistency,
                               match=rf"^tuple identity fails at \(j={j}, s={s}\)$"):
                check_spanning_identities(bad)

    def test_short_code_reported_not_raised(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        a = cert.code.vectors.a[:32]
        code = dataclasses.replace(
            cert.code, m=32, vectors=Matrix.from_array(g.field, a),
            matchings=tuple(dataclasses.replace(mi, sets=()) for mi in cert.code.matchings),
        )
        with pytest.raises(InternalInconsistency, match="code vectors have shape"):
            check_spanning_identities(dataclasses.replace(cert, code=code))


class TestGeneralPipeline:
    def test_q2_matches_special_head(self, signed_shift_4_3):
        g = signed_shift_4_3
        refl = g.generators[0]
        special = build_special_2ldc(g, refl, seed=0)
        general = build_q_ldc(g, [refl, 0], [1, -1], seed=0)
        assert general.D == special.D
        assert general.Y == special.Y and general.X == special.X
        assert general.family.g_refs == special.family.g_refs
        assert general.code.form == "general"
        assert verify(general.code).passed

    def test_dihedral_q3_rank_one_combination(self, dihedral_5_11):
        g = dihedral_5_11
        rot, swap = g.generators[0], g.generators[1]
        found = None
        for alphas in itertools.product(range(1, 11), repeat=3):
            d = combine(g, [rot, swap, 0], list(alphas))
            if not d.is_zero() and rank(d) == 1:
                found = alphas
                break
        assert found is not None
        cert = build_q_ldc(g, [rot, swap, 0], list(found), seed=0)
        assert cert.code.m == 10 and cert.t == 2
        assert cert.achieved_delta >= Fraction(10, 11) / 9
        assert verify(cert.code).passed
        check_spanning_identities(cert)

    def test_prefilter_meets_q2_bound(self, dihedral_5_11):
        g = dihedral_5_11
        cert = build_q_ldc(g, [g.generators[0], g.generators[1], 0], [1, 4, 1], seed=0)
        assert cert.prefilter_size * 9 >= 10

    def test_duplicate_hs_rejected(self, signed_shift_4_3):
        with pytest.raises(ValueError):
            build_q_ldc(signed_shift_4_3, [1, 1], [1, -1])


@pytest.mark.parametrize("bad", [64, 999, -1, -64])
@pytest.mark.parametrize("build", [
    lambda g, h: build_special_2ldc(g, h),
    lambda g, h: lambda_variant(g, h, 2),
    lambda g, h: build_q_ldc(g, [1, h], [1, 2]),
], ids=["special2", "lambda", "general"])
def test_position_outside_group_rejected(signed_shift_4_3, build, bad):
    with pytest.raises(ValueError, match="outside"):
        build(signed_shift_4_3, bad)


class TestLambdaVariant:
    def test_lambda_one_doubles_code(self, dihedral_5_11):
        g = dihedral_5_11
        swap = g.generators[1]
        special = build_special_2ldc(g, swap, seed=0)
        doubled = lambda_variant(g, swap, 1, seed=0)
        assert doubled.code.m == 2 * special.code.m
        # same pair structure: folding the scaled-block leg back recovers
        # the plain pairs
        m = len(g)
        for mj_s, mj_d in zip(special.code.matchings, doubled.code.matchings):
            folded = set()
            for x, y in mj_d.sets:
                assert (x < m) != (y < m)  # one leg per block
                folded.add(tuple(sorted((min(x, y), max(x, y) - m))))
            assert folded == set(mj_s.sets)
        assert doubled.achieved_delta == special.achieved_delta / 2

    def test_dihedral_eigenvalue_distance(self, dihedral_5_11):
        g = dihedral_5_11
        rot = g.generators[0]
        lam = next(
            c for c in range(1, 11)
            if rank(g.matrix(rot) - Matrix.identity(F11, 2).scale(c)) == 1
        )
        cert = lambda_variant(g, rot, lam, seed=0)
        assert cert.code.m == 20 and cert.t == 2
        assert verify(cert.code).passed
        assert cert.achieved_delta >= Fraction(10, 11) * gamma(5) / 4
        check_spanning_identities(cert)
        audit = entropy_audit(cert.code)
        assert audit.passed

    def test_scalar_multiple_rejected(self, c6_gf7):
        h = c6_gf7.position_of(Matrix(F7, [[2]]))
        with pytest.raises(ScalarMultipleOfIdentity):
            lambda_variant(c6_gf7, h, 2)

    def test_zero_lambda_rejected(self, dihedral_5_11):
        with pytest.raises(ValueError):
            lambda_variant(dihedral_5_11, dihedral_5_11.generators[0], 0)


class TestHandRecomputation:
    def test_code_vectors_by_plain_arithmetic(self, dihedral_5_11):
        # rebuild every a_s = W^T rho(s) z with bare Python ints
        g = dihedral_5_11
        cert = build_special_2ldc(g, g.generators[1], seed=0)
        w = cert.family.W.to_lists()
        z = [int(v) for v in cert.z]
        n, t = 2, cert.t
        for s in range(len(g)):
            rho = g.matrix(s).to_lists()
            u = [sum(rho[i][k] * z[k] for k in range(n)) % 11 for i in range(n)]
            a = [sum(w[i][j] * u[i] for i in range(n)) % 11 for j in range(t)]
            assert a == [int(x) for x in cert.code.vectors.row(s)]

    def test_pairs_differ_only_at_their_coordinate(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        rows = cert.code.vectors.to_lists()
        for j, mj in enumerate(cert.code.matchings):
            for a, b in mj.sets:
                diffs = [k for k in range(cert.t) if rows[a][k] != rows[b][k]]
                assert diffs == [j]


class TestEndToEndConsistency:
    def test_audit_never_fails_on_pipeline_output(self, dihedral_5_11):
        # the code-size bound applied to our own constructions must hold
        # for every starting element
        g = dihedral_5_11
        for h in range(1, len(g)):
            cert = build_special_2ldc(g, h, seed=0)
            audit = entropy_audit(cert.code)
            assert audit.passed, f"h={h}"
            assert audit.log2m_ge_2dt, f"h={h}"

    def test_survivor_fraction_across_fields(self):
        from rep2ldc.fixtures import signed_shift_group

        for p in (3, 5, 0):
            g = signed_shift_group(4, p)
            cert = build_special_2ldc(g, g.generators[0], seed=0)
            total = cert.t * cert.prefilter_size
            survivors = sum(cert.beta_nonzero_count)
            if p:
                assert survivors * p >= (p - 1) * total
            else:
                assert survivors == total


class TestOrbitProjection:
    def test_fresh_cert_true(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        assert orbit_projection_check(cert)

    def test_perturbed_cert_false(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        tampered_rows = cert.code.vectors.a.copy()
        tampered_rows[3, 0] = (tampered_rows[3, 0] + 1) % 3
        tampered_code = dataclasses.replace(
            cert.code, vectors=Matrix(F3, tampered_rows.tolist())
        )
        tampered = dataclasses.replace(cert, code=tampered_code)
        assert not orbit_projection_check(tampered)

    def test_lambda_cert_both_blocks(self, dihedral_5_11):
        g = dihedral_5_11
        cert = lambda_variant(g, g.generators[0], 3, seed=0)
        assert orbit_projection_check(cert)
        m = len(g)
        lam = cert.lam
        for s in range(m):
            scaled = cert.code.vectors.row(s) * lam % 11
            assert np.array_equal(scaled, cert.code.vectors.row(m + s))
