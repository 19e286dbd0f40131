import dataclasses
import functools
import hashlib
import itertools
import json
import os
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import reference_choose_z_drawn, reference_dual_vectors, reference_spanning_family
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc.bounds import avg_fixed_space, check_rank_separation, entropy_audit, gamma
from rep2ldc import _kernels, construct, ldc
from rep2ldc.certcheck import cert_from_json, verify_cert
from rep2ldc.construct import (
    SpanningFamily,
    _code_vectors,
    _hyperplane_normals,
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
    validate_family,
)
from rep2ldc.errors import (
    BudgetExhausted,
    CapExceeded,
    IdentityElement,
    InternalInconsistency,
    OrbitDoesNotSpan,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from rep2ldc.fields import GF, QQ
from rep2ldc.fixtures import parse_fixture, signed_shift_group
from rep2ldc.groups import burnside_irreducible, close_group
from rep2ldc.ldc import QMatching, verify
from rep2ldc.linalg import Matrix, Subspace, rank, rank_factorize, ranks
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
        full = Subspace.from_rows(F3, 4, Matrix.identity(F3, 4))
        fam = minimal_spanning_family(signed_shift_4_3, full)
        assert fam == [0]

    def test_signed_shift_coordinate_lines(self, signed_shift_4_3):
        g = signed_shift_4_3
        u = Subspace.from_rows(F3, 4, [[1, 0, 0, 0]])
        fam = minimal_spanning_family(g, u)
        assert len(fam) == 4
        images = [(u.basis @ g.matrix(pos).T).a for pos in fam]
        assert rank(Matrix(F3, np.concatenate(images))) == 4
        # minimality oracle: dropping any translate loses the span
        for k in range(4):
            rest = [images[i] for i in range(4) if i != k]
            assert rank(Matrix(F3, np.concatenate(rest))) < 4
        # each translate of a coordinate line is a coordinate line
        for img in images:
            assert np.count_nonzero(img) == 1

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
        u = Subspace.from_rows(F3, 4, y)
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


@st.composite
def spanning_cases(draw):
    """(generators, seed rows): 1-3 monomial generators (a permutation times
    units, so the group is finite) over GF(2), GF(3), GF(5) or QQ, over a
    finite field also any invertible matrix, and 1..n rows for U, unit
    vectors or any.  Groups of permutation matrices alone are reducible,
    and coordinate subspaces under monomial groups often need pruning."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
    n = draw(st.sampled_from([2, 3, 4, 4]))
    entry = st.integers(0, field.char - 1) if field.char else st.integers(-1, 1)
    units = st.sampled_from(list(range(1, field.char)) if field.char else [1, -1])

    @st.composite
    def monomial(draw):
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(n), draw(st.permutations(range(n)))] = draw(
            st.lists(units, min_size=n, max_size=n))
        return Matrix(field, a.tolist())

    dense = st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda v: Matrix(field, np.reshape(v, (n, n)).tolist())
    ).filter(lambda m: rank(m) == n)
    matrix = st.one_of(monomial(), dense) if field.char else monomial()
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    d = min(n, draw(st.sampled_from([1, 1, 2, 3])))
    coordinate = st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True).map(
        lambda idx: np.eye(n, dtype=np.int64)[idx].tolist())
    dense_rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=d, max_size=d)
    return gens, draw(st.one_of(coordinate, dense_rows))


class TestAgainstPerElementFamily:
    """The stacked translates against the per-element Subspace walk of
    helpers.py, with BFS chunks of 3 positions so the scan crosses chunks."""

    @staticmethod
    def _check(g, u):
        with mock.patch.object(construct, "CLOSURE_CHUNK", 3):
            try:
                want = reference_spanning_family(g, u)
            except OrbitDoesNotSpan as exc:
                with pytest.raises(OrbitDoesNotSpan, match=f"^{re.escape(str(exc))}$"):
                    minimal_spanning_family(g, u)
                return
            fam = minimal_spanning_family(g, u)
        assert fam == want
        y = Matrix(g.field, u.basis.a.T)
        w_ref, hats_ref = reference_dual_vectors(g, u, want, y)
        w, hats = dual_vectors(g, u, fam, y)
        assert w == w_ref
        assert len(hats) == len(hats_ref)
        assert all(np.array_equal(a, b) for a, b in zip(hats, hats_ref))
        validate_family(g, SpanningFamily(tuple(fam), u, w, tuple(hats)), y)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=spanning_cases())
    def test_family_and_dual_vectors_match_reference(self, case):
        gens, rows = case
        try:
            g = close_group(gens, cap=400)
        except CapExceeded:
            return
        u = Subspace.from_rows(g.field, g.dim, rows)
        if u.dim:
            self._check(g, u)

    # Greedy keeps 3-5 translates of these coordinate subspaces and pruning
    # deletes 1-2 ([0, 2, 5] -> [0, 5] on the 4-dimensional signed shifts);
    # the other subspaces have two redundant members in one round, and the
    # first is the one to go ([0, 1, 2] -> [1, 2] on signed_shift(4,3)).
    @pytest.mark.parametrize("fixture, rows", [
        ("signed_shift(4,3)", [[1, 0, 0, 0], [0, 1, 0, 0]]),
        ("signed_shift(4,0)", [[1, 0, 0, 0], [0, 1, 0, 0]]),
        ("signed_shift(6,5)", [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),
        ("signed_shift(6,5)", [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
        ("signed_shift(4,3)", [[2, 2, 0, 0], [0, 0, 2, 0]]),
        ("signed_shift(4,0)", [[2, 1, 2, 2], [2, 2, 2, 0]]),
        ("symmetric(5,7)", [[2, 1, 3, 6], [6, 1, 1, 1]]),
        ("signed_shift(6,5)", [[0, 3, 1, 3, 1, 4], [4, 0, 1, 0, 1, 1]]),
    ])
    def test_pruned_families_match_reference(self, fixture, rows):
        g = parse_fixture(fixture)
        self._check(g, Subspace.from_rows(g.field, g.dim, rows))

    def test_spanning_family_is_a_few_eliminations(self):
        # over GF(p) each linalg.rref is one rref_mod and each linalg.ranks
        # one rank_mod_batched; the per-element walk made hundreds
        g = signed_shift_group(10, 3)
        y, _ = rank_factorize(combine(g, [g.generators[0], 0], [1, -1]))
        u = Subspace.from_rows(F3, 10, y.T)
        with mock.patch.object(_kernels, "rref_mod", wraps=_kernels.rref_mod) as rref_mod, \
                mock.patch.object(_kernels, "rank_mod_batched",
                                  wraps=_kernels.rank_mod_batched) as batched:
            fam = minimal_spanning_family(g, u)
        assert fam == reference_spanning_family(g, u)
        assert rref_mod.call_count + batched.call_count <= 20


class TestValidateFamilyFailures:
    @pytest.mark.parametrize("fixture, kind", [("signed_shift(4,3)", "special2"),
                                               ("dihedral(5,11)", "general")])
    def test_every_single_entry_edit_fails(self, fixture, kind):
        g = parse_fixture(fixture)
        if kind == "special2":
            cert = build_special_2ldc(g, g.generators[0])
        else:
            g0, g1 = g.generators
            cert = build_q_ldc(g, [g0, g.mul(g.mul(g1, g0), g.inv(g1)), 0], [1, 1, -2])
        fam, field = cert.family, g.field
        edits = []
        for i, j in np.ndindex(fam.W.a.shape):
            w = fam.W.a.copy()
            w[i, j] = field.reduce(w[i, j] + 1)
            edits.append(dataclasses.replace(fam, W=Matrix.from_array(field, w)))
        for j, k in np.ndindex(len(fam.hat_w), cert.R):
            hats = [h.copy() for h in fam.hat_w]
            hats[j][k] = field.reduce(hats[j][k] + 1)
            edits.append(dataclasses.replace(fam, hat_w=tuple(hats)))
        for edited in edits:
            report = verify_cert(dataclasses.replace(cert, family=edited))
            assert not report.passed
            assert any(f.startswith("spanning family invalid: ") for f in report.failures)

    def test_duplicated_and_dropped_members(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0])
        fam = cert.family
        dup = SpanningFamily(fam.g_refs + fam.g_refs[:1], fam.U, fam.W, fam.hat_w)
        with pytest.raises(InternalInconsistency, match="^translate 0 is redundant$"):
            validate_family(g, dup, cert.Y)
        dup_last = SpanningFamily(fam.g_refs + fam.g_refs[-1:], fam.U, fam.W, fam.hat_w)
        with pytest.raises(InternalInconsistency, match="^translate 3 is redundant$"):
            validate_family(g, dup_last, cert.Y)
        # 20,000 members: the redundancy check stays linear in the family size
        long = SpanningFamily(fam.g_refs * 5000, fam.U, fam.W, fam.hat_w * 5000)
        with pytest.raises(InternalInconsistency, match="^translate 0 is redundant$"):
            validate_family(g, long, cert.Y)
        dropped = SpanningFamily(fam.g_refs[:-1], fam.U, fam.W, fam.hat_w[:-1])
        with pytest.raises(InternalInconsistency, match="do not span|too small"):
            validate_family(g, dropped, cert.Y)

    def test_a_family_of_another_shape(self):
        """Broadcasting would let a W of t' != t columns through the rank-one
        identities when t or t' is 1, and t hat_w of a family of one
        translate; the shapes are refused by name."""
        g = parse_fixture("signed_shift(4,3)")
        cert = build_q_ldc(g, [g.identity_pos], [1])  # D = I: one translate
        fam = cert.family
        wide = dataclasses.replace(fam, W=Matrix.from_array(
            g.field, np.concatenate([fam.W.a] * 2, axis=1)))
        with pytest.raises(InternalInconsistency, match=re.escape(
                "W has shape (4, 2) and 1 hat_w rows, need (4, 1) and 1")):
            validate_family(g, wide, cert.Y)
        with pytest.raises(InternalInconsistency, match=re.escape(
                "W has shape (4, 1) and 2 hat_w rows, need (4, 1) and 1")):
            validate_family(g, dataclasses.replace(fam, hat_w=fam.hat_w * 2), cert.Y)


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


@functools.cache
def _symmetric_7_11_normals():
    """The hyperplane normals of the symmetric(7,11) special2 build of
    generator 0: 15,120 rows over GF(11) on 21 lines."""
    g = parse_fixture("symmetric(7,11)")
    h = g.generators[0]
    _, _, _, x, family = construct._prepare(g, [h, g.identity_pos], [1, -1])
    return _hyperplane_normals(g, x, family.hat_w, construct._cycle_kept_s(g, h))


def _repeated_lines(p, n, seed):
    """Rows over GF(p) that repeat a few lines: equal rows, nonzero scalar
    multiples of them and one zero row, shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, p, size=(5, n), dtype=np.int64)
    base[:, 0] = 1
    picks = rng.integers(0, 5, size=60)
    scales = rng.integers(1, p, size=60, dtype=np.int64)
    rows = base[picks] * scales[:, None] % p
    rows = np.concatenate([rows, base, np.zeros((1, n), dtype=np.int64)])
    return rows[rng.permutation(len(rows))]


class TestRandomizedZMatchesTheDrawLoop:
    """choose_z counts its seeded draws a block at a time over projective
    classes; z and the mask are byte for byte those of one draw at a time
    over the raw rows."""

    @staticmethod
    def _same(field, normals, seed):
        z, mask = choose_z(field, normals, seed=seed)
        ref_z, ref_mask = reference_choose_z_drawn(field, normals, seed)
        assert z.dtype == ref_z.dtype and z.shape == ref_z.shape == (normals.shape[1],)
        assert z.tobytes() == ref_z.tobytes()
        assert mask.dtype == ref_mask.dtype and mask.tobytes() == ref_mask.tobytes()
        assert z.base is None  # its own array, not a view of a block

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_7_11_special2(self, seed):
        normals = _symmetric_7_11_normals()
        assert normals.shape == (15120, 6)
        assert len(_kernels.projective_classes(normals, 11)[0]) == 21
        self._same(GF(11), normals, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_object_keys_beyond_int64(self, seed):
        p = 2**31 - 1
        assert p**3 > 2**63 - 1
        rows = _repeated_lines(p, 3, seed)
        # over so large a field the bound asks every row to survive
        self._same(GF(p), rows[np.any(rows != 0, axis=1)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_lines_and_multiples(self, seed):
        self._same(F31, _repeated_lines(31, 4, seed), seed)

    def test_budget_exhausted_after_every_draw(self):
        made = []
        real = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, *args, **kwargs):
                made.append(1)
                return self.rng.integers(*args, **kwargs)

        normals = _repeated_lines(31, 4, 0)
        message = r"^no z met the surviving fraction in 6400 draws$"
        with mock.patch.object(construct, "survivors_suffice", lambda *a: False), \
                mock.patch("numpy.random.default_rng", CountingRng), \
                pytest.raises(BudgetExhausted, match=message):
            choose_z(F31, normals, seed=0)
        assert construct.Z_TRIALS == 64 and len(made) == 100 * construct.Z_TRIALS


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
        return (
            [build_special_2ldc(signed_shift_4_3, signed_shift_4_3.generators[0], seed=0)]
            + _every_kind(dihedral_5_11)
            + _every_kind(signed_shift_4_q)
        )

    def test_beta_table_matches_beta(self, certs):
        for cert in certs:
            table = beta_table(cert)
            assert table.shape == (len(cert.group), cert.t)
            for j in range(cert.t):
                for s in range(len(cert.group)):
                    assert table[s, j] == beta(cert, j, s)

    def test_beta_mask_matches_beta(self, certs):
        for cert in certs:
            expected = [[beta(cert, j, s) != 0 for s in cert.kept_s] for j in range(cert.t)]
            assert (beta_table(cert)[list(cert.kept_s)] != 0).T.tolist() == expected

    def test_identities_hold_elementwise(self, certs):
        for cert in certs:
            assert _reference_identity_failure(cert) is None
            assert check_spanning_identities(cert) == cert.t * len(cert.group)

    def test_rational_arrays_hold_fractions(self, certs, monkeypatch):
        """Over QQ every entry of the normals, code vectors, beta table and
        the stacks ranked by ldc._spans (e_i row included) is a Fraction:
        an int or a float would reach _rref_fraction's 1 / a[r, c]."""
        stacks = []

        def recording(field, stack):
            stacks.append(stack)
            return ranks(field, stack)

        monkeypatch.setattr(ldc, "ranks", recording)
        arrays = []
        for cert in certs:
            if cert.group.field.char:
                continue
            g, fam = cert.group, cert.family
            lam = cert.lam if cert.kind == "lambda" else None
            arrays += [
                _hyperplane_normals(g, cert.X, fam.hat_w, cert.kept_s),
                _code_vectors(g, fam.W, cert.z, lam),
                cert.code.vectors.a,
                beta_table(cert),
            ]
            assert verify(dataclasses.replace(cert.code, form="general")).passed
        assert len(arrays) == 12 and stacks
        for a in arrays + stacks:
            assert a.size and all(type(x) is Fraction for x in a.flat)

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

    def _assert_location_agrees(self, group, row, col):
        for cert in _every_kind(group):
            bad = self._tampered(cert, row, col % cert.t)
            j, s = _reference_identity_failure(bad)
            with pytest.raises(InternalInconsistency,
                               match=rf"^tuple identity fails at \(j={j}, s={s}\)$"):
                check_spanning_identities(bad)

    @pytest.mark.parametrize("row, col", [(0, 0), (9, 1), (3, 0)])
    def test_location_agrees_with_reference(self, dihedral_5_11, row, col):
        self._assert_location_agrees(dihedral_5_11, row, col)

    @pytest.mark.parametrize("row, col", [(0, 0), (9, 1), (3, 0)])
    def test_rational_location_agrees_with_reference(self, signed_shift_4_q, row, col):
        self._assert_location_agrees(signed_shift_4_q, row, col)

    def test_short_code_reported_not_raised(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        a = cert.code.vectors.a[:32]
        code = dataclasses.replace(
            cert.code, m=32, vectors=Matrix.from_array(g.field, a),
            matchings=(QMatching(2, ()),) * cert.code.t,
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
        w = cert.family.W.a.tolist()
        z = [int(v) for v in cert.z]
        n, t = 2, cert.t
        for s in range(len(g)):
            rho = g.matrix(s).a.tolist()
            u = [sum(rho[i][k] * z[k] for k in range(n)) % 11 for i in range(n)]
            a = [sum(w[i][j] * u[i] for i in range(n)) % 11 for j in range(t)]
            assert a == [int(x) for x in cert.code.vectors.row(s)]

    def test_pairs_differ_only_at_their_coordinate(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        rows = cert.code.vectors.a.tolist()
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


GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "golden.json")


def _golden(workload: str, job: str) -> str:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload][job]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _cert_text(fixture: str, kind: str) -> str:
    """Canonical text of a certificate, built as the benchmark builds it
    at its default seed."""
    g = parse_fixture(fixture)
    g0, g1 = g.generators[0], g.generators[1]
    h2 = g.mul(g.mul(g1, g0), g.inv(g1))
    if kind == "special2":
        cert = build_special_2ldc(g, g0)
    elif kind == "lambda":
        cert = lambda_variant(g, g0, 1)
    else:
        cert = build_q_ldc(g, [g0, h2, g.identity_pos], [1, 1, -2])
    return canonical_json(cert_to_json(cert))


@pytest.mark.parametrize("kind", ["special2", "lambda", "general"])
def test_exhaustive_scan_certificates_match_golden(kind):
    """The three signed_shift(8,3) certificates whose z comes from the
    exhaustive scan (3^8 candidates), built as the benchmark builds them
    at its default seed, hash to the values it pins."""
    want = _golden("construct", f"signed_shift(8,3) {kind}")
    assert _sha256(_cert_text("signed_shift(8,3)", kind)) == want


@pytest.mark.parametrize("kind", ["special2", "general"])
def test_verify_reports_match_golden(kind):
    """verify_cert on the signed_shift(8,3) special2 and general
    certificates, read back from their JSON text, gives the report the
    benchmark pins byte for byte."""
    want = _golden("verify", f"signed_shift(8,3) {kind}")
    cert = cert_from_json(json.loads(_cert_text("signed_shift(8,3)", kind)))
    assert _sha256(canonical_json(verify_cert(cert).to_json())) == want


def test_rational_certificate_and_report_match_golden():
    """The signed_shift(4,0) special2 certificate (rational lattice search,
    cycle matchings over QQ) and its verify_cert report hash to the
    benchmark's pinned construct and verify values."""
    text = _cert_text("signed_shift(4,0)", "special2")
    assert _sha256(text) == _golden("construct", "signed_shift(4,0) special2")
    report = verify_cert(cert_from_json(json.loads(text)))
    assert _sha256(canonical_json(report.to_json())) == _golden(
        "verify", "signed_shift(4,0) special2")


@pytest.mark.parametrize("kind, want", [
    ("lambda", "bb5c98d8168333dbfe170824191865c2bd6a05773f163aba642ce660eed5e941"),
    ("general", "16639859e6d0260012c402af2c9ddc0343114f0f9cf427363af9b33eb5075b85"),
])
def test_rational_lambda_and_general_certificates_pinned(kind, want):
    """The signed_shift(4,0) lambda and general certificates over QQ,
    built as the benchmark builds them at its default seed."""
    assert _sha256(_cert_text("signed_shift(4,0)", kind)) == want


@pytest.mark.parametrize("fixture", ["signed_shift(4,0)", "symmetric(7,11)",
                                     "signed_shift(10,3)"])
def test_rank_scan_documents_match_golden(fixture):
    """The rank-scan document (rank bound per element, Burnside verdict,
    average fixed space), assembled as the benchmark's rank_scan job
    assembles it, hashes to its pinned value."""
    group = parse_fixture(fixture)
    reports = check_rank_separation(group)
    afs = avg_fixed_space(group)
    doc = {
        "group_size": len(group),
        "dim": group.dim,
        "burnside_irreducible": burnside_irreducible(group),
        "all_satisfied": all(r.satisfied and r.uniform_satisfied for r in reports),
        "reports": [r.to_json() for r in reports],
        "avg_fixed_space": afs.to_json(),
    }
    assert _sha256(canonical_json(doc)) == _golden("rank_scan", f"{fixture} scan")
