import itertools
from fractions import Fraction

import numpy as np
import pytest
from helpers import brute_rank, closure_fields, reference_nullspace, reference_row_closure
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import linalg
from rep2ldc.errors import DimensionMismatch, ZeroMatrix
from rep2ldc.fields import GF, QQ, Field
from rep2ldc.linalg import (
    Matrix,
    Subspace,
    nullspace,
    rank,
    rank_factorize,
    row_closure,
    row_closure_is_full,
    rref,
)

F2, F3, F5, F11 = GF(2), GF(3), GF(5), GF(11)


class TestRref:
    def test_identity_fixed_point(self):
        m = Matrix.identity(F3, 2)
        r, rk, piv = rref(m)
        assert r == m and rk == 2 and piv == (0, 1)

    def test_proportional_rows(self):
        r, rk, piv = rref(Matrix(F5, [[1, 2], [2, 4]]))
        assert r.a.tolist() == [[1, 2], [0, 0]]
        assert rk == 1 == brute_rank([[1, 2], [2, 4]], 5)

    def test_zero(self):
        r, rk, _ = rref(Matrix.zeros(F3, 3, 3))
        assert rk == 0 and r.is_zero()

    @pytest.mark.parametrize("field", [F2, F3, F5, QQ])
    def test_idempotent_and_transpose_rank(self, field):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rows, cols = rng.integers(1, 6, size=2)
            data = rng.integers(-4, 5, size=(rows, cols)).tolist()
            m = Matrix(field, data)
            r, rk, _ = rref(m)
            again, rk2, _ = rref(r)
            assert again == r and rk2 == rk
            assert rank(m.T) == rk
            if rows <= 4 and cols <= 4 and field.char in (0, 2, 3):
                assert rk == brute_rank(data, field.char)


class TestRank:
    def test_paper_reflection_witness(self):
        # diag(-1,1,1,1) - I = diag(-2,0,0,0), rank 1 over GF(3)
        assert rank(Matrix.diag(F3, [-2, 0, 0, 0])) == 1

    def test_identity(self):
        for n in (1, 3, 5):
            assert rank(Matrix.identity(F5, n)) == n

    def test_rank_one_difference(self):
        m = Matrix(F11, [[-1, 1], [1, -1]])
        assert rank(m) == 1 == brute_rank([[10, 1], [1, 10]], 11)


class TestNullspace:
    def test_identity_gives_zero_space(self):
        assert nullspace(Matrix.identity(F3, 3)).dim == 0

    def test_zero_matrix_gives_full_space(self):
        ns = nullspace(Matrix.zeros(F2, 2, 3))
        assert ns.dim == 3

    def test_single_parity_row(self):
        m = Matrix(F2, [[1, 1, 0]])
        ns = nullspace(m)
        # oracle: every vector with v0 + v1 = 0 mod 2
        members = [
            v for v in itertools.product((0, 1), repeat=3) if (v[0] + v[1]) % 2 == 0
        ]
        assert ns.dim == 2 and len(members) == 4
        for v in members:
            assert Subspace.from_rows(F2, 3, [*ns.basis.a.tolist(), v]) == ns

    def test_nullspace_definition(self):
        rng = np.random.default_rng(23)
        for field in (F3, QQ):
            data = rng.integers(-3, 4, size=(3, 5)).tolist()
            m = Matrix(field, data)
            ns = nullspace(m)
            assert ns.dim == 5 - rank(m)
            for i in range(ns.dim):
                assert not np.any(m.matvec(ns.basis.row(i)) != 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_two_elimination_reference(self, data):
        """One reversed-column RREF gives the basis, dtype and entry types of
        the former RREF-then-Subspace.from_rows path, on r x c products
        A B of inner width k (so every rank up to min(r, c) occurs), 0 rows
        and 0 columns included."""
        field = data.draw(st.sampled_from([F2, F3, GF(7), F11, GF(2**31 - 1), QQ]))
        r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
        k = data.draw(st.integers(0, 4))
        entry = (st.fractions(-3, 3, max_denominator=3) if not field.char
                 else st.one_of(st.integers(-2, 2), st.integers(0, field.char - 1)))
        a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
        b = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
                for i in range(r)]
        m = Matrix(field, rows) if r else Matrix.zeros(field, 0, c)
        got, want = nullspace(m), reference_nullspace(m)
        assert got == want and got.basis.a.dtype == want.basis.a.dtype
        assert [type(x) for x in got.basis.a.flat] == [type(x) for x in want.basis.a.flat]


class TestRankFactorize:
    def test_identity(self):
        y, x = rank_factorize(Matrix.identity(F3, 2))
        assert y == Matrix.identity(F3, 2) and x == Matrix.identity(F3, 2)

    def test_rank_one_diag(self):
        d = Matrix.diag(F3, [-2, 0, 0, 0])
        y, x = rank_factorize(d)
        assert (y @ x.T) == d
        assert y.cols == 1 and rank(y) == 1 and rank(x) == 1

    def test_rank_one_offdiag(self):
        d = Matrix(F11, [[-1, 1], [1, -1]])
        y, x = rank_factorize(d)
        assert (y @ x.T) == d and y.cols == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroMatrix):
            rank_factorize(Matrix.zeros(F3, 2, 2))

    @pytest.mark.parametrize("field", [F2, F5, QQ])
    def test_random_property(self, field):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = Matrix(field, rng.integers(-3, 4, size=(n, n)).tolist())
            if m.is_zero():
                continue
            y, x = rank_factorize(m)
            r = rank(m)
            assert y.cols == r == x.cols
            assert (y @ x.T) == m
            assert rank(y) == r and rank(x) == r


class TestSubspaces:
    """The orthogonal complement of a subspace U is nullspace(U.basis)."""

    def test_orth_complement_of_line(self):
        u = Subspace.from_rows(F3, 3, [[1, 0, 0]])
        assert nullspace(u.basis) == Subspace.from_rows(F3, 3, [[0, 1, 0], [0, 0, 1]])

    def test_orth_complement_of_full(self):
        u = Subspace.from_rows(F3, 3, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        assert u.dim == 3 and nullspace(u.basis).dim == 0

    def test_self_orthogonal_over_gf2(self):
        u = Subspace.from_rows(F2, 2, [[1, 1]])
        # oracle: scan all four vectors of GF(2)^2
        members = [v for v in itertools.product((0, 1), repeat=2)
                   if (v[0] + v[1]) % 2 == 0]
        assert nullspace(u.basis) == Subspace.from_rows(F2, 2, members) == u

    def test_dimension_identity_exhaustive_gf2_cubed(self):
        # every subspace of GF(2)^3, as spans of all vector subsets
        vectors = list(itertools.product((0, 1), repeat=3))
        seen = set()
        for size in range(4):
            for subset in itertools.combinations(vectors, size):
                rows = list(subset) if subset else [[0, 0, 0]]
                u = Subspace.from_rows(F2, 3, rows)
                key = u.basis.key()
                if key in seen:
                    continue
                seen.add(key)
                c = nullspace(u.basis)
                assert u.dim + c.dim == 3
                for i in range(u.dim):
                    for j in range(c.dim):
                        assert int(u.basis.row(i) @ c.basis.row(j)) % 2 == 0
        assert len(seen) == 16  # subspace count of GF(2)^3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="basis width"):
            Subspace.from_rows(F3, 3, [[1, 0]])
        with pytest.raises(DimensionMismatch):
            Matrix.identity(F3, 2) @ Matrix.identity(F5, 2)

    @pytest.mark.parametrize("other, rows", [(F5, [[1, 4]]), (QQ, [[2, 1]])])
    def test_basis_over_another_field_rejected(self, other, rows):
        """A GF(5) basis holding 4, or a QQ one, is not re-labelled as GF(3)."""
        with pytest.raises(DimensionMismatch, match="over different fields"):
            Subspace(F3, 2, Matrix(other, rows))
        with pytest.raises(DimensionMismatch, match="over different fields"):
            Subspace.from_rows(F3, 2, Matrix(other, rows))


class TestRowClosureInput:
    """row_closure and row_closure_is_full take no matrices, and name the
    first matrix over another field or of a shape the rows cannot take."""

    def test_no_matrices_is_the_row_space(self):
        rows = Matrix(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
        assert row_closure(rows, []) == Subspace.from_rows(F3, 3, rows)
        assert row_closure(Matrix(QQ, [[0, 2]]), []).basis.a.tolist() == [[0, 1]]
        assert row_closure_is_full(Matrix(QQ, [[1, 0], [1, 1]]), []) is True
        assert row_closure_is_full(Matrix(QQ, [[1, 1]]), []) is False

    @pytest.mark.parametrize("closure", [row_closure, row_closure_is_full])
    def test_matrix_over_another_field(self, closure):
        with pytest.raises(DimensionMismatch, match=r"^row_closure matrix 0 is over GF\(5\), "
                                                    r"the rows over GF\(3\)$"):
            closure(Matrix(F3, [[1, 0, 0, 0]]), [Matrix.identity(F5, 2)])
        with pytest.raises(DimensionMismatch, match=r"matrix 1 is over GF\(3\), the rows over QQ"):
            closure(Matrix(QQ, [[1, 0]]), [Matrix.identity(QQ, 2), Matrix.identity(F3, 2)])

    @pytest.mark.parametrize("closure", [row_closure, row_closure_is_full])
    @pytest.mark.parametrize("mats, named", [
        ([Matrix.identity(F3, 3)], "matrix 0 is 3 x 3, not n x n with n = 3 dividing the row "
                                   "width 4"),
        ([Matrix(F3, [[1, 0], [0, 1], [1, 1]])], "matrix 0 is 3 x 2"),
        ([Matrix.identity(F3, 2), Matrix.identity(F3, 4)], "matrix 1 is 4 x 4, not n x n with "
                                                            "n = 2"),
        ([Matrix.zeros(F3, 0, 0)], "matrix 0 is 0 x 0"),
    ])
    def test_matrix_of_the_wrong_shape(self, closure, mats, named):
        with pytest.raises(DimensionMismatch, match=named):
            closure(Matrix(F3, [[1, 0, 0, 0]]), mats)


class TestProofModP:
    @pytest.mark.parametrize("prime", [5, 7])
    def test_verdict_is_the_exact_closures(self, monkeypatch, prime):
        """Random rational matrices (denominators 1-4, so a proof mod 5 or 7
        always runs): the verdict is whether the per-round reference closure
        of vec(I) is full.  A proof decides alone only when it is full, and
        all three outcomes (proved, refuted only mod p, not full) occur."""
        monkeypatch.setattr(linalg, "PROOF_PRIME", prime)
        seen = closure_fields(monkeypatch)
        outcomes = set()
        rational = st.builds(Fraction, st.integers(-prime, prime), st.integers(1, 4))

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(data=st.data())
        def check(data):
            n = data.draw(st.integers(2, 3))
            flat = st.lists(rational, min_size=n * n, max_size=n * n)
            mats = [Matrix(QQ, [m[i:i + n] for i in range(0, n * n, n)])
                    for m in data.draw(st.lists(flat, min_size=1, max_size=2))]
            vec_i = Matrix(QQ, np.eye(n, dtype=np.int64).reshape(1, -1))
            seen.clear()
            verdict = row_closure_is_full(vec_i, mats)
            assert verdict == (reference_row_closure(vec_i, mats).dim == n * n)
            assert seen in ([GF(prime)], [GF(prime), QQ])
            assert verdict or len(seen) == 2
            outcomes.add((len(seen), verdict))

        check()
        assert outcomes == {(1, True), (2, True), (2, False)}


class TestFieldsAndMatrices:
    def test_canonical_scalars(self):
        assert F5.canon(-1) == 4
        assert F5.canon(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
        assert QQ.canon(2) == Fraction(2)
        assert F5.theta == Fraction(4, 5) and QQ.theta == 1

    def test_nonprime_char_rejected(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_matrix_immutable(self):
        m = Matrix.identity(F3, 2)
        with pytest.raises(ValueError):
            m.a[0, 0] = 2

    def test_rational_exactness(self):
        big = Matrix(QQ, [[Fraction(1, 10**20), 1], [0, 1]])
        assert rank(big) == 2
        y, x = rank_factorize(big)
        assert (y @ x.T) == big
