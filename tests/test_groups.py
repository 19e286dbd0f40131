import numpy as np
import pytest
from helpers import fresh_group

from rep2ldc import groups
from rep2ldc.errors import CapExceeded, InternalInconsistency, NotInvertible, ZeroVector
from rep2ldc.fields import GF, QQ
from rep2ldc.groups import (
    MatrixGroup,
    _verify_closure,
    burnside_irreducible,
    close_group,
    fixed_space,
    mult_cycles,
    spin,
)
from rep2ldc.linalg import Matrix, rank

F3, F5, F11, F7 = GF(3), GF(5), GF(11), GF(7)


def shift_matrix(field, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    return Matrix(field, rows)


def brute_closure(generators, limit=10_000):
    """Oracle: saturate the set under products, no BFS bookkeeping."""
    elems = {Matrix.identity(generators[0].field, generators[0].rows).key()}
    mats = {m.key(): m for m in generators}
    mats[Matrix.identity(generators[0].field, generators[0].rows).key()] = (
        Matrix.identity(generators[0].field, generators[0].rows)
    )
    elems.update(m.key() for m in generators)
    changed = True
    while changed:
        changed = False
        current = list(mats.values())
        for a in current:
            for b in current:
                c = a @ b
                if c.key() not in mats:
                    mats[c.key()] = c
                    changed = True
                    if len(mats) > limit:
                        raise RuntimeError("oracle overflow")
    return len(mats)


class TestCloseGroup:
    def test_trivial(self):
        g = close_group([Matrix.identity(F3, 2)])
        assert len(g) == 1 and g.identity_pos == 0

    def test_signed_shift_size(self, signed_shift_4_3):
        assert len(signed_shift_4_3) == 64  # n * 2^n

    def test_dihedral_against_brute_closure(self):
        rot = Matrix.diag(F11, [9, 5])  # 9 has multiplicative order 5 mod 11
        swap = Matrix(F11, [[0, 1], [1, 0]])
        g = close_group([rot, swap])
        assert len(g) == 10 == brute_closure([rot, swap])

    def test_cap_exceeded(self):
        refl = Matrix.diag(F3, [-1, 1, 1, 1])
        with pytest.raises(CapExceeded):
            close_group([refl, shift_matrix(F3, 4)], cap=10)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            close_group([Matrix.zeros(F3, 2, 2)])

    def test_infinite_rational_group_hits_cap(self):
        unipotent = Matrix(QQ, [[1, 1], [0, 1]])
        with pytest.raises(CapExceeded):
            close_group([unipotent], cap=50)

    def test_word_provenance(self, signed_shift_4_3):
        g = signed_shift_4_3
        gens = [g.matrix(pos) for pos in g.generators]
        for pos in range(len(g)):
            acc = Matrix.identity(F3, 4)
            for gi in g.words[pos]:
                acc = acc @ gens[gi]
            assert acc == g.matrix(pos)

    def test_closure_exhaustive_small(self):
        g = close_group([Matrix(F7, [[3]])])
        assert len(g) == 6
        for i in range(6):
            for j in range(6):
                assert 0 <= g.mul(i, j) < 6
            assert g.mul(i, g.inv(i)) == g.identity_pos

    def test_closure_sampled_above_threshold(self):
        # 2048 elements: the closure proof covers every element times every
        # generator; spot-check the product table it implies
        from rep2ldc.fixtures import signed_shift_group

        g = signed_shift_group(8, 3)
        assert len(g) == 2048
        rng = np.random.default_rng(1)
        for i, j in rng.integers(0, 2048, size=(32, 2)):
            k = g.mul(int(i), int(j))
            assert g.matrix(int(i)) @ g.matrix(int(j)) == g.matrix(k)

    @pytest.mark.parametrize("fixture, chunk", [
        ("signed_shift_4_3", groups.CLOSURE_CHUNK),
        ("signed_shift_4_3", 7),  # 64 elements in several chunks, the last one partial
        ("signed_shift_4_q", groups.CLOSURE_CHUNK),
    ])
    @pytest.mark.parametrize("drop", [0, 1, 37, 63])
    def test_closure_check_detects_missing_element(
        self, request, monkeypatch, fixture, drop, chunk
    ):
        monkeypatch.setattr(groups, "CLOSURE_CHUNK", chunk)
        g = request.getfixturevalue(fixture)
        index = dict(g.index)
        del index[g.matrix(drop).key()]
        damaged = MatrixGroup(g.field, g.dim, list(g.elements), index, g.generators, g.words)
        with pytest.raises(InternalInconsistency, match="not closed"):
            _verify_closure(damaged)
        _verify_closure(g)

    def test_cap_env_override(self, monkeypatch):
        from rep2ldc.groups import default_cap

        monkeypatch.setenv("REP2LDC_CAP", "123")
        assert default_cap() == 123
        monkeypatch.setenv("REP2LDC_CAP", "5")
        refl = Matrix.diag(F3, [-1, 1, 1, 1])
        with pytest.raises(CapExceeded):
            close_group([refl, shift_matrix(F3, 4)])
        monkeypatch.delenv("REP2LDC_CAP")
        assert default_cap() == 200_000


class TestElementOrder:
    def test_identity(self, signed_shift_4_3):
        assert signed_shift_4_3.element_order(0) == 1

    def test_involution(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert g.element_order(g.generators[0]) == 2

    def test_shift_order(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert g.element_order(g.generators[1]) == 4


class TestLeftPerm:
    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q", "dihedral_5_11"])
    def test_matches_single_products(self, request, fixture):
        g = request.getfixturevalue(fixture)
        for i in (0, *g.generators, len(g) - 1):
            perm = g.left_perm(i)
            assert perm.dtype == np.int64
            assert [int(x) for x in perm] == [g.mul(i, s) for s in range(len(g))]

    def test_large_prime_falls_back_exactly(self):
        # n (p-1)^2 overflows int64: left_perm and the closure proof take
        # _kernels.matmul_mod's one object-dtype product over the stack
        from rep2ldc.fixtures import signed_shift_group

        g = signed_shift_group(4, 2147483647)
        assert len(g) == 64
        for i in g.generators:
            assert [int(x) for x in g.left_perm(i)] == [g.mul(i, s) for s in range(len(g))]


class TestOrdersAndRanks:
    @pytest.mark.parametrize("spec", [
        "signed_shift(4,3)",
        "dihedral(5,11)",
        "symmetric(5,7)",
        "signed_shift(4,2147483647)",  # n (p-1)^2 overflows: object-dtype products
        "signed_shift(4,0)",           # QQ: the per-element loop
    ])
    @pytest.mark.parametrize("chunk", [groups.CLOSURE_CHUNK, 7])
    def test_matches_per_element_reference(self, monkeypatch, spec, chunk):
        from rep2ldc.fixtures import parse_fixture

        monkeypatch.setattr(groups, "CLOSURE_CHUNK", chunk)
        closed = parse_fixture(spec)
        g, ref = fresh_group(closed), fresh_group(closed)
        orders, ranks = g.orders_and_ranks()
        m, n = len(g), g.dim
        assert orders.dtype == ranks.dtype == np.int64
        assert orders.shape == ranks.shape == (m,)
        ident = Matrix.identity(g.field, n)
        for i in range(m):
            assert orders[i] == ref.element_order(i)
            assert ranks[i] == rank(g.matrix(i) - ident)
            assert ranks[i] == n - fixed_space(ref, i).dim
        assert [i for i in range(m) if ranks[i] == 0] == [g.identity_pos]
        assert g.orders_and_ranks() is g.orders_and_ranks()
        assert not orders.flags.writeable and not ranks.flags.writeable

    def test_element_order_stays_per_element(self, signed_shift_4_3):
        g = fresh_group(signed_shift_4_3)
        assert g.element_order(g.generators[1]) == 4
        assert g._orders_ranks is None


class TestMultCycles:
    def test_identity_gives_singletons(self, signed_shift_4_3):
        dec = mult_cycles(signed_shift_4_3, 0)
        assert len(dec.cycles) == 64
        assert all(len(c) == 1 for c in dec.cycles)

    def test_involution_gives_transpositions(self, signed_shift_4_3):
        g = signed_shift_4_3
        dec = mult_cycles(g, g.generators[0])
        assert len(dec.cycles) == 32
        assert all(len(c) == 2 for c in dec.cycles)

    def test_order_three_in_c6(self):
        c6 = close_group([Matrix(F7, [[3]])])
        h = c6.position_of(Matrix(F7, [[2]]))
        assert c6.element_order(h) == 3
        dec = mult_cycles(c6, h)
        assert len(dec.cycles) == 2 and all(len(c) == 3 for c in dec.cycles)

    def test_cycles_partition_and_follow_h(self, dihedral_5_11):
        g = dihedral_5_11
        for h in range(len(g)):
            dec = mult_cycles(g, h)
            seen = sorted(s for c in dec.cycles for s in c)
            assert seen == list(range(len(g)))
            order = g.element_order(h)
            for c in dec.cycles:
                assert len(c) == order
                for a, b in zip(c, c[1:]):
                    assert g.mul(h, a) == b


class TestBurnside:
    def test_signed_shift_irreducible(self, signed_shift_4_3):
        assert burnside_irreducible(signed_shift_4_3)

    def test_trivial_group_reducible(self):
        assert not burnside_irreducible(close_group([Matrix.identity(F3, 2)]))

    def test_dihedral_irreducible(self, dihedral_5_11):
        assert burnside_irreducible(dihedral_5_11)

    def test_pure_shift_reducible(self):
        assert not burnside_irreducible(close_group([shift_matrix(F3, 4)]))

    def test_verdict_cached_on_group(self, monkeypatch, dihedral_5_11):
        g = fresh_group(dihedral_5_11)
        assert burnside_irreducible(g)
        monkeypatch.setattr(groups, "_spans_matrix_algebra", None)
        assert burnside_irreducible(g)


class TestSpin:
    def test_irreducible_spins_to_full(self, signed_shift_4_3):
        assert spin([1, 0, 0, 0], signed_shift_4_3).dim == 4

    def test_invariant_line_under_shifts(self):
        g = close_group([shift_matrix(F3, 4)])
        assert spin([1, 1, 1, 1], g).dim == 1

    def test_zero_vector_rejected(self, signed_shift_4_3):
        with pytest.raises(ZeroVector):
            spin([0, 0, 0, 0], signed_shift_4_3)

    def test_spin_is_invariant(self, dihedral_5_11):
        g = dihedral_5_11
        space = spin([1, 2], g)
        for pos in g.generators:
            mat = g.matrix(pos)
            for i in range(space.dim):
                assert space.contains_vector(mat.matvec(space.basis.row(i)))


class TestFixedSpace:
    def test_identity_fixes_everything(self, signed_shift_4_3):
        assert fixed_space(signed_shift_4_3, 0).dim == 4

    def test_reflection_fixes_hyperplane(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert fixed_space(g, g.generators[0]).dim == 3

    def test_rotation_fixes_nothing(self, dihedral_5_11):
        g = dihedral_5_11
        rot = g.generators[0]
        assert g.element_order(rot) == 5
        assert fixed_space(g, rot).dim == 0
        assert rank(g.matrix(rot) - Matrix.identity(F11, 2)) == 2

    def test_rank_nullity_over_whole_group(self, signed_shift_4_3):
        g = signed_shift_4_3
        ident = Matrix.identity(F3, 4)
        for pos in range(len(g)):
            diff = g.matrix(pos) - ident
            assert fixed_space(g, pos).dim + rank(diff) == 4
