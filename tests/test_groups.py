import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import (
    LADDER,
    closure_fields,
    fresh_group,
    matrix_cycles,
    matrix_inv,
    matrix_left_perm,
    matrix_mul,
    matrix_order,
    reference_closure,
    reference_group_export_json,
    reference_row_closure,
    scan_spans_matrix_algebra,
    vector_spin,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import _kernels, groups, linalg
from rep2ldc.errors import CapExceeded, InternalInconsistency, NotInvertible
from rep2ldc.fields import GF, QQ, Field
from rep2ldc.fixtures import parse_fixture
from rep2ldc.groups import MatrixGroup, burnside_irreducible, close_group, mult_cycles
from rep2ldc.linalg import Matrix, Subspace, nullspace, rank, row_closure
from rep2ldc.serialize import canonical_json, group_export_json

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

    @pytest.mark.parametrize("spec", LADDER)
    def test_table_is_every_product(self, spec):
        # column k of the table is elements @ gen_k, one batched product per
        # distinct generator: every entry, and so every mul, is checked
        g = parse_fixture(spec)
        stack, right = g.stacked(), g._cayley()[0]
        for k, u in enumerate(dict.fromkeys(g.generators)):
            assert np.array_equal(g.field.matmul(stack, g.matrix(u).a), stack[right[:, k]])

    @staticmethod
    def _refused(g, elements=None, index=None, words=None):
        """A copy of g with the given parts in place of its own gets the one
        verdict: it is not the BFS closure of its generators."""
        damaged = MatrixGroup(g.field, g.dim, list(g.elements) if elements is None else elements,
                              g.index if index is None else index, g.generators,
                              g.words if words is None else tuple(words))
        with pytest.raises(InternalInconsistency,
                           match="^group copy is not the BFS closure of its generators$"):
            damaged._cayley()

    @staticmethod
    def _outsider(g):
        rows = [[int(i == j or (i, j) == (0, 1)) for j in range(g.dim)] for i in range(g.dim)]
        return Matrix(g.field, rows)  # same shape, not monomial, so not in the group

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
        self._refused(g, index=index)
        fresh_group(g)._cayley()

    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q"])
    @pytest.mark.parametrize("s", [1, 2, 37])
    def test_wrong_last_letter_detected(self, request, fixture, s):
        # every word must be its BFS parent's word plus the generator letter
        g = request.getfixturevalue(fixture)
        words = list(g.words)
        words[s] = words[s][:-1] + (1 - words[s][-1],)
        self._refused(g, words=words)

    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q"])
    @pytest.mark.parametrize("s", [1, 37, 63])
    @pytest.mark.parametrize("change", ["longer", "shorter", "empty"])
    def test_wrong_word_length_detected(self, request, fixture, s, change):
        g = request.getfixturevalue(fixture)
        words = list(g.words)
        words[s] = {"longer": (0,) + words[s], "shorter": words[s][1:], "empty": ()}[change]
        self._refused(g, words=words)

    @pytest.mark.parametrize("letter", [-1, 2])
    def test_letter_outside_generators_detected(self, signed_shift_4_3, letter):
        g = signed_shift_4_3
        words = list(g.words)
        words[37] = words[37][:-1] + (letter,)
        self._refused(g, words=words)

    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_swapped_same_level_elements_detected(self, request, fixture, depth):
        # consistent in elements, index and words, but not the BFS numbering
        g = request.getfixturevalue(fixture)
        level = [s for s, w in enumerate(g.words) if len(w) == depth]
        a, b = level[0], level[-1]
        elements, index, words = list(g.elements), dict(g.index), list(g.words)
        elements[a], elements[b] = elements[b], elements[a]
        words[a], words[b] = words[b], words[a]
        index[elements[a].key()], index[elements[b].key()] = a, b
        self._refused(g, elements, index, words)

    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q"])
    @pytest.mark.parametrize("damage", [
        "elements_swapped",  # index and words left as they are
        "identity_moved",
        "extra_element",
        "extra_index_key",
        "index_swapped",  # elements and words left as they are
    ])
    def test_numbering_damage_detected(self, request, fixture, damage):
        g = request.getfixturevalue(fixture)
        elements, index, words = list(g.elements), dict(g.index), list(g.words)
        outsider = self._outsider(g)
        if damage == "elements_swapped":
            elements[-2], elements[-1] = elements[-1], elements[-2]
        elif damage == "identity_moved":
            elements[0], elements[1] = elements[1], elements[0]
            words[0], words[1] = words[1], words[0]
            index[elements[0].key()], index[elements[1].key()] = 0, 1
        elif damage == "extra_element":
            index[outsider.key()] = len(elements)
            elements.append(outsider)
            words.append((0,))
        elif damage == "index_swapped":
            index[elements[1].key()], index[elements[2].key()] = 2, 1
        else:
            index[outsider.key()] = 5
        self._refused(g, elements, index, words)

    @pytest.mark.parametrize("fixture", ["signed_shift_4_3", "signed_shift_4_q"])
    @pytest.mark.parametrize("reindexed", [True, False])  # the index follows the swap, or not
    def test_non_element_swapped_in_detected(self, request, fixture, reindexed):
        g = request.getfixturevalue(fixture)
        elements, index = list(g.elements), dict(g.index)
        outsider = self._outsider(g)
        if reindexed:
            del index[elements[37].key()]
            index[outsider.key()] = 37
        elements[37] = outsider
        self._refused(g, elements, index)

    def test_position_of_rejects_another_field_or_shape(self, signed_shift_4_3):
        g = signed_shift_4_3
        s = g.generators[1]
        assert g.position_of(g.matrix(s)) == s
        for other in (Matrix(F5, g.matrix(s).a.tolist()), Matrix(F3, g.matrix(s).a.reshape(1, -1))):
            with pytest.raises(KeyError):
                g.position_of(other)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cap must be positive"):
            close_group([Matrix.identity(F3, 2)], cap=cap)


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
            assert [int(x) for x in perm] == matrix_left_perm(g, i)

    def test_large_prime_falls_back_exactly(self):
        # n (p-1)^2 overflows int64: the BFS pass takes _kernels.matmul_mod's
        # one object-dtype product over each chunk's new points, when closing
        # the group and when a copy replays it
        from rep2ldc.fixtures import signed_shift_group

        g = fresh_group(signed_shift_group(4, 2147483647))
        assert len(g) == 64
        for i in g.generators:
            assert [int(x) for x in g.left_perm(i)] == matrix_left_perm(g, i)


TABLE_SPECS = ["signed_shift(4,3)", "dihedral(5,11)", "signed_shift(4,2147483647)",
               "signed_shift(4,0)"]


class TestTableAgainstMatrixArithmetic:
    """Every question the Cayley table answers, against Matrix products,
    inverses and powers looked up in the element index."""

    @staticmethod
    def _sample(g):
        rng = np.random.default_rng(len(g))
        return sorted({0, *g.generators, len(g) - 1, *map(int, rng.integers(0, len(g), 5))})

    @pytest.mark.parametrize("spec", TABLE_SPECS)
    def test_products_inverses_orders(self, spec):
        g = fresh_group(parse_fixture(spec))
        for i in range(len(g)):
            assert g.inv(i) == matrix_inv(g, i)
            assert g.element_order(i) == matrix_order(g, i)
        for i in self._sample(g):
            assert [g.mul(i, j) for j in range(len(g))] == matrix_left_perm(g, i)

    @pytest.mark.parametrize("spec", TABLE_SPECS)
    def test_left_perm_and_cycles(self, spec):
        g = fresh_group(parse_fixture(spec))
        for i in self._sample(g):
            assert g.left_perm(i).tolist() == matrix_left_perm(g, i)
            dec = mult_cycles(g, i)
            assert dec.cycles == matrix_cycles(g, i)
            assert dec.order == matrix_order(g, i)
            assert all(type(s) is int for c in dec.cycles for s in c)

    @pytest.mark.parametrize("spec", TABLE_SPECS)
    def test_no_matrix_products_once_built(self, monkeypatch, spec):
        g = fresh_group(parse_fixture(spec))
        g._cayley()

        def forbidden(*args, **kwargs):
            raise AssertionError("matrix product after the table was built")

        monkeypatch.setattr(Matrix, "__matmul__", forbidden)
        monkeypatch.setattr(Field, "matmul", forbidden)
        monkeypatch.setattr(_kernels, "matmul_mod", forbidden)
        for i in self._sample(g):
            g.left_perm(i)
            g.mul(i, len(g) - 1)
            g.inv(i)
            g.element_order(i)
            mult_cycles(g, i)

    def test_duplicate_and_identity_generators(self):
        rot = Matrix.diag(F11, [9, 5])
        swap = Matrix(F11, [[0, 1], [1, 0]])
        g = close_group([swap, Matrix.identity(F11, 2), rot, swap])
        assert len(g) == 10 and g._cayley()[0].shape == (10, 3)
        for i in range(len(g)):
            assert g.left_perm(i).tolist() == matrix_left_perm(g, i)
            assert g.inv(i) == matrix_inv(g, i)


# SHA-256 of canonical_json(group_export_json(g)): the elements and words of
# the BFS numbering, which every certificate's coordinates follow.
EXPORT_SHA256 = {
    "signed_shift(4,3)": "1d941f2e9c1ad175c997710182c44f1ec18f834273e27bb20ecbbd1fdb61f5f0",
    "dihedral(5,11)": "ec6b7378c36b341a7e506db11be04ad701bff3e183c87b9ceb8fa84b38625c01",
    "symmetric(5,7)": "1b83d5e30ed576618d9e724af6459ec506016d9dd5961026b00a5cca0862403f",
    "signed_shift(6,5)": "f3927a4a4d0c7950ad6d487c555d5391a000db8d6863b841107f0d425a84774e",
    "signed_shift(8,3)": "b0ab79226535c4c77a7a7b28cdbdea4d0c6da289c4734c2670c04a6a93760814",
    "symmetric(7,11)": "5db99b9df88d52d09f1f2914acf2d5dfb4f8429a315d5fe112d6d83fc8889ce8",
    "signed_shift(4,0)": "cde99732469b175272cd1bf23d69c0034351b15bc5b14eea857ead467394c591",
}


@pytest.mark.parametrize("spec", list(EXPORT_SHA256))
def test_numbering_is_pinned(spec):
    text = canonical_json(group_export_json(parse_fixture(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[spec]


@st.composite
def generator_sets(draw):
    """1-3 generators, drawn with repeats from up to 3 invertible n x n
    matrices (n = 2, 3, 4) and I, with a small cap and a BFS chunk size: the
    orbit of the rows of I reaches up to n * |G| points, and n * cap ones
    past the cap."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7), QQ]))
    n = draw(st.sampled_from([2, 3, 4]))
    entry = st.integers(0, field.char - 1) if field.char else st.integers(-1, 1)
    matrix = st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda v: Matrix(field, [v[i:i + n] for i in range(0, n * n, n)])
    ).filter(lambda m: rank(m) == n)
    pool = draw(st.lists(matrix, min_size=1, max_size=3)) + [Matrix.identity(field, n)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return gens, draw(st.integers(1, 200)), draw(st.sampled_from([1024, 7, 1]))


class TestAgainstPerElementBfs:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=generator_sets())
    def test_close_group_matches_reference(self, case):
        gens, cap, chunk = case
        with mock.patch.object(groups, "CLOSURE_CHUNK", chunk):
            try:
                elements, index, words = reference_closure(gens, cap)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    close_group(gens, cap=cap)
                return
            g = close_group(gens, cap=cap)
            assert g.index == index and g.words == tuple(words)
            assert g.elements == tuple(elements)
            right = g._cayley()[0].tolist()
            uniq = list(dict.fromkeys(g.generators))
            assert right == [[matrix_mul(g, s, u) for u in uniq] for s in range(len(g))]
            assert fresh_group(g)._cayley()[0].tolist() == right

    @pytest.mark.parametrize("letters", ["AAB", "AIBA", "IA"])
    @pytest.mark.parametrize("chunk", [groups.CLOSURE_CHUNK, 3])
    def test_repeated_generators(self, monkeypatch, letters, chunk):
        # a word's letter is the generator's first index in the list, not
        # its column in the table of distinct generators
        monkeypatch.setattr(groups, "CLOSURE_CHUNK", chunk)
        mats = {"A": Matrix(F11, [[0, 1], [1, 0]]), "B": Matrix.diag(F11, [9, 5]),
                "I": Matrix.identity(F11, 2)}
        gens = [mats[c] for c in letters]
        elements, index, words = reference_closure(gens, 1000)
        right = [[index[(e @ u).key()] for u in dict.fromkeys(gens)] for e in elements]
        ref = MatrixGroup(F11, 2, elements, index, tuple(index[u.key()] for u in gens),
                          tuple(words))
        g = close_group(gens)
        for group in (g, fresh_group(g), ref):  # the closure and two replays
            assert group.words == tuple(words) and group.index == index
            assert group._cayley()[0].tolist() == right
            assert group_export_json(group) == reference_group_export_json(ref)
        if letters == "AAB":
            assert g.words[1:3] == ((0,), (2,))


class TestOneProductPass:
    """|Omega| x #distinct generators row products, for close_group and for a
    copy's replay, counted as rows out of Field.matmul over both fields;
    Omega, the orbit of the rows of I, is counted as the distinct rows of
    the elements."""

    @pytest.mark.parametrize("spec", ["signed_shift(4,3)", "dihedral(5,11)", "symmetric(5,7)",
                                      "signed_shift(4,0)", "signed_shift(10,3)"])
    def test_each_product_once(self, monkeypatch, spec):
        closed = parse_fixture(spec)
        gens = [closed.matrix(u) for u in closed.generators]
        rows = closed.stacked().reshape(-1, closed.dim)
        orbit = len(set(map(tuple, rows.tolist())))
        count = []
        matmul = Field.matmul

        def counted(field, a, b):
            out = matmul(field, a, b)
            count.append(out.size // closed.dim)  # rows times one generator
            return out

        monkeypatch.setattr(Field, "matmul", counted)
        g = close_group(gens)
        expected = orbit * len(set(g.generators))
        assert sum(count) == expected <= len(g) * len(set(g.generators))
        count.clear()
        fresh_group(g)._cayley()
        assert sum(count) == expected
        if spec == "signed_shift(10,3)":
            assert orbit == 20 and expected == 40 and len(g) == 10_240


class TestOrdersAndRanks:
    @pytest.mark.parametrize("spec", [
        "signed_shift(4,3)",
        "dihedral(5,11)",
        "symmetric(5,7)",
        "dihedral(100,101)",           # words of up to 51 letters, orders up to 100
        "signed_shift(4,2147483647)",  # n (p-1)^2 overflows: object-dtype products
        "signed_shift(4,0)",           # QQ: the same powers and ranks
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
            assert orders[i] == matrix_order(ref, i)
            assert ranks[i] == rank(g.matrix(i) - ident)
            assert ranks[i] == n - nullspace(ref.matrix(i) - ident).dim
        assert [i for i in range(m) if ranks[i] == 0] == [g.identity_pos]
        assert g.orders_and_ranks() is g.orders_and_ranks()
        assert not orders.flags.writeable and not ranks.flags.writeable

    @pytest.mark.parametrize("spec, classes", [
        ("symmetric(5,7)", 7),        # the partitions of 5
        ("dihedral(5,11)", 4),
        ("dihedral(100,101)", 53),
        ("signed_shift(4,0)", 13),    # QQ
    ])
    def test_ranks_once_per_class(self, monkeypatch, spec, classes):
        rows = []

        def counted(field, a):
            rows.append(len(a))
            return ranks(field, a)

        ranks = groups.ranks
        monkeypatch.setattr(groups, "ranks", counted)
        fresh_group(parse_fixture(spec)).orders_and_ranks()
        assert sum(rows) == classes

    def test_no_word_walk_per_element(self, monkeypatch):
        # dihedral(100,101) has words of up to 51 letters and orders up to
        # 100; mul is called only to invert the generators.
        closed = parse_fixture("dihedral(100,101)")
        g, calls = fresh_group(closed), []
        mul = MatrixGroup.mul

        def counted(self, i, j):
            calls.append((i, j))
            return mul(self, i, j)

        monkeypatch.setattr(MatrixGroup, "mul", counted)
        orders, _ = g.orders_and_ranks()
        assert orders.max() == 100
        assert len(calls) <= sum(matrix_order(closed, u) for u in set(g.generators))

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
        monkeypatch.setattr(groups, "row_closure_is_full", None)
        assert burnside_irreducible(g)


class TestSpin:
    """The smallest invariant subspace holding v is the row v closed under
    the transposed generators (g v is the row v g^T)."""

    def test_irreducible_spins_to_full(self, signed_shift_4_3):
        g = signed_shift_4_3
        gens_t = [g.matrix(u).T for u in g.generators]
        assert row_closure(Matrix(F3, [[1, 0, 0, 0]]), gens_t).dim == 4

    def test_invariant_line_under_shifts(self):
        shift = shift_matrix(F3, 4)
        assert row_closure(Matrix(F3, [[1, 1, 1, 1]]), [shift.T]).dim == 1

    def test_spin_is_invariant(self):
        # {(a, b, a, b)}: a proper invariant subspace, so the check has teeth
        g = close_group([shift_matrix(F3, 4)])
        space = row_closure(Matrix(F3, [[1, 0, 1, 0]]), [g.matrix(u).T for u in g.generators])
        assert space.dim == 2
        for pos in range(len(g)):
            images = space.basis @ g.matrix(pos).T
            assert Subspace.from_rows(F3, 4, [*space.basis.a, *images.a]) == space


@st.composite
def closure_cases(draw, field):
    """(generators, v): 1-3 generators of dimension n <= 4 and a nonzero v.

    Generators are random invertible matrices over GF(p), monomial
    matrices (a permutation times nonzero scalars; +-1 over QQ, so the
    group is finite), or block-diagonal and block-triangular matrices of
    those, which give reducible groups."""
    n = draw(st.integers(1, 4))
    entry = st.integers(0, field.char - 1) if field.char else st.integers(-2, 2)
    unit = st.integers(1, field.char - 1) if field.char else st.sampled_from([-1, 1])

    def square(k, kind):
        if kind == "random":
            flat = draw(st.lists(entry, min_size=k * k, max_size=k * k).filter(
                lambda f: rank(Matrix(field, [f[i:i + k] for i in range(0, k * k, k)])) == k))
            return [flat[i:i + k] for i in range(0, k * k, k)]
        perm, scale = draw(st.permutations(range(k))), draw(st.lists(unit, min_size=k, max_size=k))
        return [[scale[i] if j == perm[i] else 0 for j in range(k)] for i in range(k)]

    kinds = ["monomial"] + (["random"] if field.char else [])
    shape = draw(st.sampled_from(["whole", "diagonal", "triangular"] if n > 1 else ["whole"]))
    split = draw(st.integers(1, n - 1)) if shape != "whole" else n
    gens = []
    for _ in range(draw(st.integers(1 if shape != "whole" else 2, 3))):
        kind = draw(st.sampled_from(kinds))
        if shape == "whole":
            rows = square(n, kind)
        else:
            top, bottom = square(split, kind), square(n - split, kind)
            corner = [[draw(entry) if shape == "triangular" and field.char else 0
                       for _ in range(n - split)] for _ in range(split)]
            rows = [t + c for t, c in zip(top, corner)] + [[0] * split + b for b in bottom]
        gens.append(Matrix(field, rows))
    v = draw(st.lists(entry, min_size=n, max_size=n).filter(any))
    return gens, v


def assert_same_basis(new, old) -> None:
    """Two subspaces with the same basis bytes: dtype, shape and the repr
    of every entry."""
    new, old = new.basis.a, old.basis.a
    assert new.dtype == old.dtype and new.shape == old.shape
    assert list(map(repr, new.flat)) == list(map(repr, old.flat))


def assert_closures_match_reference(g, *vs) -> None:
    """row_closure of vec(I) under the generators (Burnside's) and of each v
    under their transposes (a spin) against reference_row_closure, byte for
    byte."""
    gens = [g.matrix(u) for u in g.generators]
    vec_i = Matrix(g.field, np.eye(g.dim, dtype=np.int64).reshape(1, -1))
    cases = [(vec_i, gens)] + [(Matrix(g.field, [v]), [m.T for m in gens]) for v in vs]
    for rows, mats in cases:
        assert_same_basis(row_closure(rows, mats), reference_row_closure(rows, mats))


def assert_closure_matches_oracles(g, v) -> bool:
    """The closure's Burnside verdict is the element scan's, the row
    closure of v under the transposed generators the per-vector spin's
    basis, and both closures the per-round reference's, byte for byte;
    returns the verdict."""
    verdict = burnside_irreducible(g)
    assert verdict == scan_spans_matrix_algebra(g)
    spun = row_closure(Matrix(g.field, [v]), [g.matrix(u).T for u in g.generators])
    assert_same_basis(spun, vector_spin(v, g))
    assert_closures_match_reference(g, v)
    return verdict


FIELDS = pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ],
                                 ids=["GF2", "GF3", "GF5", "QQ"])


class TestClosureAgainstScan:
    @FIELDS
    def test_random_generators(self, field):
        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(case=closure_cases(field))
        def check(case):
            gens, v = case
            try:
                g = close_group(gens, cap=400)
            except CapExceeded:
                return
            assert_closure_matches_oracles(g, v)

        check()

    @FIELDS
    def test_irreducible_and_reducible(self, field):
        """A signed 3-cycle group (GL(2,2) over GF(2)) is irreducible; the
        permutation group S_3, fixing (1, 1, 1), and a block-diagonal group
        are not."""
        if field.char == 2:
            irreducible = [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]
        else:
            irreducible = [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        permutations = [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]
        block = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]
        for gens, expected in [(irreducible, True), (permutations, False), (block, False)]:
            g = close_group([Matrix(field, rows) for rows in gens])
            for v in np.eye(g.dim, dtype=np.int64).tolist() + [[1] * g.dim]:
                assert assert_closure_matches_oracles(g, v) is expected

    @pytest.mark.parametrize("spec", ["signed_shift(4,3)", "dihedral(5,11)", "symmetric(5,7)",
                                      "signed_shift(4,0)"])
    def test_fixtures(self, spec):
        g = fresh_group(parse_fixture(spec))
        assert assert_closure_matches_oracles(g, [1] + [0] * (g.dim - 1)) is True


class TestRowClosureAgainstReference:
    """The incremental closure is the per-round reference's, byte for byte,
    on the fixture ladder over GF(3), GF(11), GF(2^31 - 1) and QQ."""

    @pytest.mark.parametrize("spec", [
        "signed_shift(4,3)", "signed_shift(10,3)", "symmetric(5,3)",
        "signed_shift(6,11)", "symmetric(7,11)", "dihedral(5,11)",
        "signed_shift(8,2147483647)", "symmetric(5,2147483647)",
        "signed_shift(4,0)", "signed_shift(8,0)", "signed_shift(10,0)", "symmetric(6,0)",
    ])
    def test_fixture_ladder(self, spec):
        g = parse_fixture(spec)
        assert_closures_match_reference(g, [1] + [0] * (g.dim - 1), [1] * g.dim,
                                        list(range(1, g.dim + 1)))

    def test_reducible_closures(self):
        """A proper closure: the shift group's spin of (1, 0, 1, 0) and its
        vec(I) closure, the commutative algebra of circulants."""
        g = close_group([shift_matrix(F3, 4)])
        assert_closures_match_reference(g, [1, 0, 1, 0])
        vec_i = Matrix(F3, np.eye(4, dtype=np.int64).reshape(1, -1))
        assert row_closure(vec_i, [g.matrix(u) for u in g.generators]).dim == 4


class TestBurnsideProofModP:
    """Over QQ a full closure mod PROOF_PRIME decides True; otherwise the
    exact closure decides.  Each test counts which closures ran."""

    PROOF = GF(linalg.PROOF_PRIME)

    @pytest.mark.parametrize("spec", ["signed_shift(4,0)", "symmetric(4,0)"])
    def test_proof_decides(self, monkeypatch, spec):
        g = fresh_group(parse_fixture(spec))
        seen = closure_fields(monkeypatch)
        assert burnside_irreducible(g) is True
        assert seen == [self.PROOF]

    def test_failed_proof_falls_back_to_the_exact_closure(self, monkeypatch):
        """S_3's standard representation is reducible mod 3: (1, 1, 1) lies
        in the sum-zero plane.  Over QQ it is irreducible."""
        g = fresh_group(parse_fixture("symmetric(3,0)"))
        monkeypatch.setattr(linalg, "PROOF_PRIME", 3)
        seen = closure_fields(monkeypatch)
        assert burnside_irreducible(g) is True
        assert seen == [GF(3), QQ]

    def test_denominator_divisible_by_p_skips_the_proof(self, monkeypatch):
        """The signed permutations of two coordinates conjugated by
        diag(1, P): the swap becomes [[0, 1/P], [P, 0]]."""
        p = linalg.PROOF_PRIME
        g = close_group([Matrix(QQ, [[0, Fraction(1, p)], [p, 0]]),
                         Matrix(QQ, [[-1, 0], [0, 1]])])
        seen = closure_fields(monkeypatch)
        assert burnside_irreducible(g) is True
        assert seen == [QQ]

    def test_reducible_group_stays_false(self, monkeypatch):
        """The permutation matrices of S_3 fix (1, 1, 1)."""
        g = close_group([Matrix(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                         Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])])
        seen = closure_fields(monkeypatch)
        assert burnside_irreducible(g) is False
        assert seen == [self.PROOF, QQ]

    def test_distinct_generators_only(self, monkeypatch):
        """A repeated generator is spun under once."""
        sig = [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]]
        gens = [Matrix(F3, sig[0]), Matrix(F3, sig[1]), Matrix(F3, sig[0])]
        g = close_group(gens)
        calls = []
        inner = linalg.row_closure_is_full
        monkeypatch.setattr(groups, "row_closure_is_full",
                            lambda rows, mats: calls.append(len(mats)) or inner(rows, mats))
        assert burnside_irreducible(g) is True
        assert calls == [2]


class TestOrdersAndRanksAgainstMatrices:
    @FIELDS
    def test_random_generators(self, field):
        """Orders and ranks equal Matrix arithmetic's for every element, and
        agree on s and u s u^-1 for every generator u."""
        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(case=closure_cases(field))
        def check(case):
            try:
                g = close_group(case[0], cap=400)
            except CapExceeded:
                return
            orders, ranks = g.orders_and_ranks()
            ident = Matrix.identity(g.field, g.dim)
            for s in range(len(g)):
                assert orders[s] == matrix_order(g, s)
                assert ranks[s] == rank(g.matrix(s) - ident)
                for u in g.generators:
                    t = matrix_mul(g, matrix_mul(g, u, s), matrix_inv(g, u))
                    assert (orders[t], ranks[t]) == (orders[s], ranks[s])

        check()


class TestFixedSpace:
    """The fixed space {v : h v = v} of h is nullspace(h - I)."""

    def test_identity_fixes_everything(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert nullspace(g.matrix(0) - Matrix.identity(F3, 4)).dim == 4

    def test_reflection_fixes_hyperplane(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert nullspace(g.matrix(g.generators[0]) - Matrix.identity(F3, 4)).dim == 3

    def test_rotation_fixes_nothing(self, dihedral_5_11):
        g = dihedral_5_11
        rot = g.generators[0]
        diff = g.matrix(rot) - Matrix.identity(F11, 2)
        assert g.element_order(rot) == 5
        assert nullspace(diff).dim == 0 and rank(diff) == 2

    def test_rank_nullity_over_whole_group(self, signed_shift_4_3):
        g = signed_shift_4_3
        ident = Matrix.identity(F3, 4)
        for pos in range(len(g)):
            diff = g.matrix(pos) - ident
            assert nullspace(diff).dim + rank(diff) == 4
