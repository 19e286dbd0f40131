import math

import pytest

from rep2ldc.errors import BadCharacteristic, CapExceeded, CharTwo, NoRootOfUnity
from rep2ldc.fields import GF, is_prime
from rep2ldc.fixtures import (
    _element_of_order,
    dihedral_rep,
    parse_fixture,
    signed_shift_group,
    symmetric_standard_rep,
)
from rep2ldc.groups import burnside_irreducible
from rep2ldc.linalg import Matrix, rank


class TestSignedShift:
    def test_flagship_parameters(self, signed_shift_4_3):
        g = signed_shift_4_3
        assert len(g) == 64
        assert burnside_irreducible(g)
        refl = g.generators[0]
        assert rank(g.matrix(refl) - Matrix.identity(GF(3), 4)) == 1

    def test_small_case(self):
        g = signed_shift_group(2, 5)
        assert len(g) == 8
        assert burnside_irreducible(g)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [3, 5])
    def test_size_formula(self, n, p):
        assert len(signed_shift_group(n, p)) == n * 2**n

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            signed_shift_group(4, 2)

    def test_rational_variant(self, signed_shift_4_q):
        assert len(signed_shift_4_q) == 64
        assert burnside_irreducible(signed_shift_4_q)


class TestDihedral:
    def test_order_ten(self, dihedral_5_11):
        g = dihedral_5_11
        assert len(g) == 10
        assert burnside_irreducible(g)
        assert g.element_order(g.generators[0]) == 5
        swap = g.generators[1]
        assert rank(g.matrix(swap) - Matrix.identity(GF(11), 2)) == 1

    def test_k3_p7(self):
        g = dihedral_rep(3, 7)
        assert len(g) == 6 and burnside_irreducible(g)

    def test_no_root_of_unity(self):
        with pytest.raises(NoRootOfUnity):
            dihedral_rep(5, 7)  # 5 does not divide 6

    @pytest.mark.parametrize("k,p", [(3, 7), (4, 5), (5, 11), (6, 7), (7, 29)])
    def test_sizes(self, k, p):
        g = dihedral_rep(k, p)
        assert len(g) == 2 * k
        assert g.element_order(g.generators[0]) == k


    def test_order_two_root_far_from_one(self):
        # the only residue of order 2 is p - 1, about 2^31 residues past 2
        g = parse_fixture("dihedral(2,2147483647)")
        assert len(g) == 4
        assert g.matrix(g.generators[0]).a.tolist() == [[2147483646, 0], [0, 2147483646]]

    def test_order_one(self):
        assert _element_of_order(1000003, 1) == 1
        assert len(parse_fixture("dihedral(1,1000003)")) == 2


@pytest.mark.parametrize("p", [p for p in range(2, 400) if is_prime(p)])
def test_element_of_order_is_the_smallest(p):
    """Against the order of every residue, found by repeated products."""
    orders = {}
    for a in range(1, p):
        x, order = a, 1
        while x != 1:
            x, order = x * a % p, order + 1
        orders.setdefault(order, a)
    for k in range(1, p):
        if (p - 1) % k == 0:
            assert _element_of_order(p, k) == orders[k]


class TestSymmetric:
    def test_s4_over_gf5(self):
        g = symmetric_standard_rep(4, 5)
        assert len(g) == 24 and g.dim == 3
        assert burnside_irreducible(g)
        tr = g.generators[0]
        assert g.element_order(tr) == 2
        assert rank(g.matrix(tr) - Matrix.identity(GF(5), 3)) == 1

    def test_s3_over_gf2(self):
        # 2 does not divide 3, so the char-2 standard rep is fine
        g = symmetric_standard_rep(3, 2)
        assert len(g) == 6 and g.dim == 2
        assert burnside_irreducible(g)

    def test_bad_characteristic(self):
        with pytest.raises(BadCharacteristic):
            symmetric_standard_rep(5, 5)

    @pytest.mark.parametrize("k,p", [(3, 5), (4, 3), (4, 5)])
    def test_sizes(self, k, p):
        assert len(symmetric_standard_rep(k, p)) == math.factorial(k)


class TestParseFixture:
    def test_round_trip(self):
        assert len(parse_fixture("signed_shift(4,3)")) == 64
        assert len(parse_fixture("dihedral(5, 11)")) == 10
        assert len(parse_fixture("symmetric(3,5)")) == 6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_fixture("mystery(1,2)")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_fixture("dihedral(5)")

    @pytest.mark.parametrize("spec, size", [
        ("signed_shift(4,3)", 64), ("dihedral(5,11)", 10), ("symmetric(5,7)", 120),
    ])
    def test_closed_form_size_against_cap(self, spec, size):
        assert len(parse_fixture(spec, cap=size)) == size
        with pytest.raises(CapExceeded):
            parse_fixture(spec, cap=size - 1)
        with pytest.raises(ValueError, match="cap must be positive"):
            parse_fixture(spec, cap=0)
