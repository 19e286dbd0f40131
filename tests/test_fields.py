"""Field.matmul over QQ and the rational z search against their Fraction
oracles in helpers.py, the count of Fraction products in a QQ BFS pass,
and the characteristic checks of Field."""

import re
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import fraction_matmul, lattice_z
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import construct, groups
from rep2ldc.cli import main
from rep2ldc.construct import choose_z
from rep2ldc.errors import InternalInconsistency, ParseError
from rep2ldc.fields import GF, QQ, Field, scaled_numerators
from rep2ldc.fixtures import signed_shift_group
from rep2ldc.ldc import hadamard
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import dump_json, ldc_to_json

# operand shapes of np.matmul: 1-D, 2-D and broadcast stacks, with b, m, k
# and n each drawn from 0..3 so that zero-size operands come up
SHAPES = [
    lambda b, m, k, n: ((k,), (k,)),
    lambda b, m, k, n: ((k,), (k, n)),
    lambda b, m, k, n: ((m, k), (k,)),
    lambda b, m, k, n: ((m, k), (k, n)),
    lambda b, m, k, n: ((b, m, k), (k, n)),
    lambda b, m, k, n: ((m, k), (b, k, n)),
    lambda b, m, k, n: ((b, m, k), (1, k, n)),
    lambda b, m, k, n: ((b, 1, m, k), (b, k, n)),
]

# 2**40 numerators over denominators up to 12 overflow the int64 guard
# (2**55 per scaled entry), 3 stays well inside it
TOPS = [3, 2**40]


def rationals(top):
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, 12))


def fraction_array(draw, shape, top):
    size = int(np.prod(shape, dtype=np.int64))
    out = np.empty(size, dtype=object)
    out[:] = draw(st.lists(rationals(top), min_size=size, max_size=size))
    return out.reshape(shape)


@st.composite
def operands(draw):
    dims = [draw(st.integers(0, 3)) for _ in range(4)]
    sa, sb = draw(st.sampled_from(SHAPES))(*dims)
    return (fraction_array(draw, sa, draw(st.sampled_from(TOPS))),
            fraction_array(draw, sb, draw(st.sampled_from(TOPS))))


class TestRationalMatmul:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=operands())
    def test_matches_fraction_oracle(self, case):
        a, b = case
        got, want = QQ.matmul(a, b), fraction_matmul(a, b)
        assert np.shape(got) == np.shape(want)
        got_flat = np.ravel(np.asarray(got, dtype=object)).tolist()
        assert got_flat == np.ravel(np.asarray(want, dtype=object)).tolist()
        assert all(type(x) is Fraction for x in got_flat)

    def test_scaled_numerators(self):
        a = np.array([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(5)]],
                     dtype=object)
        assert scaled_numerators(a) == ([3, -4, 0, 30], 6)
        assert scaled_numerators(np.empty((0, 2), dtype=object)) == ([], 1)

    @pytest.mark.parametrize("big", [1, 2**70], ids=["int64", "python ints"])
    def test_integers_keep_equality_and_order(self, big):
        a = QQ.array([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-big, 7), Fraction(1, 2)]])
        ints = QQ.integers(a)
        assert ints.shape == a.shape and ints.dtype == (np.int64 if big == 1 else object)
        flat, ref = ints.ravel().tolist(), a.ravel().tolist()
        assert [[x < y for y in flat] for x in flat] == [[x < y for y in ref] for x in ref]
        assert [[x == y for y in flat] for x in flat] == [[x == y for y in ref] for x in ref]
        residues = GF(5).array([[1, 4], [0, 4]])
        assert GF(5).integers(residues) is residues

    def test_bfs_multiplies_no_fractions(self, monkeypatch):
        """The BFS pass of a QQ closure, all of whose products go through
        Field.matmul, makes no Fraction product or sum; the same counter
        sees the oracle's."""
        gens = [signed_shift_group(4, 0).matrix(g) for g in (1, 2)]
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            original = getattr(Fraction, name)

            def counted(x, y, _original=original, _name=name):
                calls.append(_name)
                return _original(x, y)

            monkeypatch.setattr(Fraction, name, counted)
        _, ids, _ = groups._bfs(QQ, gens, 1000)
        assert len(ids) == 64 and calls == []
        fraction_matmul(gens[0].a, gens[1].a)
        assert calls


@st.composite
def rational_normals(draw):
    k, n = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    normals = fraction_array(draw, (k, n), draw(st.sampled_from([3, 2**61])))
    for row in normals:
        if not any(row):
            row[draw(st.integers(0, n - 1))] = Fraction(1, draw(st.integers(1, 5)))
    return normals


class TestRationalZSearch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(normals=rational_normals(), budget=st.sampled_from([1, 5, 1 << 20]))
    def test_matches_per_candidate_search(self, normals, budget):
        """Same z and mask, whether a box is one product or split in pieces."""
        with mock.patch.object(construct, "LATTICE_PRODUCT_ENTRIES", budget):
            z, mask = choose_z(QQ, normals)
        want_z, want_mask = lattice_z(normals)
        assert z.tolist() == want_z.tolist() and all(type(x) is Fraction for x in z)
        assert mask.tolist() == want_mask.tolist()

    def test_zero_normal_exhausts_the_boxes(self):
        normals = QQ.array([[1, 2], [0, 0]])
        for search in (lambda: choose_z(QQ, normals), lambda: lattice_z(normals)):
            with pytest.raises(InternalInconsistency):
                search()


class TestCharacteristic:
    # 4,299 digits, inside JSON's 4,300-digit int limit, and prime to every
    # trial divisor of is_prime, so only Miller-Rabin could reject it
    HUGE = 10**4298 + 7

    def test_above_machine_word_refused_before_primality(self, tmp_path):
        start = time.process_time()
        with pytest.raises(ValueError, match=r"^field characteristic \d+ exceeds "
                                             r"machine-word limit 2147483647$"):
            Field(self.HUGE)
        with pytest.raises(ParseError, match="^bad field spec"):
            Field.from_json({"char": self.HUGE})
        assert time.process_time() - start < 0.5

        doc = ldc_to_json(hadamard(2, GF(3)))
        doc["field"]["char"] = self.HUGE
        path = str(tmp_path / "code.json")
        dump_json(doc, path)
        start = time.process_time()
        assert main(["verify", "--input", path]) == 1
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("char, message", [
        (4, "field characteristic must be 0 or prime, got 4"),
        (-3, "field characteristic must be 0 or prime, got -3"),
        (2**31 - 3, "field characteristic must be 0 or prime, got 2147483645"),
        (2**31, "field characteristic 2147483648 exceeds machine-word limit 2147483647"),
        (2**61 - 1, "field characteristic 2305843009213693951 exceeds machine-word limit "
                    "2147483647"),
    ])
    def test_messages(self, char, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Field(char)

    def test_largest_prime_accepted(self):
        assert Field(2**31 - 1).char == 2**31 - 1
