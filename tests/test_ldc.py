import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import brute_max_matching, brute_rank, reference_verify

from rep2ldc import _kernels, ldc, linalg
from rep2ldc.bounds import entropy_audit
from rep2ldc.construct import build_special_2ldc
from rep2ldc.fields import GF, QQ
from rep2ldc.ldc import (
    LdcInstance,
    QMatching,
    achieved_delta,
    greedy_matching_general,
    hadamard,
    max_special_matching,
    verify,
)
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import ldc_from_json, ldc_to_json

F2, F3, F5 = GF(2), GF(3), GF(5)


class TestHadamard:
    @pytest.mark.parametrize("field", [F2, F3, F5, QQ])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_verifies_with_half_density(self, n, field):
        inst = hadamard(n, field)
        assert inst.m == 2**n and inst.t == n
        report = verify(inst)
        assert report.passed
        assert achieved_delta(inst) == Fraction(1, 2)

    def test_n1_single_pair(self):
        inst = hadamard(1, F2)
        assert inst.vectors.to_lists() == [[0], [1]]
        assert inst.matchings[0].sets == ((0, 1),)

    def test_gf5_differences_are_unit_vectors(self):
        inst = hadamard(4, F5)
        for i, mi in enumerate(inst.matchings):
            for j1, j2 in mi.sets:
                d = (inst.vectors.row(j2) - inst.vectors.row(j1)) % 5
                assert d[i] != 0 and np.count_nonzero(d) == 1

    def test_special_implies_general(self):
        inst = hadamard(3, F3)
        assert verify(inst.as_general()).passed


class TestVerify:
    def test_achieved_delta_hadamard4(self):
        inst = hadamard(4, F2)
        assert inst.matching_total() == 32
        assert achieved_delta(inst) == Fraction(32, 64)

    def test_empty_matchings(self):
        inst = LdcInstance(
            field=F2, t=2, m=2,
            vectors=Matrix(F2, [[0, 0], [1, 1]]),
            matchings=(QMatching(2, ()), QMatching(2, ())),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        assert achieved_delta(inst) == 0
        assert verify(inst).passed

    def test_span_violation_pinpointed(self):
        # pair differing in two coordinates cannot span e_i as a difference
        inst = LdcInstance(
            field=F3, t=2, m=4,
            vectors=Matrix(F3, [[0, 0], [1, 1], [0, 1], [1, 0]]),
            matchings=(QMatching(2, ((0, 1),)), QMatching(2, ((2, 3),))),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        report = verify(inst)
        assert not report.passed
        assert report.coordinates[0].span_failures == ((0, 1),)
        assert report.coordinates[1].span_failures == ((2, 3),)

    def test_overlapping_pair_reported(self):
        # QMatching rejects overlaps at construction; verify must still
        # report them for instances smuggled in from outside
        bad = object.__new__(QMatching)
        object.__setattr__(bad, "q", 2)
        object.__setattr__(bad, "sets", ((0, 1), (1, 2)))
        inst = LdcInstance(
            field=F2, t=1, m=4,
            vectors=Matrix(F2, [[0], [1], [0], [1]]),
            matchings=(bad,),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        report = verify(inst)
        assert not report.passed
        assert any("overlaps" in s for s in report.coordinates[0].structure_failures)

    def test_claimed_delta_enforced(self):
        inst = hadamard(2, F2)
        stingy = LdcInstance(
            field=F2, t=2, m=4, vectors=inst.vectors,
            matchings=(inst.matchings[0], QMatching(2, ())),
            form="special2", q=2, claimed_delta=Fraction(1, 2),
        )
        report = verify(stingy)
        assert not report.passed and not report.delta_ok

    def test_delta_at_most_one_over_q(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, t = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            vectors = Matrix(F3, rng.integers(0, 3, size=(m, t)).tolist())
            matchings = tuple(
                max_special_matching(vectors, i) for i in range(t)
            )
            inst = LdcInstance(
                field=F3, t=t, m=m, vectors=vectors, matchings=matchings,
                form="special2", q=2, claimed_delta=Fraction(0),
            )
            assert 0 <= achieved_delta(inst) <= Fraction(1, 2)


class TestMaxSpecialMatching:
    def test_hadamard_perfect(self):
        inst = hadamard(4, F2)
        for i in range(4):
            assert max_special_matching(inst.vectors, i).size == 8

    def test_identical_vectors_empty(self):
        vectors = Matrix(F2, [[1, 0], [1, 0], [1, 0]])
        assert max_special_matching(vectors, 0).size == 0

    def test_three_element_bucket(self):
        # i-values {0, 0, 1}: complete multipartite min(1, 3-2) = 1
        vectors = Matrix(F2, [[0, 1], [0, 1], [1, 1]])
        assert max_special_matching(vectors, 0).size == 1

    def test_pairs_are_valid(self):
        rng = np.random.default_rng(5)
        vectors = Matrix(F3, rng.integers(0, 3, size=(9, 3)).tolist())
        for i in range(3):
            mm = max_special_matching(vectors, i)
            for j1, j2 in mm.sets:
                d = (vectors.row(j1) - vectors.row(j2)) % 3
                assert d[i] != 0 and np.count_nonzero(d) == 1

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        t = int(rng.integers(1, 4))
        p = int(rng.choice([2, 3]))
        field = GF(p)
        vectors = Matrix(field, rng.integers(0, p, size=(m, t)).tolist())
        for i in range(t):
            def edge(j1, j2, _i=i):
                d = (vectors.row(j1) - vectors.row(j2)) % p
                return d[_i] != 0 and np.count_nonzero(d) == 1

            assert max_special_matching(vectors, i).size == brute_max_matching(edge, m)


class TestGreedyMatching:
    def test_disjoint_candidates_all_kept(self):
        vectors = hadamard(3, F2).vectors
        cands = [(0, 1), (2, 3), (4, 5)]
        got = greedy_matching_general(vectors, 0, 2, cands)
        assert got.sets == ((0, 1), (2, 3), (4, 5))

    def test_empty(self):
        vectors = hadamard(2, F2).vectors
        assert greedy_matching_general(vectors, 0, 2, []).size == 0

    def test_quadratic_loss_bound(self):
        # 12 candidate 3-sets over [12], each index in exactly 3 of them:
        # the cyclic windows {i, i+1, i+2} mod 12
        cands = [tuple(sorted((i, (i + 1) % 12, (i + 2) % 12))) for i in range(12)]
        uses = {}
        for c in cands:
            for x in c:
                uses[x] = uses.get(x, 0) + 1
        assert max(uses.values()) == 3
        kept = greedy_matching_general(
            Matrix(F2, [[0]] * 12), 0, 3, cands, validate=False
        )
        assert kept.size >= 2  # ceil(12 / 3^2)

    def test_span_validation(self):
        inst = hadamard(2, F2)
        with pytest.raises(ValueError):
            greedy_matching_general(inst.vectors, 0, 2, [(0, 0b10)])  # differ at i=1
        ok = greedy_matching_general(inst.vectors, 0, 2, [(0, 1)])
        assert ok.size == 1


class TestQMatchingInvariants:
    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            QMatching(2, ((0, 1, 2),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            QMatching(2, ((0, 1), (1, 2)))

    def test_sets_canonicalized(self):
        m = QMatching(2, ((3, 0), (2, 5)))
        assert m.sets == ((0, 3), (2, 5))


PARITY_PRIMES = [2, 3, 5, 11, 2**31 - 1]


def _random_instance(rng, p, form):
    """Random GF(p) instance with vectors over {0, 1, -1}, so that sets
    both pass and fail the span test, then up to three entries tampered
    to arbitrary residues."""
    m, t = int(rng.integers(6, 25)), int(rng.integers(1, 5))
    q = 2 if form == "special2" else int(rng.integers(2, 5))
    rows = rng.integers(-1, 2, size=(m, t)) % p
    for _ in range(int(rng.integers(0, 4))):
        rows[rng.integers(m), rng.integers(t)] = rng.integers(0, p)
    matchings = []
    for _ in range(t):
        perm = rng.permutation(m).tolist()
        k = int(rng.integers(0, m // q + 1))
        matchings.append(QMatching(q, tuple(tuple(perm[q * a:q * a + q]) for a in range(k))))
    field = GF(p)
    return LdcInstance(
        field=field, t=t, m=m, vectors=Matrix(field, rows.tolist()),
        matchings=tuple(matchings), form=form, q=q, claimed_delta=Fraction(0),
    )


def _assert_matches_reference(inst):
    report = verify(inst)
    want = reference_verify(
        inst.vectors.a.tolist(), inst.form, inst.q, inst.m,
        [mi.sets for mi in inst.matchings], inst.field.char,
    )
    got = [(c.span_failures, c.structure_failures) for c in report.coordinates]
    assert got == want
    return report


def _smuggle(inst, i, sets):
    """inst with matching i replaced by `sets`, bypassing QMatching's checks."""
    bad = object.__new__(QMatching)
    object.__setattr__(bad, "q", inst.q)
    object.__setattr__(bad, "sets", tuple(sets))
    matchings = list(inst.matchings)
    matchings[i] = bad
    out = object.__new__(LdcInstance)
    for name in ("field", "t", "m", "vectors", "form", "q", "claimed_delta"):
        object.__setattr__(out, name, getattr(inst, name))
    object.__setattr__(out, "matchings", tuple(matchings))
    return out


class TestArrayPathParity:
    """The GF(p) array path of verify gives the set-by-set reference's
    span failures and structure messages, in the same order."""

    @pytest.mark.parametrize("form", ["special2", "general"])
    @pytest.mark.parametrize("p", PARITY_PRIMES)
    def test_span_failures_match_reference(self, p, form):
        rng = np.random.default_rng([p % 1000, len(form)])
        passed = failed = 0
        for _ in range(25):
            report = _assert_matches_reference(_random_instance(rng, p, form))
            for c in report.coordinates:
                failed += len(c.span_failures)
                passed += c.matching_size - len(c.span_failures)
        assert passed and failed

    @pytest.mark.parametrize("form", ["special2", "general"])
    @pytest.mark.parametrize("p", PARITY_PRIMES)
    def test_structure_messages_match_reference(self, p, form):
        rng = np.random.default_rng([p % 1000, len(form), 1])
        for _ in range(10):
            inst = _random_instance(rng, p, form)
            i = int(rng.integers(inst.t))
            sets = list(inst.matchings[i].sets)
            m, q = inst.m, inst.q
            first = sets[0] if sets else tuple(range(q))
            sets += [
                first,                           # overlaps an earlier set
                (m,) + tuple(range(1, q)),       # past the end
                (-1,) + tuple(range(m - q + 1, m)),
                tuple(range(q + 1)),             # too many members
                (0,) * q,                        # repeated member
                (m + 1,) * q,                    # repeated and outside
                (),
            ]
            report = _assert_matches_reference(_smuggle(inst, i, sets))
            assert not report.passed

    @pytest.mark.parametrize("seed", range(4))
    def test_rational_general_span_failures_match_brute_rank(self, seed):
        """Over QQ, a general-form set fails iff appending e_i raises the
        rank, by helpers.brute_rank; vectors have tampered entries and the
        matching smuggled extra sets."""
        rng = np.random.default_rng([seed, 0])
        values = [Fraction(1), Fraction(-1), Fraction(0), Fraction(2), Fraction(1, 2)]
        m, t, q = 10, 3, int(rng.integers(2, 4))
        rows = [[values[k] for k in rng.integers(0, 3, size=t)] for _ in range(m)]
        for _ in range(3):
            rows[int(rng.integers(m))][int(rng.integers(t))] = values[int(rng.integers(5))]
        sets = [tuple(s) for s in rng.permutation(m)[: q * (m // q)].reshape(-1, q).tolist()]
        matchings = tuple(QMatching(q, sets) for _ in range(t))
        inst = LdcInstance(field=QQ, t=t, m=m, vectors=Matrix(QQ, rows), matchings=matchings,
                           form="general", q=q, claimed_delta=Fraction(0))
        i = int(rng.integers(t))
        inst = _smuggle(inst, i, sets + [sets[0], tuple(range(m - q, m))])
        failed = 0
        for c, mi in zip(verify(inst).coordinates, inst.matchings):
            e = [int(k == c.coordinate) for k in range(t)]
            want = tuple(
                s for s in mi.sets
                if brute_rank([rows[j] for j in s] + [e], 0) != brute_rank([rows[j] for j in s], 0)
            )
            assert c.span_failures == want
            failed += len(want)
        assert 0 < failed < sum(mi.size for mi in inst.matchings)

    def test_known_structure_texts(self):
        inst = _smuggle(hadamard(2, F3), 0, [(0, 1), (1, 2, 3), (2, 2), (4, 9), (1, 3)])
        report = verify(inst)
        assert report.coordinates[0].structure_failures == (
            "set (1, 2, 3) does not have 2 distinct members",
            "set (1, 2, 3) overlaps an earlier set",
            "set (2, 2) does not have 2 distinct members",
            "set (2, 2) overlaps an earlier set",
            "set (4, 9) indexes outside the code",
            "set (1, 3) overlaps an earlier set",
        )
        assert report.coordinates[0].span_failures == ((1, 3),)


@pytest.mark.parametrize("form", ["special2", "general"])
def test_prime_field_verify_does_no_elimination(form, monkeypatch):
    """verify over GF(p) decides every set from arrays and batched ranks,
    never through a single-matrix RREF."""
    def boom(*args, **kwargs):
        raise AssertionError("per-set elimination on the GF(p) path")

    for name in ("rank", "rref", "_rref_fraction"):
        monkeypatch.setattr(linalg, name, boom)
    monkeypatch.setattr(_kernels, "rref_mod", boom)
    inst = hadamard(4, F5)
    report = verify(inst if form == "special2" else inst.as_general())
    assert report.passed and report.sigma == 32


class TestQMatchingArrays:
    def test_array_input_sorted_to_int_tuples(self):
        got = QMatching(2, np.array([[3, 0], [2, 5]]))
        assert got.sets == ((0, 3), (2, 5))
        assert all(type(j) is int for s in got.sets for j in s)

    @pytest.mark.parametrize("sets, message", [
        ([[0, 1], [1, 2]], "set (1, 2) overlaps an earlier set"),
        ([[0, 0], [1, 2]], "set (0, 0) does not have exactly q=2 members"),
    ])
    def test_array_input_errors(self, sets, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QMatching(2, np.array(sets))

    def test_first_bad_set_named(self):
        with pytest.raises(ValueError, match=r"^set \(4, 5, 6\) does not have exactly q=2"):
            QMatching(2, ((0, 1), (4, 5, 6), (1, 2)))
        with pytest.raises(ValueError, match=r"^set \(1, 2\) overlaps an earlier set$"):
            QMatching(2, ((0, 1), (1, 2), (3, 3)))

    def test_out_of_range_named(self):
        with pytest.raises(ValueError, match=r"^index out of range in \(1, 4\)$"):
            LdcInstance(
                field=F2, t=1, m=4, vectors=Matrix(F2, [[0], [1], [0], [1]]),
                matchings=(QMatching(2, ((0, 2), (1, 4))),),
                form="special2", q=2, claimed_delta=Fraction(0),
            )

    def test_members_array_kept(self):
        got = QMatching(2, ((3, 0), (2, 5)))
        assert got.members.dtype == np.int64 and not got.members.flags.writeable
        assert got.members.tolist() == [[0, 3], [2, 5]]
        assert QMatching(3, ()).members.shape == (0, 3)

    def test_matchings_indexed_once(self, signed_shift_4_3):
        """Reading a code (QMatching, then LdcInstance's range check) and
        auditing it build each matching's index arrays once."""
        cert = build_special_2ldc(signed_shift_4_3, signed_shift_4_3.generators[0])
        doc = ldc_to_json(cert.code)
        with mock.patch.object(ldc, "_index_arrays", wraps=ldc._index_arrays) as spy:
            entropy_audit(ldc_from_json(doc))
        assert spy.call_count == cert.code.t
