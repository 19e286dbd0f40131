import dataclasses
import json
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    brute_max_matching,
    brute_rank,
    reference_cycle_kept_s,
    reference_entropy_audit,
    reference_first_fit,
    reference_greedy_kept_s,
    reference_match_entropy_check,
    reference_max_special_matching,
    reference_set_faults,
    reference_verify,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import _kernels, ldc, linalg
from rep2ldc.bounds import entropy_audit, match_entropy_check
from rep2ldc.certcheck import cert_from_json, verify_cert
from rep2ldc.construct import _cycle_kept_s, _greedy_kept_s, build_q_ldc, build_special_2ldc
from rep2ldc.fields import GF, QQ
from rep2ldc.ldc import (
    LdcInstance,
    QMatching,
    hadamard,
    max_special_matching,
    verify,
)
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import canonical_json, cert_to_json

F2, F3, F5 = GF(2), GF(3), GF(5)


class TestHadamard:
    @pytest.mark.parametrize("field", [F2, F3, F5, QQ])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_verifies_with_half_density(self, n, field):
        inst = hadamard(n, field)
        assert inst.m == 2**n and inst.t == n
        report = verify(inst)
        assert report.passed
        assert report.achieved_delta == Fraction(1, 2)

    def test_n1_single_pair(self):
        inst = hadamard(1, F2)
        assert inst.vectors.a.tolist() == [[0], [1]]
        assert inst.matchings[0].sets == ((0, 1),)

    def test_gf5_differences_are_unit_vectors(self):
        inst = hadamard(4, F5)
        for i, mi in enumerate(inst.matchings):
            for j1, j2 in mi.sets:
                d = (inst.vectors.row(j2) - inst.vectors.row(j1)) % 5
                assert d[i] != 0 and np.count_nonzero(d) == 1

    def test_special_implies_general(self):
        inst = hadamard(3, F3)
        assert verify(dataclasses.replace(inst, form="general")).passed


class TestVerify:
    def test_achieved_delta_hadamard4(self):
        inst = hadamard(4, F2)
        assert inst.matching_total() == 32
        assert verify(inst).achieved_delta == Fraction(32, 64)

    def test_empty_matchings(self):
        inst = LdcInstance(
            field=F2, t=2, m=2,
            vectors=Matrix(F2, [[0, 0], [1, 1]]),
            matchings=(QMatching(2, ()), QMatching(2, ())),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        report = verify(inst)
        assert report.achieved_delta == 0 and report.passed

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
        """An overlapping pair is refused where the matching is made, by
        name; a matching made without the constructor holds no members,
        so no instance takes it."""
        with pytest.raises(ValueError, match=r"^set \(1, 2\) overlaps an earlier set$"):
            QMatching(2, ((0, 1), (1, 2)))
        with pytest.raises(AttributeError):
            LdcInstance(
                field=F2, t=1, m=4,
                vectors=Matrix(F2, [[0], [1], [0], [1]]),
                matchings=(object.__new__(QMatching),),
                form="special2", q=2, claimed_delta=Fraction(0),
            )

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
            assert 0 <= verify(inst).achieved_delta <= Fraction(1, 2)


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


class TestMaxSpecialMatchingMatchesTheHeapWalk:
    """max_special_matching gives the former heap walk's pairs, pair for
    pair."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_small_codes(self, data):
        field = data.draw(st.sampled_from([F2, F3, GF(7), QQ]))
        values = (st.fractions(-2, 2, max_denominator=3) if field is QQ
                  else st.integers(0, field.char - 1))
        t = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(st.lists(values, min_size=t, max_size=t),
                                  min_size=1, max_size=60))
        vectors = Matrix(field, rows)
        i = data.draw(st.integers(0, t - 1))
        want = reference_max_special_matching(vectors, i)
        assert max_special_matching(vectors, i).sets == want

    @pytest.mark.parametrize("p, m, t, spread", [
        (3, 3000, 2, 3),       # about 1000 rows per bucket in three parts
        (7, 3000, 4, 7),       # 343 buckets of about 9 rows
        (101, 3000, 2, 101),   # buckets of up to 101 parts
        (101, 3000, 2, 40),
        (5, 1000, 3, 2),       # two values per coordinate only
        (2**31 - 1, 2000, 3, 4),  # values far apart
        (0, 400, 2, 5),        # QQ
    ])
    def test_larger_codes(self, p, m, t, spread):
        rng = np.random.default_rng([p, m, t, spread])
        if p:  # spread values, spaced across GF(p)
            values = rng.integers(0, spread, size=(m, t)) * (p // spread)
            vectors = Matrix(GF(p), values.tolist())
        else:
            num, den = rng.integers(-spread, spread + 1, size=(2, m, t))
            rows = [[Fraction(int(a), int(b) or 1) for a, b in zip(r, s)] for r, s in zip(num, den)]
            vectors = Matrix(QQ, rows)
        for i in range(t):
            want = reference_max_special_matching(vectors, i)
            assert max_special_matching(vectors, i).sets == want
            assert max_special_matching(vectors, i).members.dtype == np.int64

    def test_bad_coordinate_refused(self):
        """A coordinate outside [0, t), or one that is not an integer, is
        refused rather than read as an empty matching or an IndexError."""
        vectors = Matrix(F3, [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert max_special_matching(vectors, 0).sets == ((0, 1), (2, 3))
        assert max_special_matching(vectors, np.int64(1)).sets == ((0, 2), (1, 3))
        for i, message in [(-1, "coordinate -1 outside [0, 2)"),
                           (-2, "coordinate -2 outside [0, 2)"),
                           (2, "coordinate 2 outside [0, 2)"),
                           (5, "coordinate 5 outside [0, 2)"),
                           (1.0, "i must be an integer, got 1.0"),
                           (True, "i must be an integer, got True")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                max_special_matching(vectors, i)

    def test_no_pairs(self):
        got = max_special_matching(Matrix(F2, [[1, 0], [1, 0]]), 0)
        assert got.sets == () and got.members.shape == (0, 2)
        no_rows = Matrix.from_array(F2, np.zeros((0, 2), dtype=np.int64))
        assert max_special_matching(no_rows, 1).sets == ()


class TestGreedyMatching:
    """ldc._first_fit, the first fit of construct's general pre-filter."""

    def test_disjoint_candidates_all_kept(self):
        assert ldc._first_fit([(0, 1), (2, 3), (4, 5)]) == [0, 1, 2]

    def test_empty(self):
        assert ldc._first_fit([]) == []

    def test_quadratic_loss_bound(self):
        # 12 candidate 3-sets over [12], each index in exactly 3 of them:
        # the cyclic windows {i, i+1, i+2} mod 12
        cands = [tuple(sorted((i, (i + 1) % 12, (i + 2) % 12))) for i in range(12)]
        uses = {}
        for c in cands:
            for x in c:
                uses[x] = uses.get(x, 0) + 1
        assert max(uses.values()) == 3
        assert len(ldc._first_fit(cands)) >= 2  # ceil(12 / 3^2)


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
    want = reference_verify(inst.vectors.a.tolist(), inst.form,
                            [mi.sets for mi in inst.matchings], inst.field.char)
    assert [c.span_failures for c in report.coordinates] == want
    return report


def _replaced(inst, i, sets):
    """inst with matching i made from `sets`, through QMatching and
    LdcInstance."""
    matchings = list(inst.matchings)
    matchings[i] = QMatching(inst.q, sets)
    return dataclasses.replace(inst, matchings=tuple(matchings))


def _refusal(sets, q, m):
    """The message QMatching (`_qmatching_oracle`) or else LdcInstance
    refuses `sets` with, by the reference walk, or None: LdcInstance names
    the first set with a member outside [0, m), sorted."""
    verdict, detail = _qmatching_oracle(sets, q)
    if verdict != "ok":
        return detail
    outside = [s for s, (_, _, out) in zip(sets, reference_set_faults(sets, q, m)) if out]
    return f"index out of range in {tuple(sorted(outside[0]))}" if outside else None


class TestArrayPathParity:
    """The array path of verify gives the set-by-set reference's span
    failures, in the same order; a faulty set is refused where the
    matching or the instance is made, with the reference's first fault."""

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
        refused = 0
        for _ in range(10):
            inst = _random_instance(rng, p, form)
            i = int(rng.integers(inst.t))
            sets = list(inst.matchings[i].sets)
            m, q = inst.m, inst.q
            first = sets[0] if sets else tuple(range(q))
            for extra in [
                first,                           # overlaps an earlier set
                (m,) + tuple(range(1, q)),       # past the end
                (-1,) + tuple(range(m - q + 1, m)),
                tuple(range(q + 1)),             # too many members
                (0,) * q,                        # repeated member
                (m + 1,) * q,                    # repeated and outside
                (),
            ]:
                want = _refusal(sets + [extra], q, m)
                if want is None:  # `first` on an empty family is a valid set
                    _assert_matches_reference(_replaced(inst, i, sets + [extra]))
                    continue
                with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                    _replaced(inst, i, sets + [extra])
                refused += 1
        assert refused >= 60

    @pytest.mark.parametrize("seed", range(4))
    def test_rational_general_span_failures_match_brute_rank(self, seed):
        """Over QQ, a general-form set fails iff appending e_i raises the
        rank, by helpers.brute_rank; vectors have tampered entries."""
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
        """Sizes and overlaps are named by QMatching, the first faulty set
        in set order; the range by LdcInstance.  The report of a made code
        keeps its empty structure keys."""
        for sets, message in [
            ([(0, 1), (1, 2, 3), (2, 2), (9, 4), (1, 3)],
             "set (1, 2, 3) does not have exactly q=2 members"),
            ([(0, 1), (2, 2), (9, 4), (1, 3)], "set (2, 2) does not have exactly q=2 members"),
            ([(0, 1), (9, 4), (1, 3)], "set (1, 3) overlaps an earlier set"),
            ([(0, 1), (9, 4)], "index out of range in (4, 9)"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _replaced(hadamard(2, F3), 0, sets)
        report = verify(_replaced(hadamard(2, F3), 0, [(2, 0), (1, 3)]))
        assert report.coordinates[0].span_failures == ((0, 2), (1, 3))
        doc = report.to_json()
        assert doc["structure_errors"] == [] and not doc["passed"]
        assert [c["structure_failures"] for c in doc["coordinates"]] == [[], []]


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
    report = verify(dataclasses.replace(inst, form=form))
    assert report.passed and report.sigma == 32


class TestQMatchingArrays:
    def test_array_input_sorted_to_int_tuples(self):
        for dtype in (np.int64, np.int8, np.uint32, np.uint64, object):
            got = QMatching(2, np.array([[3, 0], [2, 5]], dtype=dtype))
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

    def test_sets_built_from_members_when_read(self):
        """A matching holds only q and its members array; `sets` and `size`
        are read off it, and ==, hash and repr go by that content."""
        got = QMatching(2, np.array([[3, 0], [2, 5]]))
        assert got.size == 2 and got.sets == ((0, 3), (2, 5))
        same = QMatching(2, ((0, 3), (5, 2)))
        assert same == got and hash(same) == hash(got) and same is not got
        assert repr(same) == "QMatching(q=2, sets=((0, 3), (2, 5)))"
        assert got != QMatching(2, ((0, 3),)) and got != ((0, 3), (2, 5))
        assert QMatching(3, ()) != QMatching(2, ()) and QMatching(2, ()).size == 0
        assert len({got, same, QMatching(2, ()), QMatching(3, ())}) == 3

    def test_immutable(self):
        got = QMatching(2, ((0, 1),))
        for name, value in (("q", 3), ("members", np.zeros((0, 2), dtype=np.int64)),
                            ("sets", ()), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(got, name, value)
        with pytest.raises(AttributeError):
            del got.q
        with pytest.raises(ValueError):
            got.members[0, 0] = 5
        assert got.q == 2 and got.sets == ((0, 1),) and not hasattr(got, "__dict__")

    def test_made_without_the_constructor_fails_on_first_use(self):
        """A matching made with object.__new__ holds no members and takes no
        sets, so every reader fails on it rather than verify it."""
        bad = object.__new__(QMatching)
        with pytest.raises(AttributeError):
            object.__setattr__(bad, "sets", ((0, 1),))
        with pytest.raises(AttributeError):
            bad.size
        inst = hadamard(2, F3)
        object.__setattr__(inst, "matchings", (bad,) + inst.matchings[1:])
        for read in (lambda: verify(inst), lambda: entropy_audit(inst), inst.matching_total):
            with pytest.raises(AttributeError):
                read()

    def test_members_array_kept(self):
        got = QMatching(2, ((3, 0), (2, 5)))
        assert got.members.dtype == np.int64 and not got.members.flags.writeable
        assert got.members.tolist() == [[0, 3], [2, 5]]
        assert QMatching(3, ()).members.shape == (0, 3)


class TestStrictMembers:
    """The set rule takes int and numpy integer members only, from a
    sequence or from an array of any dtype; anything else is refused by
    name, not truncated or parsed."""

    @pytest.mark.parametrize("sets, named", [
        (((0, 1.5),), "1.5"),
        ((("0", 1),), "'0'"),
        (((True, 2),), "True"),
        (((0, 1), (2, Fraction(3))), "Fraction(3, 1)"),
        (((0, 1), (2.0, "x")), "2.0"),
    ])
    def test_qmatching_refuses(self, sets, named):
        with pytest.raises(ValueError, match=f"^set member {re.escape(named)} is not an integer$"):
            QMatching(2, sets)

    @pytest.mark.parametrize("sets", [
        np.array([[0, 1.9], [2.2, 3]]),
        np.array([["0", "1"]]),
        np.array([[True, False]]),
        np.array([[0.0, 1.0]], dtype=object),
    ], ids=["float", "str", "bool", "object-float"])
    def test_arrays_refused_as_sequences(self, sets):
        """An array that is not of a machine integer type goes through the
        sequence checks: its first member is named, not cast."""
        named = re.escape(repr(sets.flat[0]))
        with pytest.raises(ValueError, match=f"^set member {named} is not an integer$"):
            QMatching(2, sets)

    def test_uint64_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="^set member does not fit in int64"):
            QMatching(2, np.array([[0, 2**63]], dtype=np.uint64))

    def test_match_entropy_check_refuses(self):
        with pytest.raises(ValueError, match=r"^set member 1\.5 is not an integer$"):
            match_entropy_check(4, [(0, 1.5)], [0, 1, 2, 3])

    def test_numpy_integers_accepted(self):
        got = QMatching(2, ((np.int32(3), np.uint8(0)), (2, np.int64(5))))
        assert got.sets == ((0, 3), (2, 5))
        assert all(type(j) is int for s in got.sets for j in s)


class TestRuleReadsMembers:
    def test_verify_and_audit_read_the_members_array(self, signed_shift_4_3, monkeypatch):
        """verify and entropy_audit read each matching's members array and
        never run the rule again; their reports equal those of the code
        made again from the matchings' sets."""
        code = build_special_2ldc(signed_shift_4_3, signed_shift_4_3.generators[0]).code
        again = dataclasses.replace(
            code, matchings=tuple(QMatching(2, mi.sets) for mi in code.matchings))
        want = verify(again), entropy_audit(again)

        def refuse(*args):
            raise AssertionError("the set rule ran again")

        monkeypatch.setattr(ldc, "_set_faults", refuse)
        assert (verify(code), entropy_audit(code)) == want


# members around [0, m) for m up to 6, and sets of 0..4 of them: repeats,
# overlaps, negative and too-large members and ragged sets all come up
FAMILY = st.lists(st.lists(st.integers(-2, 8), max_size=4).map(tuple), max_size=6)


def _outcome(call):
    """(exception class name, message) of call(), or ("ok", result)."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc).__name__, str(exc)


def _qmatching_oracle(sets, q):
    """QMatching's verdict read off the reference walk: the first set with
    a size fault or an overlap, size before overlap."""
    if q < 1:
        return "ValueError", f"matching arity q={q} is below 1"
    for s, (size, overlap, _) in zip(sets, reference_set_faults(sets, q)):
        if size:
            return "ValueError", f"set {s} does not have exactly q={q} members"
        if overlap:
            return "ValueError", f"set {s} overlaps an earlier set"
    return "ok", tuple(tuple(sorted(s)) for s in sets)


class TestSetFamilyRule:
    """ldc._set_faults and ldc._first_fit against the walks they replaced
    (helpers.py), read through every site that takes its verdict from them."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sets=FAMILY, q=st.integers(1, 3), m=st.one_of(st.none(), st.integers(0, 6)))
    def test_faults_match_the_walk(self, sets, q, m):
        faults = ldc._set_faults(sets, q, m)
        got = list(zip(faults.bad_size.tolist(), faults.overlap.tolist(),
                       faults.outside.tolist()))
        assert got == reference_set_faults(sets, q, m)
        assert faults.sizes.tolist() == [len(s) for s in sets]
        assert faults.members.tolist() == [j for s in sets for j in s]
        if sets and len({len(s) for s in sets}) == 1:
            as_array = ldc._set_faults(np.array(sets, dtype=np.int64), q, m)
            assert all(np.array_equal(a, b) for a, b in zip(as_array, faults))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sets=FAMILY, q=st.integers(0, 3))
    def test_qmatching(self, sets, q):
        got = _outcome(lambda: QMatching(q, sets).sets)
        assert got == _qmatching_oracle(sets, q)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sets=FAMILY, q=st.integers(2, 3), form=st.sampled_from(["special2", "general"]))
    def test_verify_structure(self, sets, q, form):
        """Any family is refused where it is made, with the reference
        walk's first fault, or verify gives the reference's span failures."""
        q = 2 if form == "special2" else q
        inst = hadamard(3, F3)
        if form == "general":
            inst = dataclasses.replace(inst, form=form, q=q, matchings=(QMatching(q, ()),) * 3)
        got = _outcome(lambda: [c.span_failures
                                for c in verify(_replaced(inst, 1, sets)).coordinates])
        want = _refusal(sets, q, inst.m)
        if want is None:
            families = [mi.sets for mi in inst.matchings]
            families[1] = tuple(tuple(sorted(s)) for s in sets)
            want = ("ok", reference_verify(inst.vectors.a.tolist(), form, families, 3))
        else:
            want = ("ValueError", want)
        assert got == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sets=FAMILY, m=st.integers(1, 6))
    def test_ldc_instance_range(self, sets, m):
        pairs = [s for s, (size, overlap, _) in zip(sets, reference_set_faults(sets, 2))
                 if not size and not overlap]
        bad = [s for s, f in zip(pairs, reference_set_faults(pairs, 2, m)) if f[2]]
        got = _outcome(lambda: LdcInstance(
            field=F2, t=1, m=m, vectors=Matrix(F2, [[j % 2] for j in range(m)]),
            matchings=(QMatching(2, pairs),), form="special2", q=2,
            claimed_delta=Fraction(0)).m)
        want = ("ValueError", f"index out of range in {tuple(sorted(bad[0]))}") if bad else ("ok", m)
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), m=st.integers(2, 6))
    def test_entropy_audit(self, data, m):
        """On matchings made from disjoint pairs in any order, the audit
        gives the reference's chain terms, or its first crossing or
        unseparated pair."""
        rows = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                                  min_size=m, max_size=m))
        matchings = []
        for _ in range(2):
            perm = data.draw(st.permutations(range(m)))
            k = data.draw(st.integers(0, m // 2))
            matchings.append(QMatching(2, [perm[2 * a:2 * a + 2] for a in range(k)]))
        inst = LdcInstance(field=F3, t=2, m=m, vectors=Matrix(F3, rows),
                           matchings=tuple(matchings), form="special2", q=2,
                           claimed_delta=Fraction(0))
        got = _outcome(lambda: list(entropy_audit(inst).chain_terms))
        want = _outcome(lambda: reference_entropy_audit(rows, [mi.sets for mi in matchings])
                        ["chain_terms"])
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), t=st.integers(1, 6))
    def test_match_entropy_check(self, data, t):
        pairs = data.draw(st.lists(st.lists(st.integers(-1, t), min_size=1, max_size=3)
                                   .map(tuple), max_size=4))
        f = data.draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))
        got = _outcome(lambda: match_entropy_check(t, pairs, f))
        if got[0] == "ok":
            got = ("ok", (got[1].entropy_value, got[1].bound))
        want = _outcome(lambda: reference_match_entropy_check(t, pairs, f))
        if want[0] == "ok":
            assert got[0] == "ok" and got[1][1] == want[1][1]
            assert abs(got[1][0] - want[1][0]) < 1e-12
        else:
            assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(candidates=st.lists(st.lists(st.integers(0, 9), max_size=4).map(tuple),
                               max_size=10))
    def test_greedy_disjoint(self, candidates):
        assert ldc._first_fit(candidates) == reference_first_fit(candidates)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hs=st.lists(st.integers(0, 23), min_size=1, max_size=4))
    def test_greedy_kept_s(self, hs, signed_shift_3_3):
        group = signed_shift_3_3
        assert _outcome(lambda: _greedy_kept_s(group, hs)) == _outcome(
            lambda: reference_greedy_kept_s(group, hs))

    def test_cycle_kept_s(self, signed_shift_3_3):
        """Every h, the identity (order 1, no kept s) and odd orders included."""
        group = signed_shift_3_3
        orders = {group.element_order(h) for h in range(len(group))}
        assert 1 in orders and any(k % 2 for k in orders if k > 1)
        for h in range(len(group)):
            assert _cycle_kept_s(group, h) == reference_cycle_kept_s(group, h)
        assert _cycle_kept_s(group, group.identity_pos) == []

    def test_known_texts_of_a_triple_in_a_pair_family(self):
        """One 3-set in a pair family: each site that reads sets from
        outside names the set."""
        with pytest.raises(ValueError, match=r"^set \(0, 1, 2\) does not have exactly q=2 "
                                             r"members$"):
            QMatching(2, [(0, 1, 2)])
        with pytest.raises(ValueError, match=r"^set \(0, 1, 2\) does not have 2 distinct "
                                             r"members$"):
            match_entropy_check(4, [(0, 1, 2)], [0, 1, 2, 3])

    def test_every_site_calls_the_rule(self, signed_shift_4_3, monkeypatch):
        """With the rule and the first fit patched, each site that reads
        sets from outside calls them (seen by the calling function's name).
        Reading and checking a certificate runs the rule once per matching
        in QMatching and once on the pre-filter in verify_cert: never in
        LdcInstance, whose range check compares the members itself, nor in
        verify or entropy_audit."""
        callers = {"_set_faults": [], "_first_fit": []}

        def spy(name):
            original = getattr(ldc, name)

            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                owner = frame.f_locals.get("self")
                prefix = "" if owner is None else f"{type(owner).__name__}."
                callers[name].append(prefix + frame.f_code.co_name)
                return original(*args, **kwargs)
            return wrapper

        group = signed_shift_4_3
        cert = build_special_2ldc(group, group.generators[0])
        code = cert.code
        text = canonical_json(cert_to_json(cert))
        for name in callers:
            monkeypatch.setattr(ldc, name, spy(name))
        sites = [
            ("_set_faults", "QMatching.__init__", lambda: QMatching(2, ((0, 1),))),
            ("_set_faults", "match_entropy_check",
             lambda: match_entropy_check(2, [(0, 1)], [0, 1])),
            ("_set_faults", "verify_cert", lambda: verify_cert(cert)),
            ("_set_faults", "_greedy_kept_s",
             lambda: build_q_ldc(group, [group.generators[0], group.identity_pos], [1, -1])),
            ("_first_fit", "_greedy_kept_s",
             lambda: build_q_ldc(group, [group.generators[0], group.identity_pos], [1, -1])),
        ]
        for name, caller, call in sites:
            callers[name].clear()
            call()
            assert caller in callers[name], (name, caller)
        callers["_set_faults"].clear()
        read = cert_from_json(json.loads(text))
        report = verify_cert(read)
        assert report.passed and report.audit is not None
        assert ldc.verify(read.code).passed
        assert Counter(callers["_set_faults"]) == {"QMatching.__init__": code.t, "verify_cert": 1}
