import dataclasses
import re
import sys
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
from rep2ldc.certcheck import verify_cert
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
        """A matching holds only its members array; `sets`, and with it
        ==, hash and repr, read the tuples off it on first use."""
        got = QMatching(2, np.array([[3, 0], [2, 5]]))
        assert "sets" not in vars(got) and got.size == 2
        assert got.sets == ((0, 3), (2, 5)) and vars(got)["sets"] is got.sets
        same = QMatching(2, ((0, 3), (5, 2)))
        assert same == got and hash(same) == hash(got)
        assert repr(same) == "QMatching(q=2, sets=((0, 3), (2, 5)))"
        assert dataclasses.replace(same, q=2) == got
        assert dataclasses.replace(same, sets=()).size == 0

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
        """verify and entropy_audit give the rule each matching's members
        array; a matching made without one falls back to its sets, with the
        same reports."""
        code = build_special_2ldc(signed_shift_4_3, signed_shift_4_3.generators[0]).code
        smuggled = code
        for i, mi in enumerate(code.matchings):
            smuggled = _smuggle(smuggled, i, mi.sets)
        seen = []
        original = ldc._set_faults

        def spy(sets, *args):
            seen.append(type(sets))
            return original(sets, *args)

        monkeypatch.setattr(ldc, "_set_faults", spy)
        report, audit = verify(code), entropy_audit(code)
        assert seen == [np.ndarray] * (2 * code.t)
        seen.clear()
        assert verify(smuggled) == report
        assert entropy_audit(smuggled) == audit
        assert seen == [tuple] * (2 * code.t)


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
        q = 2 if form == "special2" else q
        inst = hadamard(3, F3)
        if form == "general":
            inst = dataclasses.replace(inst, form=form, q=q, matchings=(QMatching(q, ()),) * 3)
        inst = _smuggle(inst, 1, sets)
        got = [(c.span_failures, c.structure_failures) for c in verify(inst).coordinates]
        rows = inst.vectors.a.tolist()
        want = reference_verify(rows, form, q, inst.m,
                                [mi.sets for mi in inst.matchings], 3)
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
        """The first coordinate with a faulty family raises the rule's
        verdict, unless a pair of an earlier coordinate fails first."""
        rows = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                                  min_size=m, max_size=m))
        members = st.integers(-1, m)
        pair = st.lists(members, min_size=1, max_size=3).map(tuple)
        families = [data.draw(st.lists(pair, max_size=3)) for _ in range(2)]
        inst = LdcInstance(field=F3, t=2, m=m, vectors=Matrix(F3, rows),
                           matchings=(QMatching(2, ()),) * 2, form="special2", q=2,
                           claimed_delta=Fraction(0))
        for i, sets in enumerate(families):
            inst = _smuggle(inst, i, sets)
        want = None
        for i, sets in enumerate(families):
            broken = [(s, f) for s, f in zip(sets, reference_set_faults(sets, 2, m)) if any(f)]
            if broken:
                s = broken[0][0]
                want = _outcome(lambda: reference_entropy_audit(rows, families[:i]))
                if want[0] == "ok":
                    want = ("ValueError", f"set {s} does not have 2 distinct members at "
                            f"coordinate {i}" if len(s) != 2 else
                            f"matching pairs at coordinate {i} must be disjoint rows of the code")
                break
        got = _outcome(lambda: entropy_audit(inst).chain_terms)
        if want is None:
            want = _outcome(lambda: reference_entropy_audit(rows, families)["chain_terms"])
            got = got if got[0] != "ok" else ("ok", list(got[1]))
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
        """One 3-set smuggled into a pair family: each site names the set."""
        inst = _smuggle(hadamard(2, F3), 0, [(0, 1, 2)])
        assert verify(inst).coordinates[0].structure_failures == (
            "set (0, 1, 2) does not have 2 distinct members",)
        with pytest.raises(ValueError, match=r"^set \(0, 1, 2\) does not have 2 distinct "
                                             r"members at coordinate 0$"):
            entropy_audit(inst)
        with pytest.raises(ValueError, match=r"^set \(0, 1, 2\) does not have 2 distinct "
                                             r"members$"):
            match_entropy_check(4, [(0, 1, 2)], [0, 1, 2, 3])

    def test_every_site_calls_the_rule(self, signed_shift_4_3, monkeypatch):
        """With the rule and the first fit patched, each site that decides
        set structure calls them (seen by the calling function's name)."""
        callers = {"_set_faults": set(), "_first_fit": set()}

        def spy(name):
            original = getattr(ldc, name)

            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                owner = frame.f_locals.get("self")
                prefix = "" if owner is None else f"{type(owner).__name__}."
                callers[name].add(prefix + frame.f_code.co_name)
                return original(*args, **kwargs)
            return wrapper

        group = signed_shift_4_3
        cert = build_special_2ldc(group, group.generators[0])
        code = cert.code
        for name in callers:
            monkeypatch.setattr(ldc, name, spy(name))
        sites = [
            ("_set_faults", "QMatching.__post_init__", lambda: QMatching(2, ((0, 1),))),
            ("_set_faults", "LdcInstance.__post_init__", lambda: dataclasses.replace(code)),
            ("_set_faults", "verify", lambda: verify(code)),
            ("_set_faults", "entropy_audit", lambda: entropy_audit(code)),
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
