import dataclasses
import functools
import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from helpers import brute_entropy, fresh_group, matrix_order, reference_entropy_audit

from rep2ldc import bounds, groups
from rep2ldc.bounds import (
    BoundReport,
    EntropyAudit,
    LogBound,
    _entropy_of_counts,
    avg_fixed_space,
    check_rank_separation,
    entropy_audit,
    gamma,
    lambda_bound,
    match_entropy_check,
)
from rep2ldc.cli import main
from rep2ldc.construct import build_special_2ldc, lambda_variant
from rep2ldc.errors import MatchingCrossesPrefixClass, PairNotSeparated
from rep2ldc.fields import GF, QQ
from rep2ldc.fixtures import parse_fixture
from rep2ldc.groups import close_group
from rep2ldc.ldc import LdcInstance, QMatching, hadamard, max_special_matching, verify
from rep2ldc.linalg import Matrix, nullspace, rank
from rep2ldc.serialize import canonical_json, dump_json, ldc_to_json

F2, F3, F11 = GF(2), GF(3), GF(11)


class TestThetaGamma:
    def test_theta_values(self):
        assert QQ.theta == 1
        assert F2.theta == Fraction(1, 2)
        assert F3.theta == Fraction(2, 3)

    def test_gamma_values(self):
        assert gamma(2) == 1
        assert gamma(3) == Fraction(2, 3)
        assert gamma(1) == 0

    def test_monotonicity(self):
        thetas = [GF(p).theta for p in (2, 3, 5, 7, 11, 13)]
        assert thetas == sorted(thetas)
        odd_gammas = [gamma(k) for k in (3, 5, 7, 9, 11)]
        assert odd_gammas == sorted(odd_gammas)
        assert all(g < 1 for g in odd_gammas)


class TestLogBound:
    def test_exact_comparison_vs_float(self):
        # bound = (2/3 * 1 * 4) / log2(64) = (8/3)/6 = 4/9
        b = LogBound(numerator=Fraction(8, 3), log_arg=64)
        assert abs(b.value - 4 / 9) < 1e-15
        assert b.satisfied_by(1) and not b.satisfied_by(0)

    def test_borderline_integer(self):
        # rank >= 4 / log2(16) = 1 exactly: met with equality
        b = LogBound(numerator=Fraction(4), log_arg=16)
        assert b.satisfied_by(1)
        assert not b.satisfied_by(0)

    def test_matches_direct_power(self):
        for num in (Fraction(8, 3), Fraction(4), Fraction(7, 5), Fraction(12), Fraction(1, 9)):
            a, b = num.numerator, num.denominator
            for log_arg in (2, 3, 16, 64, 100):
                for coeff in (1, 2, 3):
                    bound = LogBound(numerator=num, log_arg=log_arg, coeff=coeff)
                    for k in range(6):
                        want = log_arg ** (k * coeff * b) >= 2**a
                        assert bound.satisfied_by(k) == want

    def test_json_rendered_once_and_fresh(self):
        """Every report of one (order, rank) pair shares its bound; each
        to_json is a new dict, so a caller's edit reaches no other report."""
        b = LogBound(numerator=Fraction(8, 3), log_arg=64)
        first = b.to_json()
        assert first == {"numerator": "8/3", "log_arg": 64, "coeff": 1, "value": b.value}
        first["value"] = None
        second = b.to_json()
        assert second is not first and second["value"] == b.value
        assert b.to_json()["numerator"] is second["numerator"]  # rendered once

    def test_large_prime_denominator(self):
        # theta = 1 - 1/p puts p in the denominator: 64 ** (k * b) would have
        # billions of bits, the bracketing decides at once
        p = 2**31 - 1
        b = LogBound(numerator=(1 - Fraction(1, p)) * 4, log_arg=64)
        assert b.satisfied_by(1) and not b.satisfied_by(0)
        b = LogBound(numerator=(1 - Fraction(1, p)) * 12, log_arg=4)
        assert b.satisfied_by(6) and not b.satisfied_by(5)


class TestRankSeparation:
    def test_signed_shift_all_satisfied(self, signed_shift_4_3):
        reports = check_rank_separation(signed_shift_4_3)
        assert len(reports) == 63  # identity skipped
        assert all(r.satisfied for r in reports)
        assert all(r.uniform_satisfied for r in reports)

    def test_reflection_bound_value(self, signed_shift_4_3):
        g = signed_shift_4_3
        refl = g.generators[0]
        rep = next(r for r in check_rank_separation(g) if r.h == refl)
        assert rep.actual_rank == 1
        assert rep.order == 2 and rep.gamma == 1
        assert rep.bound.numerator == Fraction(8, 3)  # theta*gamma*n = (2/3)*4
        assert abs(rep.bound.value - 4 / 9) < 1e-12

    def test_dihedral_reflection(self, dihedral_5_11):
        g = dihedral_5_11
        swap = g.generators[1]
        rep = next(r for r in check_rank_separation(g) if r.h == swap)
        assert rep.actual_rank == 1 and rep.satisfied
        expected = float(Fraction(10, 11) * 2) / math.log2(10)
        assert abs(rep.bound.value - expected) < 1e-12

    def test_trivial_group_empty_scan(self):
        g = close_group([Matrix.identity(F3, 2)])
        assert check_rank_separation(g) == []

    def test_every_fixture_family_satisfied(self):
        # a violation anywhere would be a finding, not a tolerance issue
        from rep2ldc.fixtures import (
            dihedral_rep,
            signed_shift_group,
            symmetric_standard_rep,
        )

        groups = [signed_shift_group(n, 3) for n in (2, 3, 4, 5)]
        groups += [dihedral_rep(k, p) for k, p in
                   [(3, 7), (4, 5), (5, 11), (6, 7), (7, 29)]]
        groups += [symmetric_standard_rep(k, p) for k, p in
                   [(3, 2), (3, 5), (4, 3), (4, 5)]]
        for g in groups:
            for rep in check_rank_separation(g):
                assert rep.satisfied and rep.uniform_satisfied


def _reference_rank_scan(group):
    """The per-element rank scan: Matrix powers and rank(g - I) per h."""
    n, m, th = group.dim, len(group), group.field.theta
    ident = Matrix.identity(group.field, n)
    reports = []
    for pos in range(m):
        g = group.matrix(pos)
        if g == ident:
            continue
        order = matrix_order(group, pos)
        gm = gamma(order)
        actual = rank(g - ident)
        bound = LogBound(numerator=th * gm * n, log_arg=m)
        uniform = LogBound(numerator=Fraction(n), log_arg=m, coeff=3)
        reports.append(BoundReport(
            h=pos, order=order, gamma=gm, theta=th, n=n, group_size=m,
            bound=bound, uniform_bound=uniform, actual_rank=actual,
            satisfied=bound.satisfied_by(actual),
            uniform_satisfied=uniform.satisfied_by(actual),
        ))
    return reports


class TestOnePassTable:
    """check_rank_separation and avg_fixed_space read the group's order and
    rank table; both must equal the per-element computation."""

    @pytest.mark.parametrize("spec", [
        "signed_shift(4,3)",
        "dihedral(5,11)",
        "symmetric(5,7)",
        "signed_shift(4,2147483647)",
        "signed_shift(4,0)",
    ])
    @pytest.mark.parametrize("chunk", [groups.CLOSURE_CHUNK, 7])
    def test_reports_equal_per_element_reference(self, monkeypatch, spec, chunk):
        monkeypatch.setattr(groups, "CLOSURE_CHUNK", chunk)
        closed = parse_fixture(spec)
        reports = check_rank_separation(fresh_group(closed))
        want = _reference_rank_scan(fresh_group(closed))
        assert reports == want
        assert [r.to_json() for r in reports] == [r.to_json() for r in want]
        assert [r.csv_row() for r in reports] == [r.csv_row() for r in want]

        assert [hash(r) for r in reports] == [hash(r) for r in want]
        assert [repr(r) for r in reports] == [repr(r) for r in want]

        g = fresh_group(closed)
        ident = Matrix.identity(g.field, g.dim)
        total = sum(nullspace(g.matrix(pos) - ident).dim for pos in range(len(g)))
        report = avg_fixed_space(fresh_group(closed))
        assert report.average == Fraction(total, len(g))
        assert report.to_json() == {
            "average": str(Fraction(total, len(g))),
            "bound": str(Fraction(g.dim, 2)),
            "passed": Fraction(total, len(g)) <= Fraction(g.dim, 2),
            "irreducible": groups.burnside_irreducible(g),
            "applicable": groups.burnside_irreducible(g),
        }


    @pytest.mark.parametrize("spec", ["signed_shift(4,3)", "dihedral(5,11)"])
    def test_clones_are_frozen_reports(self, spec):
        """The reports after the first of each (order, rank) class are
        clones; replace() and the frozen fields work on them as on any."""
        reports = check_rank_separation(parse_fixture(spec))
        seen = set()
        for r in reports:
            key = (r.order, r.actual_rank)
            if key not in seen:
                seen.add(key)
                continue
            moved = dataclasses.replace(r, h=r.h + 1)
            fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
            assert moved == BoundReport(**{**fields, "h": r.h + 1})
            assert moved.to_json() == {**r.to_json(), "h": r.h + 1}
            assert moved.csv_row() == [r.h + 1] + r.csv_row()[1:]
            for name in ("h", "satisfied", "bound"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(r, name, None)
        assert len(seen) < len(reports)

    @pytest.mark.parametrize("spec", ["signed_shift(4,3)", "symmetric(5,7)"])
    def test_to_json_results_are_independent(self, spec):
        """Mutating one to_json() result, at the top or inside a bound,
        changes neither a later to_json() of the same report nor another
        report of its class."""
        classes: dict = {}
        for r in check_rank_separation(parse_fixture(spec)):
            classes.setdefault((r.order, r.actual_rank), []).append(r)
        shared = [rs for rs in classes.values() if len(rs) > 1]
        assert shared
        for first, second, *_ in shared:
            for target, other in ((first, second), (second, first)):
                before = canonical_json([target.to_json(), other.to_json()])
                doc = target.to_json()
                doc["h"] = -1
                doc["gamma"] = "0"
                doc["extra"] = True
                doc["bound"]["value"] = -1.0
                doc["bound"]["numerator"] = "0"
                doc["uniform_bound"]["coeff"] = 0
                del doc["uniform_bound"]["log_arg"]
                assert canonical_json([target.to_json(), other.to_json()]) == before


def test_one_report_built_per_order_rank_class(monkeypatch):
    """check_rank_separation runs BoundReport's __init__ once per distinct
    (order, rank) pair, not once per non-identity element."""
    group = parse_fixture("signed_shift(6,5)")
    built = []
    init = BoundReport.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["h"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(BoundReport, "__init__", counting_init)
    reports = check_rank_separation(group)
    pairs = {(r.order, r.actual_rank) for r in reports}
    assert len(reports) == len(group) - 1
    assert len(built) == len(pairs)
    assert len(built) != len(group) - 1


class TestLambdaBound:
    def test_weaker_than_main_bound(self):
        for m, n in [(10, 2), (64, 4), (24, 3)]:
            main = LogBound(numerator=Fraction(2, 3) * n, log_arg=m)
            lam = lambda_bound(n, m, Fraction(2, 3), Fraction(1))
            assert lam.value <= main.value

    def test_dihedral_rotation_value(self):
        b = lambda_bound(2, 10, Fraction(10, 11), gamma(5))
        expected = float(Fraction(10, 11) * Fraction(4, 5) * 2) / (2 * math.log2(20))
        assert abs(b.value - expected) < 1e-12
        assert b.satisfied_by(1)

    def test_degenerate_dimension(self):
        assert lambda_bound(0, 10, Fraction(1, 2), Fraction(1)).value == 0.0


class TestMatchEntropy:
    def test_perfect_matching_tight(self):
        res = match_entropy_check(2, [(0, 1)], [0, 1])
        assert res.passed and abs(res.entropy_value - 1.0) < 1e-12
        assert res.bound == 1

    def test_partial_matching(self):
        res = match_entropy_check(4, [(0, 1)], ["a", "b", "c", "c"])
        assert res.passed and res.bound == Fraction(1, 2)

    def test_t_equals_2s_bound_is_one(self):
        res = match_entropy_check(6, [(0, 1), (2, 3), (4, 5)], [0, 1, 0, 1, 0, 1])
        assert res.passed and res.bound == 1

    def test_pair_not_separated(self):
        with pytest.raises(PairNotSeparated):
            match_entropy_check(4, [(0, 1)], [7, 7, 1, 2])

    @pytest.mark.parametrize("f", [[0, 1, 2], [0, 1, 2, 3, 4], []], ids=["short", "long", "empty"])
    def test_f_of_another_length_refused(self, f):
        """A short f used to die on an IndexError after the pair checks, and
        a long one's extra entries went unread."""
        with pytest.raises(ValueError, match=rf"^f has length {len(f)}, expected t = 4$"):
            match_entropy_check(4, [(0, 1)], f)
        with pytest.raises(ValueError, match=rf"^f has length {len(f)}, expected t = 4$"):
            match_entropy_check(4, QMatching(2, ((0, 1),)), f)

    @pytest.mark.parametrize("trial", range(300))
    def test_random_against_brute_force(self, trial):
        rng = np.random.default_rng(1000 + trial)
        t = int(rng.integers(2, 13))
        s_max = t // 2
        s = int(rng.integers(0, s_max + 1))
        perm = rng.permutation(t)
        pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(s)]
        f = [int(x) for x in rng.integers(0, 5, size=t)]
        for j1, j2 in pairs:  # enforce the hypothesis
            while f[j1] == f[j2]:
                f[j2] = int(rng.integers(0, 6))
        res = match_entropy_check(t, pairs, f)
        counts = {}
        for v in f:
            counts[v] = counts.get(v, 0) + 1
        assert abs(res.entropy_value - brute_entropy(counts.values())) < 1e-12
        assert res.passed
        assert res.entropy_value >= float(res.bound) - 1e-12

    @pytest.mark.parametrize("n", [63, 64, 1000])
    def test_entropy_of_counts_is_the_plain_loop(self, n):
        """Past 63 counts the entropy takes one log2 per distinct count and
        one cumulative sum: the float stays the loop's, zeros skipped."""
        counts = np.random.default_rng(n).integers(0, 50, size=n)
        for c in (counts, counts.tolist(), [0] * n, [7] * n):
            assert _entropy_of_counts(c) == brute_entropy([int(x) for x in c])


class TestConditioningFacts:
    """Entropy facts used implicitly by the audit, checked empirically."""

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            nx, ny = rng.integers(2, 5, size=2)
            joint = rng.integers(1, 10, size=(nx, ny)).astype(float)
            joint /= joint.sum()
            hx = brute_entropy(joint.sum(axis=1))
            hx_given_y = sum(
                joint[:, y].sum() * brute_entropy(joint[:, y] / joint[:, y].sum())
                for y in range(ny)
            )
            assert hx >= hx_given_y - 1e-12

    def test_event_conditioning(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            probs = rng.integers(1, 10, size=n).astype(float)
            probs /= probs.sum()
            event = rng.integers(0, 2, size=n).astype(bool)
            if not event.any():
                event[0] = True
            pe = probs[event].sum()
            h = brute_entropy(probs)
            h_given_e = brute_entropy(probs[event] / pe)
            assert h >= pe * h_given_e - 1e-12


class TestEntropyAudit:
    def test_hadamard3_tight(self):
        audit = entropy_audit(hadamard(3, F2))
        assert audit.passed
        assert abs(audit.entropy_value - 3.0) < 1e-12
        assert audit.code_size_relation == "eq"  # m = 2^{2*delta*t} exactly
        assert all(abs(term - 1.0) < 1e-12 for term in audit.chain_terms)
        assert audit.matching_bound_terms == (Fraction(1),) * 3
        assert audit.chain_sum_ok

    def test_prefix_class_sizes_hadamard(self):
        audit = entropy_audit(hadamard(3, F2))
        assert audit.prefix_class_sizes[0] == (8,)
        assert sorted(audit.prefix_class_sizes[1]) == [4, 4]
        assert sorted(audit.prefix_class_sizes[2]) == [2, 2, 2, 2]

    def test_constructed_cert_has_slack(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        audit = entropy_audit(cert.code)
        assert audit.passed
        assert audit.log2m_ge_2dt
        # log2(64) = 6 >= 2 * delta * 4 with delta <= 1/2
        assert audit.code_size_relation in ("gt", "eq")

    def test_duplicates_and_empty_matchings(self):
        inst = LdcInstance(
            field=F2, t=2, m=4,
            vectors=Matrix(F2, [[1, 0], [1, 0], [1, 0], [1, 0]]),
            matchings=(QMatching(2, ()), QMatching(2, ())),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        audit = entropy_audit(inst)
        assert audit.passed
        assert audit.entropy_value == 0.0  # H(X) < log2 m is fine

    def test_crossing_pair_rejected(self):
        # pair differs at coordinate 0 and 1: crosses the prefix classes of i=1
        inst = LdcInstance(
            field=F2, t=2, m=2,
            vectors=Matrix(F2, [[0, 0], [1, 1]]),
            matchings=(QMatching(2, ()), QMatching(2, ((0, 1),))),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        with pytest.raises(MatchingCrossesPrefixClass):
            entropy_audit(inst)

    def test_unseparated_pair_rejected(self):
        inst = LdcInstance(
            field=F2, t=2, m=2,
            vectors=Matrix(F2, [[0, 1], [0, 1]]),
            matchings=(QMatching(2, ((0, 1),)), QMatching(2, ())),
            form="special2", q=2, claimed_delta=Fraction(0),
        )
        with pytest.raises(PairNotSeparated):
            entropy_audit(inst)

    def test_general_form_not_applicable(self):
        with pytest.raises(ValueError):
            entropy_audit(dataclasses.replace(hadamard(2, F2), form="general"))

    def test_chain_identity_small_random(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            m, t = int(rng.integers(2, 10)), int(rng.integers(1, 4))
            vectors = Matrix(F3, rng.integers(0, 3, size=(m, t)).tolist())
            inst = LdcInstance(
                field=F3, t=t, m=m, vectors=vectors,
                matchings=(QMatching(2, ()),) * t,
                form="special2", q=2, claimed_delta=Fraction(0),
            )
            audit = entropy_audit(inst)
            assert audit.chain_sum_ok and audit.chain_sum_residual < 1e-12

    def test_large_code_passes_whatever_its_float_residual(self, tmp_path):
        """20,000 random GF(7) rows with maximum special matchings: the
        float chain terms miss H(X) by more than 1e-12, yet every verdict
        holds, since none rests on a float, and `verify` of the LDC
        document exits 0."""
        f7 = GF(7)
        rows = np.random.default_rng(0).integers(0, 7, size=(20000, 5))
        vectors = Matrix(f7, rows.tolist())
        matchings = tuple(max_special_matching(vectors, i) for i in range(5))
        sigma = sum(mi.size for mi in matchings)
        inst = LdcInstance(field=f7, t=5, m=20000, vectors=vectors, matchings=matchings,
                           form="special2", q=2, claimed_delta=Fraction(sigma, 20000 * 5))
        audit = entropy_audit(inst)
        assert audit.chain_sum_residual > 1e-12
        assert audit.passed and audit.to_json()["passed"]
        assert verify(inst).passed
        path = str(tmp_path / "code.json")
        dump_json(ldc_to_json(inst), path)
        assert main(["verify", "--input", path]) == 0

    @pytest.mark.parametrize("sets, message", [
        (((0, 1), (1, 2)), "set (1, 2) overlaps an earlier set"),
        (((1, 1),), "set (1, 1) does not have exactly q=2 members"),
        (((0, 1), (2, 3)), "index out of range in (2, 3)"),
    ], ids=["overlap", "repeat", "outside"])
    def test_smuggled_pairs_rejected(self, sets, message):
        """Pairs that would get a wrong verdict (the overlapping pairs here
        pass both pair checks, yet 3 H(X_0) < 4) never reach the audit:
        QMatching or LdcInstance refuses them, and a matching made without
        its constructor fails on first use."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _special2(F3, [[0], [1], [0]], [sets])
        inst = _special2(F3, [[0], [1], [0]], [()])
        object.__setattr__(inst, "matchings", (object.__new__(QMatching),))
        with pytest.raises(AttributeError):
            entropy_audit(inst)

    def test_first_failing_pair_in_set_order(self):
        # pair (0, 1) agrees at coordinate 1; the later pair (2, 3) crosses
        inst = _special2(F2, [[0, 0], [0, 0], [0, 1], [1, 0]], [(), ((0, 1), (2, 3))])
        with pytest.raises(PairNotSeparated, match=r"^pair \(0, 1\) agrees at coordinate 1$"):
            entropy_audit(inst)

    def test_pair_failing_both_ways_reports_crossing(self):
        inst = _special2(F2, [[0, 0], [1, 0]], [(), ((0, 1),)])
        with pytest.raises(MatchingCrossesPrefixClass,
                           match=r"^pair \(0, 1\) crosses prefix classes at coordinate 1$"):
            entropy_audit(inst)

    @pytest.mark.parametrize("field, values", [
        (GF(2), [0, 1]),
        (GF(3), [0, 1, 2]),
        (GF(5), [0, 1, 2, 3, 4]),
        (QQ, [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 7)]),
    ], ids=["GF2", "GF3", "GF5", "QQ"])
    def test_matches_dict_oracle(self, field, values):
        """Random codes with matchings inside prefix classes, some with one
        extra pair between unmatched rows, which may cross or agree."""
        rng = random.Random(field.char)
        outcomes = set()
        for _ in range(60):
            rows, matchings = _random_special2(rng, values)
            try:
                want = reference_entropy_audit(rows, matchings)
            except (MatchingCrossesPrefixClass, PairNotSeparated) as exc:
                with pytest.raises(type(exc)) as got:
                    entropy_audit(_special2(field, rows, matchings))
                assert str(got.value) == str(exc)
                outcomes.add(type(exc))
                continue
            audit = entropy_audit(_special2(field, rows, matchings))
            assert {k: getattr(audit, k) for k in want} == {
                k: tuple(v) if isinstance(v, list) else v for k, v in want.items()}
            # the matching lemma: once the pair checks pass, every exact verdict holds
            assert all(audit.chain_term_ok) and audit.upper_ok
            assert audit.hx_ge_2dt and audit.log2m_ge_2dt
            outcomes.add("passed" if audit.passed else "failed")
        assert {"passed", MatchingCrossesPrefixClass, PairNotSeparated} <= outcomes
        relations = set()
        for rows, matchings in _tight_special2(values):
            want = reference_entropy_audit(rows, matchings)
            audit = entropy_audit(_special2(field, rows, matchings))
            assert {k: getattr(audit, k) for k in want} == {
                k: tuple(v) if isinstance(v, list) else v for k, v in want.items()}
            assert audit.passed
            relations.add(audit.code_size_relation)
        assert relations == {"eq", "gt"}

    @pytest.mark.parametrize("code, want", [
        ("signed_shift(4,3) special2",
         "a3f3d8fc6a5144ebd74140a05a70faeb2a7342f9835584781b0a92239f923780"),
        ("signed_shift(4,3) lambda",
         "5800aa8cd424526215ddc4ac8851e6bb28964d12de19e982c6b0742f1df7d1e8"),
        ("dihedral(5,11) special2",
         "69cd164a146507e687e3167217c2cf04ea5b4a56a8c23bd660f6d03b86e88ee4"),
        ("dihedral(5,11) lambda",
         "022b65585869bc0587ffe3a5ceb0cb954dc5c5a3f7af10b3b549b9be64eebf20"),
        ("signed_shift(6,5) special2",
         "99111c7c02e5ad8ca134027c173f8d65022559e5df9458bb159d4de1ffb44fd2"),
        ("signed_shift(6,5) lambda",
         "cb0815c1da99ae8685cbb7825ebd0215e541fadb7f5311c235613645a6608cad"),
        ("signed_shift(4,0) special2",
         "a3f3d8fc6a5144ebd74140a05a70faeb2a7342f9835584781b0a92239f923780"),
        ("signed_shift(4,0) lambda",
         "5800aa8cd424526215ddc4ac8851e6bb28964d12de19e982c6b0742f1df7d1e8"),
        ("hadamard(3)",
         "745dd1ac63ea7acfebc80976057f108081dfc53b55fa5a22d1d1b1cbf7e03ae5"),
    ])
    def test_audit_bytes_pinned(self, code, want):
        """The canonical JSON of the audit, floats included, hashes as it did
        when prefix classes were tuple-keyed dicts.  Certificates are built
        from the first generator at seed 0 (lambda = 1)."""
        if code == "hadamard(3)":
            inst = hadamard(3, F2)
        else:
            fixture, kind = code.split()
            g = parse_fixture(fixture)
            build = build_special_2ldc if kind == "special2" else (
                lambda g, h: lambda_variant(g, h, 1))
            inst = build(g, g.generators[0]).code
        text = canonical_json(entropy_audit(inst).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == want

    @pytest.mark.parametrize("code", [
        "symmetric(7,11) special2", "symmetric(7,11) lambda",
        "signed_shift(8,3) special2", "signed_shift(8,3) lambda",
        "signed_shift(10,3) special2", "signed_shift(10,3) lambda",
        "signed_shift(6,0) special2", "signed_shift(6,0) lambda",
        "signed_shift(4,2147483647) special2", "signed_shift(4,2147483647) lambda",
        "hadamard(10)", "max_special_matching GF(7)",
    ])
    def test_matches_dict_oracle_at_scale(self, code):
        """Built codes of up to 20,480 rows over GF(p), p up to 2^31 - 1,
        and QQ: every field and the canonical JSON equal the oracle's."""
        inst = _code_at_scale(code)
        want = _oracle_audit(inst)
        audit = entropy_audit(inst)
        assert dataclasses.asdict(audit) == dataclasses.asdict(want)
        assert canonical_json(audit.to_json()) == canonical_json(want.to_json())

    @pytest.mark.parametrize("case, error, text", [
        ("crossing", MatchingCrossesPrefixClass,
         "pair (0, 1) crosses prefix classes at coordinate 9"),
        ("agreeing", PairNotSeparated, "pair (3, 7) agrees at coordinate 9"),
        ("agreeing before crossing", PairNotSeparated, "pair (3, 7) agrees at coordinate 9"),
    ])
    def test_failing_pair_at_a_late_coordinate(self, case, error, text):
        """signed_shift(10,3) special2 (10,240 rows) with one of its last
        coordinate's pairs swapped for a pair of rows of other prefixes, or
        of one row repeated, in the middle of the matching: the audit
        raises the oracle's exception with its text."""
        inst = _code_at_scale("signed_shift(10,3) special2")
        i, rows = inst.t - 1, inst.vectors.a
        sets = list(inst.matchings[i].sets)
        crossing = (0, next(j for j in range(1, inst.m) if (rows[j, :i] != rows[0, :i]).any()))
        agreeing = (3, next(j for j in range(4, inst.m) if (rows[j] == rows[3]).all()))
        swaps = {"crossing": [crossing], "agreeing": [agreeing],
                 "agreeing before crossing": [agreeing, crossing]}[case]
        sets = [p for p in sets if all(set(p).isdisjoint(pair) for pair in swaps)]
        sets[len(sets) // 2:len(sets) // 2] = swaps
        matchings = inst.matchings[:i] + (QMatching(2, tuple(sets)),)
        bad = dataclasses.replace(inst, matchings=matchings)
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            entropy_audit(bad)
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            _oracle_audit(bad)

    def test_residual_does_not_depend_on_the_builtin_sum(self, monkeypatch):
        """From Python 3.12 the builtin sum of floats is compensated, which
        moves the residual of symmetric(7,11) special2 in its last bits.
        Shadowed by such a sum, the audits keep their bytes."""
        insts = [_code_at_scale(code) for code in (
            "symmetric(7,11) special2", "signed_shift(8,3) special2", "signed_shift(6,0) lambda")]
        want = [canonical_json(entropy_audit(inst).to_json()) for inst in insts]
        monkeypatch.setattr(bounds, "sum", _compensated_sum, raising=False)
        assert [canonical_json(entropy_audit(inst).to_json()) for inst in insts] == want

    def test_the_compensated_sum_moves_the_chain_total(self):
        terms = entropy_audit(_code_at_scale("symmetric(7,11) special2")).chain_terms
        total = 0.0
        for term in terms:
            total += term
        assert _compensated_sum(terms) != total
        assert _compensated_sum([1, 2, 3]) == 6


def _compensated_sum(items, start=0):
    """The builtin sum as Python 3.12 computes it: integers exactly, floats
    with Neumaier's compensation."""
    items = list(items)
    if all(type(x) is int for x in items):
        return sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c else total


@functools.lru_cache(maxsize=None)
def _code_at_scale(code: str) -> LdcInstance:
    if code == "hadamard(10)":
        return hadamard(10, F2)
    if code == "max_special_matching GF(7)":
        f7 = GF(7)
        vectors = Matrix(f7, np.random.default_rng(0).integers(0, 7, size=(5000, 5)).tolist())
        matchings = tuple(max_special_matching(vectors, i) for i in range(5))
        return LdcInstance(field=f7, t=5, m=5000, vectors=vectors, matchings=matchings,
                           form="special2", q=2, claimed_delta=Fraction(0))
    fixture, kind = code.split()
    g = parse_fixture(fixture)
    cert = build_special_2ldc(g, g.generators[0]) if kind == "special2" else lambda_variant(
        g, g.generators[0], 1)
    return cert.code


def _oracle_audit(inst: LdcInstance) -> EntropyAudit:
    want = reference_entropy_audit(inst.vectors.a.tolist(), [mi.sets for mi in inst.matchings])
    return EntropyAudit(**{k: tuple(v) if isinstance(v, list) else v for k, v in want.items()})


def _special2(field, rows, matchings) -> LdcInstance:
    return LdcInstance(
        field=field, t=len(rows[0]), m=len(rows), vectors=Matrix(field, rows),
        matchings=tuple(QMatching(2, sets) for sets in matchings),
        form="special2", q=2, claimed_delta=Fraction(0),
    )


def _tight_special2(values):
    """(rows, matchings) where the matching lemma is tight or nearly so:
    hadamard(1..4), whose every class splits in half and whose size is
    exactly 2^(2 delta t); classes where one value holds more than half
    the rows; and classes where one value holds exactly half."""
    a, b = values[:2]
    c = values[2] if len(values) > 2 else b
    cases = []
    for n in range(1, 5):
        code = hadamard(n, F2)
        cases.append(([[values[x] for x in row] for row in code.vectors.a.tolist()],
                      [mi.sets for mi in code.matchings]))
    cases += [
        ([[a], [a], [a], [b]], [((0, 3),)]),                           # 3/4
        ([[a], [a], [a], [a], [a], [b], [c]], [((0, 5), (1, 6))]),     # 5/7
        ([[a], [a], [b], [b]], [((0, 2), (1, 3))]),                    # 1/2, equality
        ([[a], [a], [a], [b], [b], [c]], [((0, 3), (1, 4), (2, 5))]),  # 1/2
        # coordinate 1: the a-prefix class holds a 3/4 majority, the
        # b-prefix class one value in exact half
        ([[a, a], [a, a], [a, a], [a, b], [b, a], [b, b]],
         [((0, 4), (3, 5)), ((0, 3), (4, 5))]),
    ]
    return cases


def _random_special2(rng, values):
    """(rows, matchings): repeated rows among random ones, and per
    coordinate i a random matching of rows that share their length-i
    prefix and differ at i; one in five gets one more pair of unmatched
    rows, in a random place."""
    m, t = rng.randint(2, 16), rng.randint(1, 4)
    rows = [[rng.choice(values) for _ in range(t)] for _ in range(m)]
    for _ in range(rng.randint(0, m // 2)):
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    matchings = []
    for i in range(t):
        order, used, pairs = rng.sample(range(m), m), set(), []
        for j1 in order:
            for j2 in order:
                if used.isdisjoint((j1, j2)) and j1 != j2 and rng.random() < 0.7 \
                        and rows[j1][:i] == rows[j2][:i] and rows[j1][i] != rows[j2][i]:
                    pairs.append((j1, j2))
                    used.update((j1, j2))
        free = [j for j in range(m) if j not in used]
        if rng.random() < 0.2 and len(free) >= 2:
            pairs.insert(rng.randint(0, len(pairs)), tuple(rng.sample(free, 2)))
        matchings.append(tuple(tuple(sorted(p)) for p in pairs))
    return rows, matchings


class TestAvgFixedSpace:
    def test_signed_shift(self, signed_shift_4_3):
        g = signed_shift_4_3
        report = avg_fixed_space(g)
        assert report.passed and report.irreducible
        # oracle: dim C(h) = n - rank(rho(h) - I), summed independently
        from rep2ldc.linalg import rank
        ident = Matrix.identity(F3, 4)
        total = sum(4 - rank(g.matrix(pos) - ident) for pos in range(64))
        assert report.average == Fraction(total, 64)
        assert report.average <= 2

    def test_dihedral_hand_value(self, dihedral_5_11):
        # id: 2; four rotations: 0; five reflections: 1 each -> 7/10
        report = avg_fixed_space(dihedral_5_11)
        assert report.average == Fraction(7, 10)
        assert report.passed and report.irreducible

    def test_trivial_group_not_applicable(self):
        g = close_group([Matrix.identity(F3, 2)])
        report = avg_fixed_space(g)
        assert report.average == 2  # = n, above n/2
        assert not report.passed and not report.irreducible
        assert not report.applicable
