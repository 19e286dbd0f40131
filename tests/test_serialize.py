import json
from fractions import Fraction

import pytest

from rep2ldc.certcheck import cert_from_json, verify_cert_json
from rep2ldc.construct import build_special_2ldc, lambda_variant
from rep2ldc.errors import ParseError
from rep2ldc.fields import GF, QQ
from rep2ldc.fixtures import dihedral_rep
from rep2ldc.ldc import hadamard
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import (
    canonical_json,
    cert_to_json,
    detect_kind,
    group_export_json,
    group_from_spec_json,
    group_spec_hash,
    ldc_from_json,
    ldc_to_json,
    matrix_from_json,
    matrix_to_json,
)

F3, F11 = GF(3), GF(11)


class TestMatrixFormat:
    def test_prime_round_trip(self):
        m = Matrix(F3, [[0, 1, 2], [2, 1, 0]])
        doc = matrix_to_json(m)
        assert doc["entries"] == [[0, 1, 2], [2, 1, 0]]
        assert doc["field"] == {"char": 3}
        assert matrix_from_json(doc) == m

    def test_rational_round_trip(self):
        m = Matrix(QQ, [[Fraction(1, 2), Fraction(-3)], [0, 1]])
        doc = matrix_to_json(m)
        assert doc["entries"] == [["1/2", "-3"], ["0", "1"]]
        assert matrix_from_json(doc) == m

    def test_shape_mismatch_rejected(self):
        doc = matrix_to_json(Matrix.identity(F3, 2))
        doc["rows"] = 3
        with pytest.raises(ParseError):
            matrix_from_json(doc)

    def test_residue_type_enforced(self):
        doc = matrix_to_json(Matrix.identity(F3, 2))
        doc["entries"][0][0] = "1/2"
        with pytest.raises(ParseError):
            matrix_from_json(doc)


class TestGroupFormat:
    def test_spec_round_trip(self, dihedral_5_11):
        spec = dihedral_5_11.spec_json()
        rebuilt = group_from_spec_json(spec)
        assert len(rebuilt) == 10
        assert rebuilt.elements == dihedral_5_11.elements  # canonical BFS order

    def test_export_contains_words(self):
        g = dihedral_rep(3, 7)
        doc = group_export_json(g)
        assert doc["size"] == 6
        assert len(doc["elements"]) == 6 and len(doc["words"]) == 6
        assert doc["words"][0] == []

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            group_from_spec_json({"field": {"char": 3}, "dim": 2})

    def test_singular_generator_is_a_parse_error(self, dihedral_5_11):
        spec = dihedral_5_11.spec_json()
        spec["generators"][-1]["entries"] = [[1, 1], [1, 1]]
        with pytest.raises(ParseError, match="singular"):
            group_from_spec_json(spec)

    def test_hash_is_canonical(self, dihedral_5_11):
        spec = dihedral_5_11.spec_json()
        h1 = group_spec_hash(spec)
        h2 = group_spec_hash(json.loads(canonical_json(spec)))
        assert h1 == h2


class TestLdcFormat:
    def test_round_trip(self):
        inst = hadamard(3, F3)
        doc = ldc_to_json(inst)
        back = ldc_from_json(doc)
        assert back.vectors == inst.vectors
        assert back.matchings == inst.matchings
        assert back.claimed_delta == Fraction(1, 2)
        assert back.form == "special2" and back.q == 2

    def test_overlapping_matching_rejected_at_parse(self):
        doc = ldc_to_json(hadamard(2, F3))
        doc["matchings"][0] = [[0, 1], [1, 2]]
        with pytest.raises(ParseError):
            ldc_from_json(doc)

    def test_detect_kind(self):
        assert detect_kind(ldc_to_json(hadamard(2, F3))) == "ldc"
        assert detect_kind({"generators": [], "dim": 1, "field": {"char": 3}}) == "group"
        with pytest.raises(ParseError):
            detect_kind({"what": "ever"})


class TestCertFormat:
    def test_round_trip_and_verify(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        doc = json.loads(canonical_json(cert_to_json(cert)))
        assert detect_kind(doc) == "cert"
        back = cert_from_json(doc)
        assert back.code.vectors == cert.code.vectors
        assert back.achieved_delta == cert.achieved_delta
        report = verify_cert_json(doc)
        assert report.passed and not report.failures

    def test_hash_mismatch_rejected(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        doc = cert_to_json(cert)
        doc["group_hash"] = "0" * 64
        with pytest.raises(ParseError):
            cert_from_json(doc)

    def test_tampered_vector_fails_verification(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        doc = json.loads(canonical_json(cert_to_json(cert)))
        doc["code"]["vectors"][7][1] = (doc["code"]["vectors"][7][1] + 1) % 3
        report = verify_cert_json(doc)
        assert not report.passed
        assert any("W^T rho(s) z" in f for f in report.failures)

    def test_tampered_delta_fails(self, signed_shift_4_3):
        g = signed_shift_4_3
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        doc = json.loads(canonical_json(cert_to_json(cert)))
        doc["achieved_delta"] = "63/256"
        report = verify_cert_json(doc)
        assert not report.passed
        assert any("achieved_delta" in f for f in report.failures)

    def test_rational_cert_round_trip(self, signed_shift_4_q):
        g = signed_shift_4_q
        cert = build_special_2ldc(g, g.generators[0], seed=0)
        doc = json.loads(canonical_json(cert_to_json(cert)))
        assert verify_cert_json(doc).passed


class TestHostileCertIndices:
    """Indices and lengths verify_cert would index with are rejected at parse."""

    @pytest.fixture(scope="class")
    def doc(self, signed_shift_4_3):
        g = signed_shift_4_3
        return json.loads(canonical_json(cert_to_json(build_special_2ldc(g, g.generators[0]))))

    def _rejects(self, doc, edit, match):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(ParseError, match=match):
            cert_from_json(bad)
        with pytest.raises(ParseError):
            verify_cert_json(bad)

    def test_hs_out_of_range(self, doc):
        self._rejects(doc, lambda d: d["hs"].__setitem__(0, 64), r"hs entry 64 outside \[0, 64\)")

    def test_g_refs_out_of_range(self, doc):
        self._rejects(doc, lambda d: d["family"]["g_refs"].__setitem__(1, 500),
                      r"family.g_refs entry 500 outside")

    def test_kept_s_out_of_range(self, doc):
        self._rejects(doc, lambda d: d["kept_s"].__setitem__(3, 64), r"kept_s entry 64 outside")

    def test_negative_kept_s(self, doc):
        self._rejects(doc, lambda d: d["kept_s"].__setitem__(0, -1), r"kept_s entry -1 outside")

    def test_short_z(self, doc):
        self._rejects(doc, lambda d: d["z"].pop(), r"z has length 3, expected 4")

    def test_short_hat_w(self, doc):
        self._rejects(doc, lambda d: d["family"]["hat_w"][2].clear(),
                      r"hat_w\[2\] has length 0, expected 1")

    def test_hat_w_count_differs_from_g_refs(self, doc):
        self._rejects(doc, lambda d: d["family"]["hat_w"].pop(), r"3 hat_w rows for 4 g_refs")

    def test_alphas_length_differs_from_hs(self, doc):
        self._rejects(doc, lambda d: d["alphas"].pop(), r"equal length")

    @pytest.mark.parametrize("path", [("D",), ("Y",), ("X",), ("family", "W")])
    def test_matrix_shape(self, doc, path):
        def edit(d):
            obj = d
            for key in path:
                obj = obj[key]
            obj["rows"] -= 1
            obj["entries"].pop()

        self._rejects(doc, edit, r"has shape")

    def test_lambda_kind_needs_lambda(self, dihedral_5_11):
        cert = lambda_variant(dihedral_5_11, dihedral_5_11.generators[0], 3)
        doc = json.loads(canonical_json(cert_to_json(cert)))
        assert verify_cert_json(doc).passed
        self._rejects(doc, lambda d: d.__setitem__("lambda", None), r"without a lambda")


def test_large_prime_cert_round_trip():
    from rep2ldc.fixtures import signed_shift_group

    g = signed_shift_group(4, 2147483647)
    cert = build_special_2ldc(g, g.generators[0], seed=0)
    doc = json.loads(canonical_json(cert_to_json(cert)))
    back = cert_from_json(doc)
    assert back.code.vectors == cert.code.vectors
    report = verify_cert_json(doc)
    assert report.passed and not report.failures
