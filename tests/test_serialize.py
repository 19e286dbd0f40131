import io
import json
import re
import time
from fractions import Fraction
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import groups
from rep2ldc.certcheck import cert_from_json, verify_cert_json
from rep2ldc.cli import main
from rep2ldc.construct import build_special_2ldc, lambda_variant
from rep2ldc.errors import ParseError
from rep2ldc.fields import GF, QQ
from rep2ldc.fixtures import dihedral_rep, parse_fixture
from rep2ldc.groups import close_group
from rep2ldc.ldc import hadamard
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import (
    canonical_json,
    cert_to_json,
    detect_kind,
    dump_json,
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

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_matrix_keeps_its_declared_shape(self, field, shape):
        m = Matrix.zeros(field, *shape)
        doc = matrix_to_json(m)
        assert matrix_from_json(doc) == m
        assert matrix_from_json(doc).a.shape == shape

    def test_negative_width_rejected(self):
        doc = matrix_to_json(Matrix.zeros(F3, 0, 2))
        doc["cols"] = -1
        with pytest.raises(ParseError, match="do not match declared shape"):
            matrix_from_json(doc)

    def test_shape_mismatch_rejected(self):
        doc = matrix_to_json(Matrix.identity(F3, 2))
        doc["rows"] = 3
        with pytest.raises(ParseError):
            matrix_from_json(doc)

    def test_residue_type_enforced(self):
        for entry in ["1/2", 1.0, True]:
            doc = matrix_to_json(Matrix.identity(F3, 2))
            doc["entries"][0][0] = entry
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

    def test_dimension_zero_is_refused_by_name(self):
        """A 0 x 0 generator would reach the closure's BFS and die in a
        numpy reshape; the spec's dim and close_group refuse it first."""
        empty = matrix_to_json(Matrix.zeros(F3, 0, 0))
        with pytest.raises(ParseError, match="^dim must be at least 1, got 0$"):
            group_from_spec_json({"field": {"char": 3}, "dim": 0, "generators": [empty]})
        with pytest.raises(ValueError, match="at least 1 x 1$"):
            close_group([Matrix.zeros(F3, 0, 0)])

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

    def test_recorded_cap_ignores_the_environment(self, tmp_path):
        """--cap bounds the closure; the spec records the default cap, so
        the file and its group_hash match a run without --cap."""
        argv = ["construct", "--fixture", "signed_shift(4,3)", "--special2", "--h", "1"]
        assert main([*argv, "--output", str(tmp_path / "plain.json")]) == 0
        assert main([*argv, "--cap", "100", "--output", str(tmp_path / "capped.json")]) == 0
        doc = json.loads((tmp_path / "capped.json").read_text())
        assert doc["group"]["cap"] == 200_000
        assert (tmp_path / "capped.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_recorded_cap_holds_the_group(self, monkeypatch):
        """A group above the default cap records its own size, so its
        certificate re-verifies without repeating the cap."""
        monkeypatch.setattr(groups, "DEFAULT_CAP", 10)
        g = parse_fixture("signed_shift(4,3)", cap=100)
        doc = json.loads(canonical_json(cert_to_json(build_special_2ldc(g, g.generators[0]))))
        assert doc["group"]["cap"] == 64
        assert verify_cert_json(doc).passed


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

    @pytest.mark.parametrize("change, message", [
        ({"t": 0, "vectors": [[]] * 4, "matchings": []}, "t must be at least 1, got 0"),
        ({"m": -1}, "m must be at least 1, got -1"),
        ({"claimed_delta": 0.5}, "claimed_delta must be a string, got 0.5"),
        ({"claimed_delta": "1/0"}, "bad claimed_delta '1/0'"),
    ], ids=["t-zero", "m-negative", "delta-number", "delta-zero-denominator"])
    def test_hostile_fields_rejected(self, change, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            ldc_from_json({**ldc_to_json(hadamard(2, F3)), **change})

    def test_matching_rows_read_into_int64_arrays(self):
        """Each coordinate's rows become one (k, q) int64 array."""
        doc = ldc_to_json(hadamard(3, F3))
        for mi, rows in zip(ldc_from_json(doc).matchings, doc["matchings"]):
            assert mi.members.dtype == np.int64 and mi.members.tolist() == rows

    # the texts of the set rule, which reads the rows as QMatching's `sets`:
    # it names a member that is not an integer, and a row without a length
    # raises len's TypeError
    @pytest.mark.parametrize("rows, message", [
        ([[0, 1], [2, 3, 4]], "bad ldc object: set (2, 3, 4) does not have exactly q=2 members"),
        ([[0, 1], [2, 1.5]], "bad ldc object: set member 1.5 is not an integer"),
        ([[0, 1], [2, True]], "bad ldc object: set member True is not an integer"),
        ([[0, 1], [2, "3"]], "bad ldc object: set member '3' is not an integer"),
        ([[0, 1], "23"], "bad ldc object: set member '2' is not an integer"),
        ({"a": 1}, "bad ldc object: set member 'a' is not an integer"),
        ([[0, 1], 5], "bad ldc object: object of type 'int' has no len()"),
        ([[0, 1], None], "bad ldc object: object of type 'NoneType' has no len()"),
        ([[0, 1], [2, 2**63]], "bad ldc object: set member does not fit in int64"),
        ([[0, 1], [-2**63 - 1, 3]], "bad ldc object: set member does not fit in int64"),
        ([[3, 0], [2, 2]], "bad ldc object: set (2, 2) does not have exactly q=2 members"),
    ], ids=["ragged", "float", "bool", "string-member", "string-row", "object", "int-row",
            "null-row", "past-int64", "below-int64", "repeat"])
    def test_rows_off_the_array_path_keep_their_messages(self, rows, message):
        doc = ldc_to_json(hadamard(2, F3))
        doc["matchings"][0] = rows
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            ldc_from_json(doc)

    def test_no_rows_read_as_an_empty_matching(self):
        doc = ldc_to_json(hadamard(2, F3))
        doc["matchings"][0] = []
        back = ldc_from_json(doc).matchings[0]
        assert back.size == 0 and back.sets == () and back.members.shape == (0, 2)

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

    @pytest.mark.parametrize("hs", [[1, 2], [1, 0, 0], [0, 1]])
    def test_lambda_hs_other_than_h_and_identity(self, signed_shift_4_3, hs):
        # the builders write hs = (h, identity); the identity is element 0
        g = signed_shift_4_3
        doc = json.loads(canonical_json(cert_to_json(lambda_variant(g, g.generators[0], 1))))

        def edit(d):
            d["hs"] = hs
            d["alphas"] = (d["alphas"] * 2)[:len(hs)]

        self._rejects(doc, edit, "^" + re.escape(
            f"lambda certificate hs must be (h, 0), the identity second; got {hs}") + "$")

    def test_empty_family(self, doc):
        # verify_cert stacks the family's vectors, which an empty family lacks
        def edit(d):
            w = d["family"]["W"]
            d["family"].update(g_refs=[], hat_w=[])
            w.update(cols=0, entries=[[]] * w["rows"])

        self._rejects(doc, edit, r"^the number of family.g_refs must be at least 1, got 0$")

    def test_family_longer_than_n(self, doc):
        # 20,000 copies of the 4 translates: every member is redundant, and
        # the "all but k" checks of so long a family would need tens of GB
        def edit(d):
            family, copies = d["family"], 5000
            family["g_refs"] *= copies
            family["hat_w"] *= copies
            w = family["W"]
            w.update(cols=w["cols"] * copies, entries=[row * copies for row in w["entries"]])

        self._rejects(doc, edit, r"^the number of family.g_refs must be at most n = 4, got 20000$")

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


@pytest.fixture(scope="module")
def cert_doc(signed_shift_4_3):
    g = signed_shift_4_3
    return json.loads(canonical_json(cert_to_json(build_special_2ldc(g, g.generators[0]))))


# (document, path to an integer field, name the error gives).  Parsing these
# fields with int() truncated 1.5 and converted "1" or True, so a tampered
# file could still verify.
INTEGER_FIELDS = [
    ("ldc", ("t",), "t"),
    ("ldc", ("m",), "m"),
    ("ldc", ("q",), "q"),
    ("ldc", ("matchings", 0, 0, 1), "matchings"),
    ("cert", ("hs", 0), "hs"),
    ("cert", ("kept_s", 0), "kept_s"),
    ("cert", ("family", "g_refs", 0), "family.g_refs"),
    ("cert", ("R",), "R"),
    ("cert", ("prefilter_size",), "prefilter_size"),
    ("cert", ("beta_nonzero_count", 0), "beta_nonzero_count"),
    ("cert", ("seed",), "seed"),
    ("cert", ("code", "matchings", 0, 0, 0), "matchings"),
    ("cert", ("group", "dim"), "dim"),
    ("cert", ("group", "cap"), "cap"),
    ("cert", ("group", "field", "char"), "field.char"),
    ("cert", ("group", "generators", 0, "rows"), "rows"),
    ("cert", ("D", "cols"), "cols"),
]


@pytest.mark.parametrize("change", [lambda v: v + 0.5, lambda v: float(v), str, bool],
                         ids=["plus-half", "float", "string", "bool"])
@pytest.mark.parametrize("kind, path, name", INTEGER_FIELDS,
                         ids=[f"{k}-{n}" for k, _, n in INTEGER_FIELDS])
def test_integer_field_must_be_an_int(cert_doc, kind, path, name, change, tmp_path, capsys):
    doc = json.loads(json.dumps(cert_doc if kind == "cert" else cert_doc["code"]))
    parent = reduce(lambda obj, key: obj[key], path[:-1], doc)
    value = parent[path[-1]] = change(parent[path[-1]])
    # QMatching's set rule reads a matching member, and names the member
    message = (f"bad ldc object: set member {value!r} is not an integer"
               if name == "matchings" else f"{name} must be an integer")
    parse = cert_from_json if kind == "cert" else ldc_from_json
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse(doc)
    dump_json(doc, str(tmp_path / "tampered.json"))
    assert main(["verify", "--input", str(tmp_path / "tampered.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [1.0, 0.5, True, None, "1/0"],
                         ids=["float-one", "float-half", "bool", "null", "zero-denominator"])
def test_rational_scalar_must_be_a_string_or_int(signed_shift_4_q, value, tmp_path, capsys):
    """Over QQ, z[0] = "1" may be written 1 but not 1.0 or true."""
    g = signed_shift_4_q
    doc = json.loads(canonical_json(cert_to_json(build_special_2ldc(g, g.generators[0]))))
    assert doc["z"][0] == "1"
    doc["z"][0] = 1
    assert verify_cert_json(doc).passed
    doc["z"][0] = value
    with pytest.raises(ParseError, match=rf"^cannot parse rational scalar {re.escape(repr(value))}$"):
        cert_from_json(doc)
    dump_json(doc, str(tmp_path / "tampered.json"))
    assert main(["verify", "--input", str(tmp_path / "tampered.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot parse rational scalar {value!r}\n"


@pytest.mark.parametrize("text", ["1e10000000", "0.5", " 1/2 ", "1_0", "+3", "\u0661/2"],
                         ids=["exponent", "decimal", "spaces", "underscore", "plus",
                              "arabic-indic-digit"])
def test_rationals_read_in_one_grammar(text):
    """Fraction() takes each of these, the exponent only after seconds; the
    readers take -?[0-9]+(/[0-9]+)? alone, what the writer emits, and refuse
    the rest at once."""
    start = time.process_time()
    with pytest.raises(ParseError, match=r"^bad claimed_delta "):
        ldc_from_json({**ldc_to_json(hadamard(2, F3)), "claimed_delta": text})
    with pytest.raises(ParseError, match=r"^cannot parse rational scalar "):
        QQ.scalar_from_json(text)
    with pytest.raises(ParseError, match=r"^cannot parse rational scalar "):
        QQ.array_from_json([["1/2", text]])
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("value", [0.5, 1, None])
def test_achieved_delta_must_be_a_string(cert_doc, value):
    doc = json.loads(json.dumps(cert_doc))
    doc["achieved_delta"] = value
    with pytest.raises(ParseError, match=r"^achieved_delta must be a string"):
        cert_from_json(doc)


@pytest.mark.parametrize("char", [5, 0], ids=["GF5", "QQ"])
@pytest.mark.parametrize("path, name", [
    (("D",), "D"), (("Y",), "Y"), (("X",), "X"), (("family", "U"), "family.U"),
    (("family", "W"), "family.W"), (("code",), "code"),
])
def test_part_over_another_field(cert_doc, path, name, char, tmp_path, capsys):
    """A part of a GF(3) certificate relabelled GF(5) or QQ was re-read over
    GF(3) (U, code) or failed deep in verify_cert (Y, X)."""
    doc = json.loads(json.dumps(cert_doc))
    reduce(lambda obj, key: obj[key], path, doc)["field"] = {"char": char}
    other = "QQ" if char == 0 else f"GF({char})"
    message = f"{name} is over {other}, the group over GF(3)"
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        cert_from_json(doc)
    dump_json(doc, str(tmp_path / "tampered.json"))
    assert main(["verify", "--input", str(tmp_path / "tampered.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# JSON trees with floats (nan and inf too), unicode keys, nested empties and
# ints far beyond 64 bits
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(min_value=-2**200, max_value=2**200),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_TREES)
def test_writers_skip_the_cycle_check_with_the_same_bytes(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with mock.patch("sys.stdout", new_callable=io.StringIO) as out:
        dump_json(obj)
    assert out.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
