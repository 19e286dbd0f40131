"""Whole-array certificate I/O (Field.array_from_json / array_to_json and
serialize.json_ints) against the one-scalar-at-a-time reader and
writer in helpers.py: the same bytes out, the same ParseError text or an
equal instance in, and a number of scalar calls that does not grow with
the group."""

import copy
import dataclasses
import functools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import (
    reference_cert_from_json,
    reference_cert_to_json,
    reference_group_export_json,
    reference_ldc_from_json,
    reference_ldc_to_json,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc.certcheck import cert_from_json, verify_cert, verify_cert_json
from rep2ldc.construct import build_q_ldc, build_special_2ldc, lambda_variant
from rep2ldc.errors import ParseError
from rep2ldc.fields import GF, QQ, Field
from rep2ldc.fixtures import parse_fixture
from rep2ldc.groups import MatrixGroup
from rep2ldc.ldc import QMatching
from rep2ldc.linalg import Matrix, Subspace
from rep2ldc.serialize import (
    canonical_json,
    cert_to_json,
    group_export_json,
    json_ints,
    ldc_from_json,
    ldc_to_json,
)

KINDS = ("special2", "lambda", "general")
P = object()  # stands for the field's characteristic among the tamper values


@functools.lru_cache(maxsize=None)
def _cert(fixture: str, kind: str):
    """A certificate built as the benchmark builds it at its default seed."""
    g = parse_fixture(fixture)
    g0, g1 = g.generators[0], g.generators[1]
    if kind == "special2":
        return build_special_2ldc(g, g0)
    if kind == "lambda":
        return lambda_variant(g, g0, 1)
    h2 = g.mul(g.mul(g1, g0), g.inv(g1))
    return build_q_ldc(g, [g0, h2, g.identity_pos], [1, 1, -2])


@functools.lru_cache(maxsize=None)
def _doc_text(fixture: str) -> str:
    return canonical_json(cert_to_json(_cert(fixture, "special2")))


# -- writer -------------------------------------------------------------------

WRITER_CASES = [(f"signed_shift(4,{p})", kind) for p in (3, 0, 2147483647) for kind in KINDS] + [
    ("signed_shift(8,3)", kind) for kind in KINDS
]


@pytest.mark.parametrize("fixture, kind", WRITER_CASES, ids=[f"{f}-{k}" for f, k in WRITER_CASES])
def test_writer_bytes_match_the_scalar_writer(fixture, kind):
    cert = _cert(fixture, kind)
    assert canonical_json(cert_to_json(cert)) == canonical_json(reference_cert_to_json(cert))
    assert canonical_json(ldc_to_json(cert.code)) == canonical_json(
        reference_ldc_to_json(cert.code))
    assert canonical_json(group_export_json(cert.group)) == canonical_json(
        reference_group_export_json(cert.group))


def test_writer_on_empty_and_wide_arrays():
    assert GF(3).array_to_json(np.zeros((2, 0), dtype=np.int64)) == [[], []]
    assert QQ.array_to_json(Matrix(QQ, [[1, Fraction(-1, 2)]]).a) == [["1", "-1/2"]]
    assert GF(2147483647).array_to_json(np.array([2147483646])) == [2147483646]


# -- reader -------------------------------------------------------------------

def _normal(x):
    """A comparable form of a parsed object that keeps scalar types, so an
    int64 residue and a Python int, or an int and a Fraction, differ."""
    if isinstance(x, Matrix):
        return ("Matrix", x.field, str(x.a.dtype), x.a.shape, _normal(x.a.tolist()))
    if isinstance(x, np.ndarray):
        return ("ndarray", str(x.dtype), x.shape, _normal(x.tolist()))
    if isinstance(x, Subspace):
        return ("Subspace", x.field, x.ambient_dim, _normal(x.basis))
    if isinstance(x, MatrixGroup):
        return ("MatrixGroup", x.field, x.dim, _normal(x.elements), x.generators, x.words)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _normal(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(map(_normal, x))
    return (type(x).__name__, x)


def _outcome(parse, doc):
    try:
        return ("ok", _normal(parse(copy.deepcopy(doc))))
    except Exception as exc:  # noqa: BLE001 - the oracle's outcome, whatever it is
        return ("raised", type(exc).__name__, str(exc))


def _targets(doc, path=()):
    """Paths of every list element and of every list-valued object member."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) \
        else ()
    for key, value in items:
        if isinstance(doc, list) or isinstance(value, list):
            yield path + (key,)
        yield from _targets(value, path + (key,))


def _apply(doc, path, how, value, char):
    """Set the element at path to value, or drop the last member of the
    list there (how == "shorten"); a path an earlier edit broke is skipped."""
    try:
        parent = functools.reduce(lambda obj, key: obj[key], path[:-1], doc)
        target = parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return
    if how == "shorten":
        if isinstance(target, list) and target:
            target.pop()
    else:
        parent[path[-1]] = char if value is P else copy.deepcopy(value)


# An entry or member set to each of these; a row or set set to one of them
# but the list [1]; or a list shortened by one.
VALUES = [1.5, True, "x", None, 2**70, -1, P, [1], {}]
INTEGERS = (2**70, -1, P)
FIXTURES = ["signed_shift(4,3)", "signed_shift(4,2147483647)", "signed_shift(4,0)"]


def _document(fixture: str, part: str):
    doc = json.loads(_doc_text(fixture))
    return doc["code"] if part == "ldc" else doc


@functools.lru_cache(maxsize=None)
def _paths(fixture: str, part: str) -> list:
    return sorted(_targets(_document(fixture, part)), key=repr)


@st.composite
def tampered(draw, part):
    """(fixture, document): the fixture's document after 1-3 edits."""
    fixture = draw(st.sampled_from(FIXTURES))
    doc, paths = _document(fixture, part), _paths(fixture, part)
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        how = draw(st.sampled_from(["set", "shorten"]))
        values = VALUES
        if path[0] == "group":
            # a valid residue there would change the group and re-close it,
            # possibly up to the element cap: only values that fail to parse
            values = [v for v in VALUES if v not in INTEGERS]
        edits.append((path, how, draw(st.sampled_from(values))))
    char = doc["field"]["char"] if part == "ldc" else doc["group"]["field"]["char"]
    for path, how, value in edits:
        _apply(doc, path, how, value, char)
    return fixture, doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tamper=tampered("ldc"))
def test_tampered_ldc_reads_as_the_scalar_reader_reads_it(tamper):
    _, doc = tamper
    assert _outcome(ldc_from_json, doc) == _outcome(reference_ldc_from_json, doc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tamper=tampered("cert"))
def test_tampered_cert_reads_as_the_scalar_reader_reads_it(tamper):
    """A document that parses gets a report, never an exception, and the
    report passes exactly when the certificate it reads as is the
    untampered one (an entry replaced by an equal residue still is)."""
    fixture, doc = tamper
    outcome = _outcome(cert_from_json, doc)
    assert outcome == _outcome(reference_cert_from_json, doc)
    if outcome[0] == "ok":
        cert = cert_from_json(copy.deepcopy(doc))
        report = verify_cert(cert)
        assert report.passed == (canonical_json(cert_to_json(cert)) == _doc_text(fixture))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_untampered_cert_reads_as_the_scalar_reader_reads_it(fixture):
    doc = json.loads(_doc_text(fixture))
    outcome = _outcome(cert_from_json, doc)
    assert outcome[0] == "ok"
    assert outcome == _outcome(reference_cert_from_json, doc)


@pytest.mark.parametrize("field", [GF(3), GF(2147483647), QQ], ids=repr)
@pytest.mark.parametrize("rows", [
    [[1, "x"], 5],         # a bad entry before a row that is not a list
    [[1, 2], [3, True]],
    [[1, 2], [3]],         # ragged
    "ab",
    [{"a": 1}],
    [[2**70, -1]],
    [[1, "1/0"], [None]],
    [],
    [[], []],
], ids=repr)
def test_array_from_json_matches_the_scalar_walk(field, rows):
    def scalar_walk():
        data = [[field.scalar_from_json(x) for x in row] for row in rows]
        return field.array(data)

    def outcome(f):
        try:
            a = f()
            return ("ok", str(a.dtype), a.shape, _normal(a.tolist()))
        except Exception as exc:  # noqa: BLE001
            return ("raised", type(exc).__name__, str(exc))

    assert outcome(lambda: field.array_from_json(rows)) == outcome(scalar_walk)


def test_json_ints_names_the_first_offender():
    assert json_ints([1, 2, 3], "m") == (1, 2, 3) and json_ints((), "m") == ()
    with pytest.raises(ParseError, match=r"^m must be an integer, got 'x'$"):
        json_ints([1, "x", 2.0], "m")
    with pytest.raises(ParseError, match=r"^m must be an integer, got True$"):
        json_ints([1, True], "m")
    with pytest.raises(TypeError, match="not iterable"):
        json_ints(5, "m")


# -- scalar calls do not grow with the group ------------------------------------

def _scalar_calls(fixture):
    """Field.canon, scalar_from_json and scalar_to_json calls made while
    writing and reading back a special2 certificate of the fixture."""
    cert = _cert(fixture, "special2")
    counts = dict.fromkeys(("canon", "scalar_from_json", "scalar_to_json"), 0)

    def counting(name):
        original = getattr(Field, name)

        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)
        return wrapper

    with mock.patch.multiple(Field, **{name: counting(name) for name in counts}):
        doc = json.loads(canonical_json(cert_to_json(cert)))
        ldc_to_json(cert.code)
        back = cert_from_json(doc)
    assert len(back.group) == len(cert.group)
    return counts, len(cert.group)


def test_scalar_calls_do_not_grow_with_the_group():
    small, m_small = _scalar_calls("dihedral(5,11)")
    large, m_large = _scalar_calls("dihedral(50,101)")
    assert (m_small, m_large) == (10, 100)
    assert small == large


# -- code form against certificate kind ------------------------------------------

@pytest.mark.parametrize("kind", ["special2", "lambda"])
def test_code_form_must_match_the_kind(kind):
    """Relabelled general, the code of a special2 or lambda certificate
    skips the entropy audit; the report names the relabelling."""
    doc = json.loads(canonical_json(cert_to_json(_cert("signed_shift(4,3)", kind))))
    assert verify_cert_json(doc).passed
    doc["code"]["form"] = "general"
    report = verify_cert_json(doc)
    assert not report.passed and report.audit is None
    assert report.failures == (
        f"code form 'general' differs from 'special2', the form of a {kind} certificate",)


def test_code_form_of_a_general_certificate():
    cert = _cert("dihedral(5,11)", "general")
    assert verify_cert(cert).passed
    code = dataclasses.replace(cert.code, form="special2", q=2,
                               matchings=(QMatching(2, ()),) * cert.code.t)
    report = verify_cert(dataclasses.replace(cert, code=code))
    assert "code form 'special2' differs from 'general', the form of a general certificate" \
        in report.failures


# -- the lambda field ------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_missing_lambda_refused(kind):
    doc = json.loads(canonical_json(cert_to_json(_cert("signed_shift(4,3)", kind))))
    del doc["lambda"]
    with pytest.raises(ParseError, match=r"^bad certificate document: 'lambda'$"):
        cert_from_json(doc)


@pytest.mark.parametrize("kind", ["special2", "general"])
@pytest.mark.parametrize("value", [0, 1, 2])
def test_lambda_outside_the_lambda_kind_refused(kind, value):
    """The converse of "lambda certificate without a lambda": a special2
    or general certificate that states a lambda, even 0, is refused."""
    doc = json.loads(canonical_json(cert_to_json(_cert("signed_shift(4,3)", kind))))
    assert doc["lambda"] is None and verify_cert_json(doc).passed
    doc["lambda"] = value
    with pytest.raises(ParseError, match=rf"^{kind} certificate with a lambda$"):
        cert_from_json(doc)
