"""Values built only when read: a matching's `sets` tuples, and a closed
group's `words` and `index`.  Building, writing and checking a certificate
reads none of them; once read, each equals the value computed directly."""

import json

import numpy as np
import pytest
from helpers import LADDER

from rep2ldc import groups
from rep2ldc.certcheck import cert_from_json, verify_cert
from rep2ldc.construct import build_q_ldc, build_special_2ldc, lambda_variant
from rep2ldc.fixtures import parse_fixture
from rep2ldc.groups import MatrixGroup, close_group
from rep2ldc.ldc import QMatching
from rep2ldc.serialize import canonical_json, cert_to_json

# signed_shift(10,3) gets no certificate here, as in the baseline table
# (BUILD_NOT_RUN in perfbench/harness.py)
CERT_LADDER = LADDER[:-1]


def _build(group, kind):
    h = group.generators[0]
    if kind == "special2":
        return build_special_2ldc(group, h)
    if kind == "lambda":
        return lambda_variant(group, h, 1)
    return build_q_ldc(group, [h, group.generators[1], group.identity_pos], [1, 1, -2])


@pytest.fixture
def sets_reads(monkeypatch):
    """Every read of a matching's `sets` tuples, in order."""
    reads, read = [], QMatching.sets.fget
    monkeypatch.setattr(QMatching, "sets", property(lambda mi: reads.append(mi) or read(mi)))
    return reads


@pytest.fixture
def words_reads(monkeypatch):
    """Every derivation of a group's words, in order."""
    reads, derive = [], groups._words
    monkeypatch.setattr(groups, "_words", lambda *args: reads.append(args) or derive(*args))
    return reads


@pytest.mark.parametrize("fixture, kind", [
    ("signed_shift(4,3)", "special2"),
    ("signed_shift(4,3)", "lambda"),
    ("signed_shift(4,3)", "general"),
    ("signed_shift(4,0)", "special2"),
    ("dihedral(5,11)", "special2"),
])
def test_build_write_and_check_read_none(fixture, kind, sets_reads, words_reads):
    group = parse_fixture(fixture)
    cert = _build(group, kind)
    text = canonical_json(cert_to_json(cert))
    parsed = cert_from_json(json.loads(text))
    report = verify_cert(parsed)
    assert report.passed
    assert sets_reads == [] and words_reads == []
    for g in (group, parsed.group):
        assert g._index is None and g._words is None


def test_close_group_defers_words_and_index(signed_shift_4_3, words_reads):
    gens = [signed_shift_4_3.matrix(u) for u in signed_shift_4_3.generators]
    want = signed_shift_4_3.words
    words_reads.clear()
    g = close_group(gens)
    assert g._index is None and g._words is None
    assert g.generators == signed_shift_4_3.generators
    g.left_perm(5)
    assert g._index is None and g._words is None and words_reads == []
    assert g.position_of(g.matrix(37)) == 37
    assert g._words is None and words_reads == []
    assert g.words == want and len(words_reads) == 1
    assert g.words is g.words and len(words_reads) == 1


@pytest.mark.parametrize("fixture", LADDER)
def test_derived_words_and_index_equal_direct_ones(fixture):
    """Each word ends in a generator letter after an earlier element's
    word, the elements come in order of word length, and each element is
    its parent's product with that generator; index maps each element's
    own Matrix.key to its position.  A copy given both replays and agrees."""
    g = parse_fixture(fixture)
    field, stack, words = g.field, g.stacked(), g.words
    assert words[0] == () and len(words) == len(g)
    assert all(len(u) <= len(w) for u, w in zip(words, words[1:]))
    at = {w: s for s, w in enumerate(words)}
    parent = np.array([at[w[:-1]] for w in words[1:]])
    letter = np.array([w[-1] for w in words[1:]])
    assert (parent < np.arange(1, len(g))).all()
    gens = np.stack([g.matrix(u).a for u in g.generators])
    assert (field.reduce(np.matmul(stack[parent], gens[letter])) == stack[1:]).all()
    assert g.index == {g.matrix(s).key(): s for s in range(len(g))}
    copy = MatrixGroup(field, g.dim, list(g.elements), g.index, g.generators, g.words)
    assert copy.left_perm(1).tolist() == g.left_perm(1).tolist()


@pytest.mark.parametrize("fixture", CERT_LADDER)
def test_derived_sets_equal_the_file_rows(fixture):
    group = parse_fixture(fixture)
    cert = build_special_2ldc(group, group.generators[0])
    doc = json.loads(canonical_json(cert_to_json(cert)))
    parsed = cert_from_json(doc)
    for j, rows in enumerate(doc["code"]["matchings"]):
        want = tuple(tuple(sorted(r)) for r in rows)
        assert cert.code.matchings[j].sets == want
        assert parsed.code.matchings[j].sets == want
        assert all(type(x) is int for s in parsed.code.matchings[j].sets for x in s)
