"""verify_cert's report on single edits of correct certificates.

Each edit breaks one stated part of a certificate (its pre-filter matching,
survivor counts, z, deltas or one code vector) and the full failure tuple,
messages and order, is pinned: the checks of the pre-filter guarantee, the
survivor bound, the density floor, the code's shape and the tuple identity
must keep reporting as they do wherever their rules are decided.  A
semantic edit of a certificate's JSON document (one residue, matching
member or kept_s entry) never reads as a passing certificate.
"""

import dataclasses
import functools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc.certcheck import cert_from_json, verify_cert
from rep2ldc.construct import build_q_ldc, build_special_2ldc, lambda_variant
from rep2ldc.errors import ParseError
from rep2ldc.fields import rational_from_json
from rep2ldc.fixtures import parse_fixture
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import canonical_json, cert_to_json

SIZE = "prefilter size differs from kept_s length"
GAMMA = "pre-filter density differs from gamma/2"
GREEDY = "pre-filter size below |G|/q^2"
DISJOINT = "pre-filter tuples are not disjoint"
COUNT = "beta_nonzero_count differs from recomputed survivors"
FRACTION = "surviving fraction below 1 - 1/|F|"
LOST = "rational certificate lost tuples"
MATCHINGS = "code matchings differ from the filtered tuple family"
ORBIT = "code vectors are not W^T rho(s) z"
IDENTITY = "tuple identity failed: tuple identity fails at (j=0, s=0)"
ACHIEVED = "achieved_delta differs from matching counts"
BELOW = "achieved_delta below the guaranteed floor"
CLAIMED = "claimed_delta differs from the guaranteed floor"

CASES = {
    "signed_shift(4,3) special2": (GAMMA, FRACTION, 62),
    "signed_shift(4,3) lambda": (GAMMA, FRACTION, 62),
    "signed_shift(4,3) general": (None, FRACTION, 61),
    "dihedral(5,11) special2": (GAMMA, FRACTION, 6),
    "signed_shift(4,0) special2": (GAMMA, LOST, 62),
}


def _expected(case: str, edit: str) -> tuple[str, ...]:
    """The pinned report: `prefilter` is the pre-filter message a dropped
    or an added kept_s entry raises (the general kind's greedy tuples still
    clear |G|/q^2), `survivors` the field's surviving-fraction message and
    `vector_s` the first s whose tuple identity a bumped last entry of code
    vector |G| - 1 breaks (at j = 0, since every translate's tuples cover
    every position)."""
    prefilter, survivors, vector_s = CASES[case]
    return {
        "drop-last-kept": tuple(x for x in (SIZE, prefilter, COUNT, MATCHINGS, ACHIEVED) if x),
        "add-kept": tuple(x for x in (SIZE, DISJOINT, prefilter, COUNT, MATCHINGS, ACHIEVED) if x),
        "prefilter-size+1": (SIZE,),
        "beta-count0+1": (COUNT,),
        "z-zero": (COUNT, survivors, MATCHINGS, ORBIT, IDENTITY, ACHIEVED),
        "achieved+1/m": (ACHIEVED,),
        "achieved-zero": (ACHIEVED, BELOW),
        "claimed-halved": (CLAIMED,),
        "kept-below-G/q2": (SIZE, GREEDY, COUNT, MATCHINGS, ACHIEVED),
        "vector-entry+1": (ORBIT, f"tuple identity failed: tuple identity fails at "
                                  f"(j=0, s={vector_s})"),
    }[edit]


@functools.lru_cache(maxsize=None)
def _cert(case: str):
    fixture, kind = case.split()
    g = parse_fixture(fixture)
    g0, g1 = g.generators[0], g.generators[1]
    if kind == "special2":
        return build_special_2ldc(g, g0)
    if kind == "lambda":
        return lambda_variant(g, g0, 1)
    h2 = g.mul(g.mul(g1, g0), g.inv(g1))
    return build_q_ldc(g, [g0, h2, g.identity_pos], [1, 1, -2])


def _edit(cert, edit: str):
    m = len(cert.group)
    replace = functools.partial(dataclasses.replace, cert)
    if edit == "drop-last-kept":
        return replace(kept_s=cert.kept_s[:-1])
    if edit == "add-kept":  # the first s not kept: one of its tuple's members is taken
        return replace(kept_s=cert.kept_s + (min(set(range(m)) - set(cert.kept_s)),))
    if edit == "prefilter-size+1":
        return replace(prefilter_size=cert.prefilter_size + 1)
    if edit == "beta-count0+1":
        counts = cert.beta_nonzero_count
        return replace(beta_nonzero_count=(counts[0] + 1,) + counts[1:])
    if edit == "z-zero":
        return replace(z=np.zeros_like(cert.z))
    if edit == "achieved+1/m":
        return replace(achieved_delta=cert.achieved_delta + Fraction(1, m))
    if edit == "achieved-zero":
        return replace(achieved_delta=Fraction(0))
    if edit == "claimed-halved":
        return replace(code=dataclasses.replace(cert.code,
                                                claimed_delta=cert.code.claimed_delta / 2))
    if edit == "vector-entry+1":  # the last entry of a_{|G|-1}, in the unscaled block
        field, a = cert.group.field, cert.code.vectors.a.copy()
        a[m - 1, -1] = field.canon(a[m - 1, -1] + 1)
        return replace(code=dataclasses.replace(cert.code, vectors=Matrix.from_array(field, a)))
    assert edit == "kept-below-G/q2"
    q = len(cert.hs)
    keep = -(-m // (q * q)) - 1  # the largest count with keep * q^2 < |G|
    return replace(kept_s=cert.kept_s[:keep])


EDITS = ["drop-last-kept", "add-kept", "prefilter-size+1", "beta-count0+1", "z-zero",
         "achieved+1/m", "achieved-zero", "claimed-halved", "vector-entry+1"]
PAIRS = [(case, edit) for case in CASES for edit in EDITS] + [
    ("signed_shift(4,3) general", "kept-below-G/q2")]


@pytest.mark.parametrize("case", list(CASES))
def test_unedited_certificate_passes(case):
    assert verify_cert(_cert(case)).passed


@pytest.mark.parametrize("case, edit", PAIRS, ids=[f"{c}-{e}" for c, e in PAIRS])
def test_single_edit_report_is_pinned(case, edit):
    report = verify_cert(_edit(_cert(case), edit))
    assert report.failures == _expected(case, edit)
    assert not report.passed


# -- semantic edits of the JSON document ---------------------------------------

@functools.lru_cache(maxsize=None)
def _doc_text(case: str) -> str:
    return canonical_json(cert_to_json(_cert(case)))


@st.composite
def semantic_edit(draw):
    """A certificate document after one edit that keeps it well-formed
    JSON of the right shape: one residue of z, of one hat_w, of W or of one
    code vector bumped by 1, one matching member moved to another position
    of the code, or one kept_s entry dropped."""
    doc = json.loads(_doc_text(draw(st.sampled_from(list(CASES)))))
    char = doc["group"]["field"]["char"]
    family, code = doc["family"], doc["code"]

    def index(seq):
        return draw(st.integers(0, len(seq) - 1))

    what = draw(st.sampled_from(["z", "hat_w", "W", "vector", "member", "kept_s"]))
    if what == "kept_s":
        del doc["kept_s"][index(doc["kept_s"])]
        return doc
    if what == "member":
        sets = code["matchings"][index(code["matchings"])]
        members = sets[index(sets)]
        k = index(members)
        members[k] = (members[k] + draw(st.integers(1, code["m"] - 1))) % code["m"]
        return doc
    rows = {"z": [doc["z"]], "hat_w": family["hat_w"], "W": family["W"]["entries"],
            "vector": code["vectors"]}[what]
    row = rows[index(rows)]
    k = index(row)
    row[k] = (row[k] + 1) % char if char else str(rational_from_json(row[k]) + 1)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=semantic_edit())
def test_a_semantic_edit_never_passes(doc):
    """Each edit changes what the certificate states, so it is refused
    either as a ParseError or by a failing report; no other exception."""
    try:
        cert = cert_from_json(doc)
    except ParseError:
        return
    assert not verify_cert(cert).passed
