"""verify_cert's report on single edits of correct certificates.

Each edit breaks one stated part of a certificate (its pre-filter matching,
survivor counts, z, deltas or one code vector) and the full failure tuple,
messages and order, is pinned: the checks of the pre-filter guarantee, the
survivor bound, the density floor, the code's shape and the tuple identity
must keep reporting as they do wherever their rules are decided.  A
semantic edit of a certificate's JSON document (one residue, alpha,
matching member, kept_s, g_refs or hs entry, or U's basis) never reads as
a passing certificate unless it states another valid one, and its failures
are those of the family checks run in their pre-lemma order
(`helpers.reference_validate_family`), so the lemma that proves a family
irredundant hides no message; a duplicated g_ref and a U other than Y's
column span with a redundant family are pinned.  rank(X) is taken only
when the factorization or rank(D) = R fails, with the same message.

The tuple identities are proved from the factorization, family and orbit
checks: a passing certificate never recomputes them, a failed premise
does, and the report names an identity failure exactly when the
recomputation finds one.  A passing certificate forms rho(s) z once, and
on every edit the survivor mask and orbit verdict of that one product are
those of the two products it replaced.  The one-pass matching comparison
agrees with two lexsorts on families built to differ.

The code report is proved from the same premises, the matching
comparison, the code's shape and the alpha condition of the special2
form: a passing certificate never runs ldc.verify, a failed premise does,
and on every edit the report is the one ldc.verify gives.  Certificates
built past the builder's self-check, whose alphas are not (c, -c) or whose
lambda kind's second element is not the identity, fall back to it.
"""

import dataclasses
import functools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    reference_beta_mask,
    reference_orbit_check,
    reference_same_sets,
    reference_validate_family,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rep2ldc import certcheck, construct, ldc
from rep2ldc.certcheck import _same_sets, cert_from_json, verify_cert
from rep2ldc.cli import main
from rep2ldc.construct import (
    beta_table,
    build_q_ldc,
    build_special_2ldc,
    check_spanning_identities,
    lambda_variant,
    orbit_projection_check,
)
from rep2ldc.errors import ParseError, Rep2LdcError
from rep2ldc.fields import rational_from_json
from rep2ldc.fixtures import parse_fixture
from rep2ldc.ldc import QMatching
from rep2ldc.linalg import Matrix, Subspace, rank
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
    if edit == "alpha0+1":
        field = cert.group.field
        return replace(alphas=(field.canon(cert.alphas[0] + 1),) + cert.alphas[1:])
    if edit == "X-entry+1":
        field, x = cert.group.field, cert.X.a.copy()
        x[0, 0] = field.canon(x[0, 0] + 1)
        return replace(X=Matrix.from_array(field, x))
    if edit == "W-entry+1":
        field, w = cert.group.field, cert.family.W.a.copy()
        w[0, 0] = field.canon(w[0, 0] + 1)
        return replace(family=dataclasses.replace(cert.family, W=Matrix.from_array(field, w)))
    if edit == "hat_w-entry+1":
        field, hats = cert.group.field, list(cert.family.hat_w)
        hats[0] = hats[0].copy()
        hats[0][0] = field.canon(hats[0][0] + 1)
        return replace(family=dataclasses.replace(cert.family, hat_w=tuple(hats)))
    if edit == "g_ref-duplicated":  # the second translate is the first again
        g_refs = cert.family.g_refs
        return replace(family=dataclasses.replace(cert.family,
                                                  g_refs=g_refs[:1] * 2 + g_refs[2:]))
    if edit == "U-whole-space":
        field, n = cert.group.field, cert.group.dim
        whole = Subspace(field, n, Matrix(field, np.eye(n, dtype=np.int64)))
        return replace(family=dataclasses.replace(cert.family, U=whole))
    if edit == "X-rank-dropped":  # the last column of X zeroed
        field, x = cert.group.field, cert.X.a.copy()
        x[:, -1] = field.canon(0)
        return replace(X=Matrix.from_array(field, x))
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


# -- family edits: no lemma hides a message --------------------------------------

FAMILY_INVALID = "spanning family invalid: "
# t >= 2: dihedral(5,11)'s family is one translate
FAMILY_CASES = [case for case in CASES if not case.startswith("dihedral")]
FAMILY_EDITS = {
    # the two first translates coincide, so the family loses a dimension;
    # matching 1 reads g_0's positions and its identity fails at once
    "g_ref-duplicated": (FAMILY_INVALID + "translates do not span the space", MATCHINGS,
                         "tuple identity failed: tuple identity fails at (j=1, s=0)"),
    # every translate is F^n, so the family is redundant; W, hat_w and the
    # identities, which read Y and not U, still hold
    "U-whole-space": ("U is not the column span of Y", FAMILY_INVALID + "translate 0 is redundant"),
}
FAMILY_PAIRS = [(case, edit) for case in FAMILY_CASES for edit in FAMILY_EDITS]


@pytest.mark.parametrize("case, edit", FAMILY_PAIRS, ids=[f"{c}-{e}" for c, e in FAMILY_PAIRS])
def test_a_family_edit_report_is_pinned(case, edit):
    edited = _edit(_cert(case), edit)
    report = verify_cert(edited)
    assert report.failures == FAMILY_EDITS[edit]
    assert report.failures == _reference_failures(edited)
    assert report.code_report.passed and not report.passed


def _reference_failures(cert) -> tuple[str, ...]:
    """verify_cert's failures with the family checked in the order it had
    before its lemma, every check run (`helpers.reference_validate_family`)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certcheck, "validate_family", reference_validate_family)
        return verify_cert(cert).failures


# -- semantic edits of the JSON document ---------------------------------------

@functools.lru_cache(maxsize=None)
def _doc_text(case: str) -> str:
    return canonical_json(cert_to_json(_cert(case)))


@st.composite
def semantic_edit(draw):
    """A certificate document after one edit that keeps it well-formed
    JSON of the right shape: one residue of z, of one hat_w, of W, of one
    code vector or of one alpha bumped by 1, one entry of a non-pivot
    column of U's reduced basis bumped by 1 (so U is another subspace), one
    matching member moved to another position of the code, one entry of
    family.g_refs or hs moved to another element, or one kept_s entry
    dropped.  Returns (what, doc), `what` naming the part edited."""
    case = draw(st.sampled_from(list(CASES)))
    doc = json.loads(_doc_text(case))
    char = doc["group"]["field"]["char"]
    family, code = doc["family"], doc["code"]

    def index(seq):
        return draw(st.integers(0, len(seq) - 1))

    def bump(row, k):
        row[k] = (row[k] + 1) % char if char else str(rational_from_json(row[k]) + 1)

    what = draw(st.sampled_from(["z", "hat_w", "W", "vector", "member", "kept_s", "g_refs",
                                 "alphas", "hs", "U"]))
    if what == "kept_s":
        del doc["kept_s"][index(doc["kept_s"])]
        return what, doc
    if what == "member":
        sets = code["matchings"][index(code["matchings"])]
        members = sets[index(sets)]
        k = index(members)
        members[k] = (members[k] + draw(st.integers(1, code["m"] - 1))) % code["m"]
        return what, doc
    if what in ("g_refs", "hs"):
        m = len(_cert(case).group)
        values = family["g_refs"] if what == "g_refs" else doc["hs"]
        k = index(values)
        values[k] = (values[k] + draw(st.integers(1, m - 1))) % m
        return what, doc
    if what == "U":
        rows = family["U"]["entries"]
        pivots = {next(c for c, x in enumerate(row) if str(x) != "0") for row in rows}
        free = [c for c in range(len(rows[0])) if c not in pivots]
        if free:  # a full-rank U has no other reduced basis
            bump(rows[index(rows)], draw(st.sampled_from(free)))
            return what, doc
        what = "z"
    if what == "alphas":
        bump(doc["alphas"], index(doc["alphas"]))
        return what, doc
    rows = {"z": [doc["z"]], "hat_w": family["hat_w"], "W": family["W"]["entries"],
            "vector": code["vectors"]}[what]
    row = rows[index(rows)]
    bump(row, index(row))
    return what, doc


@settings(max_examples=250, deadline=None, derandomize=True)
@given(edit=semantic_edit())
def test_a_semantic_edit_never_passes(edit):
    """Each edit changes what the certificate states, so it is refused
    either as a ParseError or by a failing report; no other exception.
    The one exception is a g_ref moved to g_j x where rho(x) fixes Y and x
    maps the kept tuples of g_j onto themselves: the edited document is
    another valid certificate, whose family and matchings hold as stated.
    The failures are those of the family checks run in their full order,
    the report names a tuple identity failure exactly when the
    recomputation of the identities finds one, and the code report is
    ldc.verify's."""
    what, doc = edit
    try:
        cert = cert_from_json(doc)
    except ParseError:
        return
    report = verify_cert(cert)
    assert not report.passed or what == "g_refs"
    assert report.failures == _reference_failures(cert)
    assert _identity_failures(report) == _recomputed_identities(cert)
    _assert_one_product_reads_as_two(cert, report)
    assert report.code_report.to_json() == ldc.verify(cert.code).to_json()


# -- the tuple identities by proof ----------------------------------------------

# edits that break one premise of the proof: the combination check
# (alphas), the factorization check (X), the orbit check (z, a code vector,
# W) or the family check (W, hat_w)
PREMISE_EDITS = ["alpha0+1", "X-entry+1", "z-zero", "vector-entry+1", "W-entry+1",
                 "hat_w-entry+1"]
QQ_PINS = ["signed_shift(4,0) special2", "signed_shift(4,0) lambda", "signed_shift(4,0) general"]


def _identity_failures(report) -> list[str]:
    return [f for f in report.failures if f.startswith("tuple identity failed: ")]


def _recomputed_identities(cert) -> list[str]:
    """The identity message verify_cert would report from a recomputation."""
    try:
        check_spanning_identities(cert)
    except Rep2LdcError as exc:
        return [f"tuple identity failed: {exc}"]
    return []


@pytest.fixture
def recomputations(monkeypatch) -> list:
    """The certificates verify_cert recomputes the identities of."""
    calls = []

    def spy(cert):
        calls.append(cert)
        return check_spanning_identities(cert)

    monkeypatch.setattr(certcheck, "check_spanning_identities", spy)
    return calls


@pytest.mark.parametrize("case", list(dict.fromkeys(list(CASES) + QQ_PINS)))
def test_a_passing_certificate_is_proved_not_recomputed(recomputations, case):
    assert verify_cert(cert_from_json(json.loads(_doc_text(case)))).passed
    assert verify_cert(_cert(case)).passed
    assert recomputations == []


PREMISE_PAIRS = [(case, edit) for case in CASES for edit in PREMISE_EDITS]


@pytest.mark.parametrize("case, edit", PREMISE_PAIRS, ids=[f"{c}-{e}" for c, e in PREMISE_PAIRS])
def test_a_failed_premise_recomputes_the_identities(recomputations, case, edit):
    edited = _edit(_cert(case), edit)
    assert not verify_cert(edited).passed
    assert recomputations == [edited]


@pytest.mark.parametrize("case, edit", PAIRS + PREMISE_PAIRS,
                         ids=[f"{c}-{e}" for c, e in PAIRS + PREMISE_PAIRS])
def test_the_identity_report_is_the_recomputation(case, edit):
    edited = _edit(_cert(case), edit)
    assert _identity_failures(verify_cert(edited)) == _recomputed_identities(edited)


# -- the code report by proof ----------------------------------------------------

@pytest.fixture
def code_checks(monkeypatch) -> list:
    """The codes verify_cert runs ldc.verify on."""
    calls = []
    verify = ldc.verify

    def spy(code):
        calls.append(code)
        return verify(code)

    monkeypatch.setattr(ldc, "verify", spy)
    return calls


@pytest.mark.parametrize("case", list(dict.fromkeys(list(CASES) + QQ_PINS)))
def test_a_passing_certificate_proves_its_code_report(code_checks, case):
    cert = cert_from_json(json.loads(_doc_text(case)))
    report = verify_cert(cert)
    assert report.passed and verify_cert(_cert(case)).passed
    assert code_checks == []
    assert report.code_report == ldc.verify(cert.code)


@pytest.mark.parametrize("case, edit", PREMISE_PAIRS, ids=[f"{c}-{e}" for c, e in PREMISE_PAIRS])
def test_a_failed_premise_runs_the_span_test(code_checks, case, edit):
    edited = _edit(_cert(case), edit)
    assert not verify_cert(edited).passed
    assert code_checks == [edited.code]


@pytest.mark.parametrize("case, edit", PAIRS + PREMISE_PAIRS,
                         ids=[f"{c}-{e}" for c, e in PAIRS + PREMISE_PAIRS])
def test_the_code_report_is_the_span_test(case, edit):
    edited = _edit(_cert(case), edit)
    assert verify_cert(edited).code_report.to_json() == ldc.verify(edited.code).to_json()


def _unchecked_cert(monkeypatch, kind: str, hs, alphas, lam=None):
    """A signed_shift(4,3) certificate of `kind` built from hs and alphas by
    the builders' pipeline (D, Y, X, the family, z, the matchings and the
    code vectors all derived from them), with the builder's self-check of
    the code skipped."""
    g = parse_fixture("signed_shift(4,3)")
    with monkeypatch.context() as patch:
        patch.setattr(construct, "verify", lambda code: SimpleNamespace(passed=True))
        return construct._build(g, kind, hs(g), alphas, lam, 0)


@pytest.mark.parametrize("kind, hs, alphas, lam", [
    ("special2", lambda g: [g.generators[0], g.identity_pos], [1, 1], None),
    ("lambda", lambda g: [g.generators[0], g.generators[1]], [1, -1], 1),
], ids=["special2-alphas-1-1", "lambda-hs1-not-identity"])
def test_a_special2_form_outside_the_lemma_runs_the_span_test(monkeypatch, tmp_path, code_checks,
                                                              kind, hs, alphas, lam):
    """Every premise of the lemma holds but the alpha condition, so the
    pairs are not differences that the tuple identity makes a multiple of
    e_j: alpha_2 != -alpha_1, or a lambda certificate whose second leg,
    read as g_j s in the scaled block, is not g_j h_2 s.  verify_cert runs
    ldc.verify, which finds failing pairs.  The reader refuses the lambda
    document, whose hs are not (h, identity), and `verify` exits 1 on it,
    so that certificate is checked as built in memory."""
    cert = _unchecked_cert(monkeypatch, kind, hs, alphas, lam)
    doc = json.loads(canonical_json(cert_to_json(cert)))
    if kind == "lambda":
        message = r"^lambda certificate hs must be \(h, 0\), the identity second; got \[1, 2\]$"
        with pytest.raises(ParseError, match=message):
            cert_from_json(doc)
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(doc))
        assert main(["verify", "--input", str(path)]) == 1
    else:
        cert = cert_from_json(doc)
    report = verify_cert(cert)
    assert code_checks == [cert.code]
    # no premise of the lemma fails: only the entropy audit's pair checks
    # and, for the lambda certificate, the pre-filter's tuples {h s, h_2 s}
    assert all(f == DISJOINT or f.startswith("entropy audit failed: ") for f in report.failures)
    assert not report.code_report.passed
    assert report.code_report.to_json() == ldc.verify(cert.code).to_json()


# -- one orbit product ----------------------------------------------------------

@pytest.fixture
def orbit_products(monkeypatch) -> list:
    """The matrices each product of the group stack with z is taken against."""
    calls = []
    code_vectors = construct._code_vectors

    def spy(group, w, z, lam=None):
        calls.append(w)
        return code_vectors(group, w, z, lam)

    monkeypatch.setattr(construct, "_code_vectors", spy)
    return calls


@pytest.mark.parametrize("case", list(dict.fromkeys(list(CASES) + QQ_PINS)))
def test_a_passing_certificate_forms_the_orbit_once(orbit_products, recomputations, case):
    """One product against [W | C], C of t columns X hat_w_j, serves the
    orbit check and the survivor mask."""
    cert = cert_from_json(json.loads(_doc_text(case)))
    orbit_products.clear()  # building the certificate forms its code vectors
    assert verify_cert(cert).passed
    assert [w.a.shape for w in orbit_products] == [(cert.group.dim, 2 * cert.t)]
    assert recomputations == []


def _assert_one_product_reads_as_two(cert, report) -> None:
    """The survivor mask and orbit verdict of the one orbit product equal
    those of two separate products, and so do verify_cert's survivor-count
    and orbit messages."""
    mask, orbit = reference_beta_mask(cert), reference_orbit_check(cert)
    assert np.array_equal((beta_table(cert)[list(cert.kept_s)] != 0).T, mask)
    assert orbit_projection_check(cert) == orbit
    assert (ORBIT in report.failures) == (not orbit)
    counts = tuple(mask.sum(axis=1).tolist())
    assert (COUNT in report.failures) == (counts != cert.beta_nonzero_count)


@pytest.mark.parametrize("case, edit", PAIRS + PREMISE_PAIRS,
                         ids=[f"{c}-{e}" for c, e in PAIRS + PREMISE_PAIRS])
def test_the_orbit_reading_is_the_two_products(case, edit):
    edited = _edit(_cert(case), edit)
    _assert_one_product_reads_as_two(edited, verify_cert(edited))


def test_a_family_check_passed_by_a_wider_w_is_no_proof(recomputations):
    """With one translate, a W of two equal columns would pass the rank-one
    identity by broadcasting, and its code vectors pass the orbit check;
    the family check refuses W's shape, so the identities are recomputed,
    and the recomputation finds the code too wide."""
    g = parse_fixture("signed_shift(4,3)")
    cert = build_q_ldc(g, [g.identity_pos], [1])  # D = I: one translate
    assert cert.t == 1 and verify_cert(cert).passed
    w = Matrix.from_array(g.field, np.concatenate([cert.family.W.a] * 2, axis=1))
    vectors = Matrix.from_array(g.field, construct._code_vectors(g, w, cert.z))
    code = dataclasses.replace(cert.code, t=2, vectors=vectors,
                               matchings=cert.code.matchings * 2)
    wide = dataclasses.replace(cert, family=dataclasses.replace(cert.family, W=w), code=code)
    recomputations.clear()
    assert verify_cert(wide).failures == (
        "spanning family invalid: W has shape (4, 2) and 1 hat_w rows, need (4, 1) and 1",
        MATCHINGS,
        "tuple identity failed: code vectors have shape (64, 2), need at least 64 rows of "
        "length 1",
    )
    assert recomputations == [wide]


# -- the one-pass matching comparison ---------------------------------------------

EDITS_OF_SETS = ["permuted", "repeated", "overlapping", "counts", "outside", "width"]


@st.composite
def set_families(draw):
    """(edit, rows, members, m): `members` a QMatching's rows on a code of
    length m, `rows` the same family with its rows and their members
    permuted, then edited: one member repeated within its row, one taken
    from another row, a row dropped or added, one member moved outside
    [0, m), or a column dropped."""
    q, k = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    m = q * k + draw(st.integers(1, 4))
    perm = draw(st.permutations(range(m)))
    members = QMatching(q, np.array(perm[:q * k], dtype=np.int64).reshape(k, q)).members
    rows = members[list(draw(st.permutations(range(k))))].copy()
    for row in rows:
        row[:] = row[list(draw(st.permutations(range(q))))]
    edit = draw(st.sampled_from(EDITS_OF_SETS))
    i = draw(st.integers(0, max(k - 1, 0)))
    a = draw(st.integers(0, q - 1))
    if edit == "repeated" and k and q > 1:
        rows[i, a] = rows[i, (a + 1) % q]
    elif edit == "overlapping" and k > 1:
        rows[i, a] = rows[(i + 1) % k, draw(st.integers(0, q - 1))]
    elif edit == "counts":
        extra = np.array([perm[q * k:][:q] if m - q * k >= q else perm[:q]], dtype=np.int64)
        rows = rows[:-1] if k and draw(st.booleans()) else np.concatenate([rows, extra])
    elif edit == "outside" and k:
        rows[i, a] = m + draw(st.integers(0, 3))
    elif edit == "width" and q > 1:
        rows = rows[:, :-1]
    return edit, rows, members, m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=set_families())
def test_one_pass_comparison_matches_the_lexsorts(family):
    edit, rows, members, m = family
    same = _same_sets(rows, members, m)
    assert same == reference_same_sets(rows, members)
    if edit == "permuted":
        assert same


# -- the rank of X by proof --------------------------------------------------------

FACTOR = "factor ranks differ from R"


@pytest.fixture
def ranked(monkeypatch) -> list:
    """The matrices verify_cert takes the rank of."""
    calls = []
    real = certcheck.rank
    monkeypatch.setattr(certcheck, "rank", lambda mat: calls.append(mat) or real(mat))
    return calls


@pytest.mark.parametrize("case", list(dict.fromkeys(list(CASES) + QQ_PINS)))
def test_a_passing_certificate_ranks_d_alone(ranked, case):
    """Y X^T = D and rank(D) = R make rank(X) = R for an X of R columns."""
    cert = _cert(case)
    assert verify_cert(cert).passed
    assert ranked == [cert.D]


RANK_PAIRS = PAIRS + [(case, edit) for case in CASES
                      for edit in ["alpha0+1", "X-entry+1", "X-rank-dropped"]]


@pytest.mark.parametrize("case, edit", RANK_PAIRS, ids=[f"{c}-{e}" for c, e in RANK_PAIRS])
def test_the_factor_rank_message_is_the_full_check(case, edit):
    edited = _edit(_cert(case), edit)
    field, n = edited.group.field, edited.group.dim
    full = Subspace.from_rows(field, n, edited.Y.T).dim == edited.R == rank(edited.X)
    assert (FACTOR in verify_cert(edited).failures) == (not full)
    if edit == "X-rank-dropped":
        assert not full
