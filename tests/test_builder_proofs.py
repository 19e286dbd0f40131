"""The builder's self-checks by proof.

A general-form code is checked by its tuple identities: where every
matched (j, s) has sum_l alpha_l a_{g_j h_l s} = beta_{j,s}(z) e_j with a
nonzero beta, each matched set spans e_j, so the builder runs ldc.verify
on no general build of the fixture ladder and on every special2-form build
once.  A broken code vector, a swapped tuple position or a bumped normal
makes the builder raise exactly when ldc.verify of the code it built
fails.

The spanning family's irredundancy is proved from its rank-one identities,
its nonzero hat_w and U being the column span of Y: `validate_family`
ranks the translates only when one of those premises fails, and then
reports what the checks in their full order report.
"""

import dataclasses
import functools

import numpy as np
import pytest
from helpers import LADDER, reference_validate_family

from rep2ldc import construct, ldc
from rep2ldc.construct import (
    beta_table,
    build_q_ldc,
    build_special_2ldc,
    lambda_variant,
    validate_family,
)
from rep2ldc.errors import InternalInconsistency, Rep2LdcError
from rep2ldc.fixtures import parse_fixture
from rep2ldc.linalg import Matrix, Subspace, nullspace, rank
from rep2ldc.serialize import canonical_json, cert_to_json

# signed_shift(10,3) gets no certificate, as in the benchmark's baseline table
CERT_LADDER = LADDER[:-1]
KINDS = ("general", "special2", "lambda")
FAILED = "constructed code failed verification"


@functools.lru_cache(maxsize=None)
def _group(fixture: str):
    return parse_fixture(fixture)


def _build(group, kind: str):
    h = group.generators[0]
    if kind == "special2":
        return build_special_2ldc(group, h)
    if kind == "lambda":
        return lambda_variant(group, h, 1)
    g1 = group.generators[1]
    h2 = group.mul(group.mul(g1, h), group.inv(g1))  # a conjugate reflection: R < n
    return build_q_ldc(group, [h, h2, group.identity_pos], [1, 1, -2])


@functools.lru_cache(maxsize=None)
def _cert(fixture: str, kind: str):
    return _build(_group(fixture), kind)


# -- the code by its tuple identities ------------------------------------------------

@pytest.fixture
def builder_checks(monkeypatch) -> list:
    """The codes the builder runs ldc.verify on."""
    calls = []
    verify = construct.verify
    monkeypatch.setattr(construct, "verify", lambda code: calls.append(code) or verify(code))
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fixture", CERT_LADDER)
def test_the_builder_runs_the_span_test_on_special2_form_codes_only(builder_checks, fixture,
                                                                    kind):
    cert = _build(_group(fixture), kind)
    assert builder_checks == ([] if kind == "general" else [cert.code])
    assert ldc.verify(cert.code).passed


def _matched(cert, j: int) -> list[int]:
    """Indices into kept_s of the tuples matching j keeps."""
    return np.flatnonzero(beta_table(cert)[list(cert.kept_s), j] != 0).tolist()


def _outcome(monkeypatch, fixture: str, name: str, mutate):
    """(raised, code) of the general build of `fixture` whose call of
    construct.<name> returns `mutate` of its result: whether the builder
    raised its verification failure, and the code it built."""
    codes = []
    real, make = getattr(construct, name), construct.LdcInstance
    with monkeypatch.context() as patch:
        patch.setattr(construct, name, lambda *args, **kw: mutate(real(*args, **kw)))
        patch.setattr(construct, "LdcInstance", lambda **kw: codes.append(make(**kw)) or codes[-1])
        try:
            _build(_group(fixture), "general")
        except InternalInconsistency as exc:
            assert str(exc) == FAILED
            return True, codes[-1]
    return False, codes[-1]


def _code_vector_edits(fixture: str):
    """Each member of the first two matched sets of the first and the last
    coordinate, zeroed or with its first or last entry bumped by 1."""
    cert = _cert(fixture, "general")
    field = cert.group.field
    rows = {int(a) for mi in (cert.code.matchings[0], cert.code.matchings[-1])
            for a in mi.members[:2].ravel()}

    def edit(row, how):
        def mutate(vectors):
            out = vectors.copy()
            if how == "zero":
                out[row] = field.canon(0)
            else:
                out[row, how] = field.canon(out[row, how] + 1)
            return out
        return mutate

    return [edit(row, how) for row in sorted(rows) for how in ("zero", 0, -1)]


def _position_swaps(fixture: str):
    """Two entries of `matching_index` of one matching swapped: two legs of
    one matched tuple, or legs of two matched tuples."""
    cert = _cert(fixture, "general")
    q, j = cert.q, cert.t - 1
    a, b = _matched(cert, j)[:2]

    def swap(first, second):
        def mutate(idx):
            out = idx.copy()
            out[first], out[second] = idx[second], idx[first]
            return out
        return mutate

    return [swap((j, 0, a), (j, q - 1, a)), swap((j, 0, a), (j, 1, a)),
            swap((j, 0, a), (j, 0, b)), swap((j, 0, a), (j, q - 1, b))]


def _normal_bumps(fixture: str):
    """One entry of one hyperplane normal bumped by 1, over rows of the
    first and the last coordinate and every column."""
    cert = _cert(fixture, "general")
    field, n, k = cert.group.field, cert.group.dim, len(cert.kept_s)
    cells = [(r, c) for r in (0, 1, k, cert.t * k - 1) for c in (0, n - 1)]

    def bump(r, c):
        def mutate(normals):
            out = normals.copy()
            out[r, c] = field.canon(out[r, c] + 1)
            return out
        return mutate

    return [bump(r, c) for r, c in cells]


def _z_moved(fixture: str):
    """choose_z's z zeroed, or one entry bumped by 1, with the mask of the z
    it chose: where beta of the new z is 0 a matched tuple's identity reads
    0 = 0 e_j, which proves nothing."""
    cert = _cert(fixture, "general")
    field, n = cert.group.field, cert.group.dim

    def move(entry):
        def mutate(chosen):
            z, mask = chosen
            z = z.copy()
            if entry is None:
                z[:] = field.canon(0)
            else:
                z[entry] = field.canon(z[entry] + 1)
            return z, mask
        return mutate

    return [move(entry) for entry in (None, 0, n - 1)]


MUTATIONS = {"_code_vectors": _code_vector_edits, "matching_index": _position_swaps,
             "_hyperplane_normals": _normal_bumps, "choose_z": _z_moved}


@pytest.mark.parametrize("fixture", ["signed_shift(4,3)", "signed_shift(4,0)",
                                     "signed_shift(6,5)"])
@pytest.mark.parametrize("name", list(MUTATIONS))
def test_a_broken_build_raises_exactly_when_its_code_fails_the_span_test(monkeypatch, fixture,
                                                                         name):
    """Each mutation makes the code differ from what the identities
    promise somewhere, or matches a tuple they do not cover; the builder's verdict is ldc.verify's on the code
    it built.  Some zeroed code vector, and the zero z, leave a set that
    does not span, which a builder trusting its identities unchecked, or
    not asking for beta != 0, would miss."""
    outcomes = [_outcome(monkeypatch, fixture, name, mutate)
                for mutate in MUTATIONS[name](fixture)]
    for raised, code in outcomes:
        assert raised == (not ldc.verify(code).passed)
    if name in ("_code_vectors", "choose_z"):
        assert any(raised for raised, _ in outcomes)


def test_a_general_code_with_unmatched_identities_runs_the_span_test(monkeypatch,
                                                                     builder_checks):
    """Swapping two legs of a tuple whose alphas differ (1 and -2 = 3 in
    GF(5)) leaves every set as it was but breaks that tuple's identity: the
    builder falls back to ldc.verify, which passes."""
    fixture = "signed_shift(6,5)"
    raised, code = _outcome(monkeypatch, fixture, "matching_index", _position_swaps(fixture)[0])
    assert not raised and builder_checks == [code]
    assert code == _cert(fixture, "general").code


# -- the family's irredundancy by its dual vectors -----------------------------------

@pytest.fixture
def redundancy_ranks(monkeypatch) -> list:
    """Every batched redundancy rank, as the number of translates ranked."""
    calls = []
    real = construct._first_redundant
    monkeypatch.setattr(construct, "_first_redundant",
                        lambda field, images, n: calls.append(len(images)) or real(field, images, n))
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fixture", CERT_LADDER)
def test_a_built_family_is_proved_irredundant(redundancy_ranks, monkeypatch, fixture, kind):
    """Neither the builder's family check nor validate_family on a built
    family ranks the translates; minimal_spanning_family, which prunes
    the family, is the only caller then."""
    cert = _cert(fixture, kind)
    redundancy_ranks.clear()  # building the certificate prunes its family
    validate_family(cert.group, cert.family, cert.Y)
    reference_validate_family(cert.group, cert.family, cert.Y)
    monkeypatch.setattr(construct, "minimal_spanning_family",
                        lambda group, u: list(cert.family.g_refs))
    assert _text(_build(_group(fixture), kind)) == _text(cert)
    assert redundancy_ranks == []


def _text(cert) -> str:
    return canonical_json(cert_to_json(cert))


def _family_edits(cert):
    """(name, family, y), each aimed at one premise of the lemma: W's
    shape, a zero or bumped hat_w, a W entry, U the whole space or another
    translate's span, or a bumped Y."""
    group, family = cert.group, cert.family
    field, n = group.field, group.dim
    one = field.canon(1)

    def bumped(a, cell):
        a = a.copy()
        a[cell] = field.canon(a[cell] + one)
        return a

    hats = list(family.hat_w)
    zero_hat = [np.zeros_like(hats[0]) + field.canon(0)] + hats[1:]
    whole = Subspace(field, n, Matrix(field, np.eye(n, dtype=np.int64)))
    moved = Subspace.from_rows(field, n, (family.U.basis @ group.matrix(group.generators[-1]).T))
    wide = Matrix.from_array(field, np.concatenate([family.W.a, family.W.a[:, :1]], axis=1))
    replace = functools.partial(dataclasses.replace, family)
    return [
        ("W-wider", replace(W=wide), cert.Y),
        ("hat_w-zero", replace(hat_w=tuple(zero_hat)), cert.Y),
        ("hat_w-bumped", replace(hat_w=(bumped(hats[0], 0),) + tuple(hats[1:])), cert.Y),
        ("W-bumped", replace(W=Matrix.from_array(field, bumped(family.W.a, (0, 0)))), cert.Y),
        ("U-whole-space", replace(U=whole), cert.Y),
        ("U-moved", replace(U=moved), cert.Y),
        ("Y-bumped", family, Matrix.from_array(field, bumped(cert.Y.a, (n - 1, 0)))),
    ]


def _message(check, *args):
    try:
        check(*args)
    except Rep2LdcError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", ["signed_shift(4,3) special2", "signed_shift(4,3) general",
                                  "signed_shift(4,0) special2", "signed_shift(6,5) lambda",
                                  "dihedral(5,11) special2"])
def test_a_failed_premise_ranks_the_translates(redundancy_ranks, case):
    """The verdict on each edited family is the one the checks give in
    their full order, and the translates are ranked, once they span,
    exactly when a premise of the lemma fails: a check after the span
    fails, or U is not the column span of Y.  An edit may keep every
    premise (a bumped Y whose change W^T rho(g_j) does not see) or fail
    only U's and still pass (a moved U)."""
    cert = _cert(*case.split())
    field, n = cert.group.field, cert.group.dim
    for name, family, y in _family_edits(cert):
        if name.startswith("U-") and family.U == cert.family.U:
            continue  # U is already the whole space, or the generator fixes it
        redundancy_ranks.clear()
        got = _message(validate_family, cert.group, family, y)
        assert got == _message(reference_validate_family, cert.group, family, y), name
        spans = got != "translates do not span the space"
        premise_fails = got is not None or family.U != Subspace.from_rows(field, n, y.T)
        assert redundancy_ranks == ([family.t] if spans and premise_fails else []), name


@pytest.mark.parametrize("fixture", ["signed_shift(4,3)", "signed_shift(4,0)"])
def test_a_zero_hat_w_does_not_hide_a_redundant_translate(redundancy_ranks, fixture):
    """A third translate g_2 meeting both of the general family's (R = 2 in
    F^4) makes it redundant, while w_0, w_1 orthogonal to the other two
    translates and a zero third column and hat_w satisfy every rank-one
    identity with U the column span of Y.  The zero hat_w fails the lemma,
    so the redundancy is found first, as the full order finds it."""
    cert = _cert(fixture, "general")
    group, family = cert.group, cert.family
    field, n = group.field, group.dim
    image = lambda g: (family.U.basis @ group.matrix(g).T).a  # noqa: E731
    g0, g1 = family.g_refs
    g2 = next(g for g in range(len(group)) if g not in (g0, g1) and all(
        rank(Matrix.from_array(field, np.concatenate([image(a), image(g)]))) < n
        for a in (g0, g1)))
    cols, hats = [], []
    for mine, others in ((g0, (g1, g2)), (g1, (g0, g2))):
        stacked = Matrix.from_array(field, np.concatenate([image(g) for g in others]))
        cands = nullspace(stacked).basis.a
        cand_hats = field.matmul(cands, field.matmul(group.matrix(mine).a, cert.Y.a))
        k = int(np.flatnonzero(np.any(cand_hats != 0, axis=1))[0])
        cols.append(cands[k])
        hats.append(cand_hats[k])
    cols.append(np.zeros_like(cols[0]) + field.canon(0))
    hats.append(np.zeros_like(hats[0]) + field.canon(0))
    wide = dataclasses.replace(family, g_refs=(g0, g1, g2), hat_w=tuple(hats),
                               W=Matrix.from_array(field, np.stack(cols, axis=1)))
    want = "translate 2 is redundant"
    assert _message(reference_validate_family, group, wide, cert.Y) == want
    redundancy_ranks.clear()  # building the certificate prunes its family
    assert _message(validate_family, group, wide, cert.Y) == want
    assert redundancy_ranks == [3]
