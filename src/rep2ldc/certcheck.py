"""Re-verification of serialized construction certificates.

A certificate file embeds the group spec, so the group is re-enumerated
(BFS order is canonical, hence positions match) and every pipeline
invariant is re-checked from the file alone.  Failures accumulate as
strings; nothing is repaired.  The rules of a certificate kind (density
floor, pre-filter guarantee, survivor bound, code form and length) are the
builders' own, read from construct, and whether the pre-filter tuples are
disjoint is ldc's one set-family rule; each check here names what failed.

The tuple identities are proved, not recomputed: they follow from the
factorization, spanning-family and orbit checks (see `verify_cert`), and
`check_spanning_identities` runs only when one of those fails, so the
report names the first failing (j, s) exactly as a full recomputation
would.  The orbit check and the beta mask read one orbit product
(`construct._orbit_reading`).  The code's matchings are compared with the
filtered tuple family in one pass over an owner array (`_same_sets`).

The code report is proved too.  Once the identities hold and the
matchings are the filtered tuples of the kind's form and length, every
matched set is {g_j h_l s} with beta = beta_{j,s}(z) != 0, and it passes
its span test:

- general: e_j = beta^-1 sum_l alpha_l a_{g_j h_l s} lies in its span;
- special2 kind, alpha_2 = -alpha_1 != 0: a_x - a_y = (beta/alpha_1) e_j;
- lambda kind, alpha_2 = -lambda alpha_1, alpha_1 != 0 and hs = (h, id):
  the orbit check proved a_{|G|+y} = lambda a_y, so
  a_x - a_{|G|+y} = (beta/alpha_1) e_j.

So the report is assembled from the matching sizes with no span failure
(`ldc._report`), and `ldc.verify` runs only when a premise fails, when its
report names every failing set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ldc
from .bounds import EntropyAudit, entropy_audit
from .construct import (
    ConstructionCert,
    SpanningFamily,
    _orbit_reading,
    _tuple_positions,
    check_spanning_identities,
    code_shape,
    combine,
    density_floor,
    matching_index,
    prefilter_holds,
    survivors_suffice,
    validate_family,
)
from .errors import DimensionMismatch, ParseError, Rep2LdcError
from .ldc import VerificationReport
from .linalg import Subspace, rank
from .serialize import (
    group_from_spec_json,
    group_spec_hash,
    json_fraction,
    json_int,
    json_ints,
    ldc_from_json,
    matrix_from_json,
)

__all__ = ["CertCheckReport", "cert_from_json", "verify_cert", "verify_cert_json"]


@dataclass(frozen=True)
class CertCheckReport:
    kind: str
    failures: tuple[str, ...]
    code_report: VerificationReport
    audit: EntropyAudit | None

    @property
    def passed(self) -> bool:
        return not self.failures and self.code_report.passed and (
            self.audit is None or self.audit.passed
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "failures": list(self.failures),
            "code_report": self.code_report.to_json(),
            "entropy_audit": None if self.audit is None else self.audit.to_json(),
        }


def cert_from_json(obj, cap: int | None = None) -> ConstructionCert:
    """Rebuild a ConstructionCert from its JSON document; `cap`, if given,
    overrides the embedded group spec's element cap."""
    try:
        spec = obj["group"]
        group = group_from_spec_json(spec, cap)
        if group_spec_hash(spec) != obj["group_hash"]:
            raise ParseError("group hash does not match embedded spec")
        field = group.field
        kind = str(obj["kind"])
        hs = json_ints(obj["hs"], "hs")
        alphas = tuple(_vector(field, obj["alphas"]).tolist())
        lam = None if obj["lambda"] is None else field.scalar_from_json(obj["lambda"])
        d = matrix_from_json(obj["D"])
        y = matrix_from_json(obj["Y"])
        x = matrix_from_json(obj["X"])
        fam = obj["family"]
        u = matrix_from_json(fam["U"])
        family = SpanningFamily(
            g_refs=json_ints(fam["g_refs"], "family.g_refs"),
            U=Subspace(u.field, group.dim, u),
            W=matrix_from_json(fam["W"]),
            hat_w=tuple(_vector(field, h) for h in fam["hat_w"]),
        )
        z = _vector(field, obj["z"])
        code = ldc_from_json(obj["code"])
        cert = ConstructionCert(
            group=group,
            kind=kind,
            hs=hs,
            alphas=alphas,
            lam=lam,
            D=d,
            R=json_int(obj["R"], "R"),
            Y=y,
            X=x,
            family=family,
            z=z,
            kept_s=json_ints(obj["kept_s"], "kept_s"),
            prefilter_size=json_int(obj["prefilter_size"], "prefilter_size"),
            beta_nonzero_count=json_ints(obj["beta_nonzero_count"], "beta_nonzero_count"),
            code=code,
            achieved_delta=json_fraction(obj["achieved_delta"], "achieved_delta"),
            seed=json_int(obj["seed"], "seed"),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
            DimensionMismatch) as exc:
        raise ParseError(f"bad certificate document: {exc}") from exc
    if cert.kind not in ("special2", "general", "lambda"):
        raise ParseError(f"unknown certificate kind {cert.kind!r}")
    _check_indices_and_shapes(cert)
    return cert


def _vector(field, values) -> np.ndarray:
    return field.array_from_json([values])[0]


def _check_indices_and_shapes(cert: ConstructionCert) -> None:
    """Reject parts over a field other than the group's, element indices
    outside [0, |G|) and vectors or matrices whose shape contradicts n, R
    or t, which verify_cert would index with.  A family of more than n
    translates is never minimal, and its checks would grow with t^2.  A
    lambda is stated by the lambda kind alone, whose hs are (h, identity),
    and a seed is never negative, as the builders write them."""
    field = cert.group.field
    for name, part in (("D", cert.D), ("Y", cert.Y), ("X", cert.X), ("family.U", cert.family.U),
                       ("family.W", cert.family.W), ("code", cert.code)):
        if part.field != field:
            raise ParseError(f"{name} is over {part.field!r}, the group over {field!r}")
    m = len(cert.group)
    n = cert.group.dim
    r = cert.R
    t = len(cert.family.g_refs)
    for name, values in (
        ("hs", cert.hs), ("family.g_refs", cert.family.g_refs), ("kept_s", cert.kept_s)
    ):
        bad = [v for v in values if not 0 <= v < m]
        if bad:
            raise ParseError(f"{name} entry {bad[0]} outside [0, {m})")
    if not cert.hs or len(cert.alphas) != len(cert.hs):
        raise ParseError("hs and alphas must be nonempty and of equal length")
    for name, value in (("R", r), ("the number of family.g_refs", t)):
        if value < 1:
            raise ParseError(f"{name} must be at least 1, got {value}")
    if t > n:
        raise ParseError(f"the number of family.g_refs must be at most n = {n}, got {t}")
    if cert.kind == "lambda" and cert.lam is None:
        raise ParseError("lambda certificate without a lambda")
    if cert.kind != "lambda" and cert.lam is not None:
        raise ParseError(f"{cert.kind} certificate with a lambda")
    identity = cert.group.identity_pos
    if cert.kind == "lambda" and (len(cert.hs) != 2 or cert.hs[1] != identity):
        raise ParseError(f"lambda certificate hs must be (h, {identity}), the identity "
                         f"second; got {list(cert.hs)}")
    if cert.seed < 0:
        raise ParseError(f"seed must be non-negative, got {cert.seed}")
    if len(cert.family.hat_w) != t:
        raise ParseError(f"family has {len(cert.family.hat_w)} hat_w rows for {t} g_refs")
    lengths = [("z", cert.z, n)] + [
        (f"hat_w[{j}]", h, r) for j, h in enumerate(cert.family.hat_w)
    ]
    for name, v, want in lengths:
        if v.shape != (want,):
            raise ParseError(f"{name} has length {len(v)}, expected {want}")
    shapes = (("D", cert.D, (n, n)), ("Y", cert.Y, (n, r)), ("X", cert.X, (n, r)),
              ("W", cert.family.W, (n, t)))
    for name, mat, want in shapes:
        if mat.a.shape != want:
            raise ParseError(f"{name} has shape {mat.a.shape}, expected {want}")


def _same_sets(rows: np.ndarray, members: np.ndarray, m: int) -> bool:
    """Whether the (k, q) integer rows, each read as a set, are the sets of
    `members`, a QMatching's rows: disjoint sets of q' distinct positions
    in [0, m).

    Each position then lies in at most one set, its owner.  The families
    are equal exactly when the shapes agree, every row's members have one
    owner, and no position occurs twice among the rows: a row of q
    distinct members inside a set of q is that set, and rows with no
    member in common own different sets, so the k rows are the k sets.
    A position outside [0, m) has no owner, so the families differ.
    """
    if rows.shape != members.shape:
        return False
    if not rows.size:
        return True
    if rows.min() < 0 or rows.max() >= m:
        return False
    owner = np.full(m, -1, dtype=np.int64)
    owner[members] = np.arange(len(members))[:, None]
    owners = owner[rows]
    return bool(
        (owners[:, 0] >= 0).all()
        and (owners == owners[:, :1]).all()
        and np.bincount(rows.ravel(), minlength=m).max() == 1
    )


def _pairs_are_differences(cert: ConstructionCert) -> bool:
    """Whether the tuple identity makes each special2-form pair of a
    matched tuple differ by (beta / alpha_1) e_j: alpha_2 = -alpha_1 != 0
    (special2 kind), or alpha_2 = -lambda alpha_1, alpha_1 != 0 and
    hs = (h, identity) (lambda kind, whose second leg `matching_index`
    reads as |G| + position(g_j s) whatever hs[1] is).  The reader refuses
    a lambda document of other hs; a certificate built in memory is
    checked here.  The general form needs no condition."""
    if cert.kind == "general":
        return True
    field = cert.group.field
    if len(cert.alphas) != 2 or cert.alphas[0] == 0:
        return False
    a1, a2 = cert.alphas
    if cert.kind == "special2":
        return a2 == field.canon(-a1)
    return cert.hs[1] == cert.group.identity_pos and a2 == field.canon(-cert.lam * a1)


def verify_cert(cert: ConstructionCert) -> CertCheckReport:
    """Re-check every invariant of a (possibly deserialized) certificate.

    The tuple identities sum_l alpha_l a_{g_j h_l s} = beta_{j,s}(z) e_j,
    for every j and every s in G, hold by a lemma once four checks made
    here have passed:

    1. D = sum_l alpha_l rho(h_l)            (the combination check)
    2. D = Y X^T                             (the factorization check)
    3. W^T rho(g_j) Y = e_j hat_w_j^T        (validate_family, W n x t)
    4. a_x = W^T rho(x) z for x in G         (the orbit reading, as is the beta mask)

    Position(g_j h_l s) is read from the verifier's own closure of the
    group, so rho(g_j h_l s) = rho(g_j) rho(h_l) rho(s), and

        sum_l alpha_l a_{g_j h_l s} = W^T rho(g_j) D rho(s) z           (4, 1)
                                    = W^T rho(g_j) Y X^T rho(s) z       (2)
                                    = e_j <X hat_w_j, rho(s) z>         (3)
                                    = beta_{j,s}(z) e_j,

    every step exact in the field.  So the recomputation
    (`check_spanning_identities`) could only pass, and it runs only when
    one of the four fails; then it names the first failing (j, s).

    The code report follows when, besides, the code's matchings are the
    filtered tuple family (`_same_sets`), its form and length are the
    kind's (`code_shape`), and `_pairs_are_differences` holds.  Matched
    set j is then {g_j h_l s : l} for a kept s with beta = beta_{j,s}(z)
    != 0, and by the identity it passes its form's span test:

    - general form: e_j = beta^-1 sum_l alpha_l a_{g_j h_l s} lies in the
      span of the set's q vectors;
    - special2 kind (alpha_2 = -alpha_1 != 0): the pair {x, y} =
      {g_j h_1 s, g_j h_2 s} has a_x - a_y = (beta / alpha_1) e_j;
    - lambda kind (alpha_2 = -lambda alpha_1, alpha_1 != 0, hs = (h, id)):
      the pair is {x, |G| + y} with y = g_j s, the orbit check proved
      a_{|G|+y} = lambda a_y, so a_x - a_{|G|+y} = (beta / alpha_1) e_j.

    A nonzero multiple of e_j is what the special2 test asks of a pair in
    either order, so no set fails, and `ldc._report` assembles the report
    from the matching sizes alone.  When a premise fails, `ldc.verify`
    runs the span test on every set and names the failing ones.

    rank(X) is not computed when Y X^T = D and rank(D) = R hold for an X
    of R columns: R = rank(Y X^T) <= rank(X) <= R.
    """
    group = cert.group
    field = group.field
    n = group.dim
    m = len(group)
    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    combination_holds = cert.D == combine(group, cert.hs, cert.alphas)
    check(combination_holds, "D is not the stated combination of group elements")
    check(not cert.D.is_zero(), "D is zero")
    d_rank_holds = rank(cert.D) == cert.R
    check(d_rank_holds, "stated R differs from rank(D)")
    factorization_holds = cert.Y @ cert.X.T == cert.D
    check(factorization_holds, "Y X^T != D")
    u = Subspace.from_rows(field, n, cert.Y.T)  # its dim is rank(Y)
    # R = rank(Y X^T) <= rank(X) <= R for an X of R columns
    x_rank_proved = d_rank_holds and factorization_holds and cert.X.cols == cert.R
    check(u.dim == cert.R and (x_rank_proved or rank(cert.X) == cert.R),
          "factor ranks differ from R")
    check(u == cert.family.U, "U is not the column span of Y")
    family_holds = True
    try:
        validate_family(group, cert.family, cert.Y)
    except Rep2LdcError as exc:
        family_holds = False
        failures.append(f"spanning family invalid: {exc}")
    check(cert.family.t >= math.ceil(n / cert.R), "t below ceil(n/R)")

    # pre-filter matching structure at the s-level
    check(len(cert.kept_s) == cert.prefilter_size,
          "prefilter size differs from kept_s length")
    tuples = _tuple_positions(group, cert.hs, [group.identity_pos], cert.kept_s)[0].T
    faults = ldc._set_faults(tuples, len(cert.hs))
    check(not (faults.bad_size | faults.overlap).any(), "pre-filter tuples are not disjoint")
    check(prefilter_holds(group, cert.kind, cert.hs, len(cert.kept_s)),
          "pre-filter size below |G|/q^2" if cert.kind == "general"
          else "pre-filter density differs from gamma/2")

    # survivors and matchings: mask[j, si] says beta_{j,s}(z) != 0 for s = kept_s[si]
    expected, betas = _orbit_reading(cert)
    mask = (betas[list(cert.kept_s)] != 0).T
    counts = tuple(int(c) for c in mask.sum(axis=1))
    check(counts == cert.beta_nonzero_count,
          "beta_nonzero_count differs from recomputed survivors")
    survivors = sum(counts)
    check(survivors_suffice(field, survivors, mask.size),
          "surviving fraction below 1 - 1/|F|" if field.char
          else "rational certificate lost tuples")
    idx = matching_index(group, cert.kind, cert.hs, cert.family.g_refs, cert.kept_s)
    matchings = cert.code.matchings
    matchings_hold = len(matchings) == cert.family.t and all(
        _same_sets(idx[j][:, mask[j]].T, mi.members, cert.code.m)
        for j, mi in enumerate(matchings)
    )
    check(matchings_hold, "code matchings differ from the filtered tuple family")

    orbit_holds = np.array_equal(expected, cert.code.vectors.a)
    check(orbit_holds, "code vectors are not W^T rho(s) z")
    identities_hold = combination_holds and factorization_holds and family_holds and orbit_holds
    if not identities_hold:
        try:
            check_spanning_identities(cert)
        except Rep2LdcError as exc:
            failures.append(f"tuple identity failed: {exc}")

    form, m_code = code_shape(cert.kind, m)
    check(cert.code.form == form,
          f"code form {cert.code.form!r} differs from {form!r}, the form of a {cert.kind} "
          "certificate")
    check(cert.code.m == m_code, "code length differs from group size")
    check(
        cert.achieved_delta == Fraction(survivors, m_code * cert.family.t),
        "achieved_delta differs from matching counts",
    )
    floor = density_floor(group, cert.kind, cert.hs)
    check(cert.achieved_delta >= floor, "achieved_delta below the guaranteed floor")
    check(cert.code.claimed_delta == floor, "claimed_delta differs from the guaranteed floor")

    if (identities_hold and matchings_hold and cert.code.form == form
            and cert.code.m == m_code and _pairs_are_differences(cert)):
        code_report = ldc._report(cert.code, [()] * cert.code.t)
    else:
        code_report = ldc.verify(cert.code)
    audit = None
    if cert.code.form == "special2":
        try:
            audit = entropy_audit(cert.code)
        except Rep2LdcError as exc:
            failures.append(f"entropy audit failed: {exc}")
    return CertCheckReport(
        kind=cert.kind,
        failures=tuple(failures),
        code_report=code_report,
        audit=audit,
    )


def verify_cert_json(obj, cap: int | None = None) -> CertCheckReport:
    return verify_cert(cert_from_json(obj, cap))
