"""Pipeline from a low-rank group-element combination to a certified LDC.

Given elements h_1..h_q and scalars alpha_1..alpha_q whose combination
D = sum alpha_l rho(h_l) has rank R >= 1, the pipeline factorizes D,
builds a minimal spanning family of translates of the column span of Y,
equips it with dual vectors, picks z avoiding the bad hyperplanes, and
emits the projected-orbit code a_s = W^T rho(s) z together with its
matchings.  Every step is deterministic given the seed, and the finished
certificate re-verifies itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .bounds import gamma
from .errors import (
    BudgetExhausted,
    IdentityElement,
    InternalInconsistency,
    OrbitDoesNotSpan,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from .fields import Field
from .groups import MatrixGroup, mult_cycles
from .ldc import LdcInstance, QMatching, verify
from .linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    orth_complement,
    rank_factorize,
    subspace_contains,
    subspace_sum,
)

__all__ = [
    "SpanningFamily",
    "ConstructionCert",
    "combine",
    "minimal_spanning_family",
    "dual_vectors",
    "validate_family",
    "beta",
    "beta_table",
    "choose_z",
    "spanning_tuple_identity",
    "check_spanning_identities",
    "build_q_ldc",
    "build_special_2ldc",
    "lambda_variant",
    "orbit_projection_check",
]

EXHAUSTIVE_Z_LIMIT = 100_000


@dataclass(frozen=True)
class SpanningFamily:
    """Minimal translates g_1..g_t with sum of U^{g_j} = F^n, plus the
    dual vectors w_i (columns of W) orthogonal to U^{g_j} iff i != j."""

    g_refs: tuple[int, ...]
    U: Subspace
    W: Matrix                       # n x t
    hat_w: tuple[np.ndarray, ...]   # t vectors in F^R

    @property
    def t(self) -> int:
        return len(self.g_refs)


@dataclass(frozen=True)
class ConstructionCert:
    """Full transcript of one pipeline run."""

    group: MatrixGroup
    kind: str                       # "special2" | "general" | "lambda"
    hs: tuple[int, ...]
    alphas: tuple
    lam: object                     # scalar, lambda kind only
    D: Matrix
    R: int
    Y: Matrix
    X: Matrix
    family: SpanningFamily
    z: np.ndarray
    kept_s: tuple[int, ...]         # pre-filter matching, as s-values
    prefilter_size: int             # per-coordinate size before beta filtering
    beta_nonzero_count: tuple[int, ...]
    code: LdcInstance
    achieved_delta: Fraction
    seed: int

    @property
    def t(self) -> int:
        return self.family.t

    @property
    def q(self) -> int:
        return len(self.hs)


def combine(group: MatrixGroup, hs, alphas) -> Matrix:
    """Exact linear combination sum alpha_l * rho(h_l)."""
    if len(hs) != len(alphas) or not hs:
        raise ValueError("hs and alphas must be equal-length and nonempty")
    field = group.field
    acc = Matrix.zeros(field, group.dim, group.dim)
    for h, alpha in zip(hs, alphas):
        acc = acc + group.matrix(h).scale(alpha)
    return acc


def minimal_spanning_family(group: MatrixGroup, u: Subspace) -> list[int]:
    """Minimal list of positions g_j with sum of U^{g_j} = F^n.

    Scans elements in canonical BFS order, adding g whenever U^g is not
    already inside the running sum, then prunes redundant members.
    Raises OrbitDoesNotSpan when the full orbit fails to span, which is
    exactly a failure of the irreducibility hypothesis for this U.
    """
    field = group.field
    n = group.dim
    if u.dim == 0:
        raise ValueError("seed subspace is zero")
    family: list[int] = []
    images: list[Subspace] = []
    total = Subspace.zero(field, n)
    for pos in range(len(group)):
        img = apply_to_subspace(group.matrix(pos), u)
        if not subspace_contains(total, img):
            family.append(pos)
            images.append(img)
            total = subspace_sum([total, img])
            if total.is_full():
                break
    if not total.is_full():
        raise OrbitDoesNotSpan(
            f"translates of a dim-{u.dim} subspace span only {total.dim} of {n} dimensions"
        )
    changed = True
    while changed and len(family) > 1:
        changed = False
        for k in range(len(family)):
            rest = [images[i] for i in range(len(images)) if i != k]
            if subspace_sum(rest).is_full():
                del family[k]
                del images[k]
                changed = True
                break
    return family


def dual_vectors(group: MatrixGroup, u: Subspace, g_refs, y: Matrix):
    """Vectors w_i orthogonal to every U^{g_j} except the i'th, with
    hat_w_i = (Y^{g_i})^T w_i != 0.  Returns (W, hat_w)."""
    field = group.field
    n = group.dim
    t = len(g_refs)
    images = [apply_to_subspace(group.matrix(g), u) for g in g_refs]
    ygs = [group.matrix(g) @ y for g in g_refs]
    cols = []
    hats = []
    for i in range(t):
        others = [images[j] for j in range(t) if j != i]
        v = subspace_sum(others) if others else Subspace.zero(field, n)
        comp = orth_complement(v)
        ygi_t = ygs[i].T
        w = None
        for r in range(comp.dim):
            cand = comp.basis.row(r)
            if np.any(ygi_t.matvec(cand) != 0):
                w = cand
                break
        if w is None:
            # Unreachable when the family is minimal; kept as a guard.
            for r1, r2 in itertools.combinations(range(comp.dim), 2):
                cand = comp.basis.row(r1) + comp.basis.row(r2)
                if field.char:
                    cand = cand % field.char
                if np.any(ygi_t.matvec(cand) != 0):
                    w = cand
                    break
        if w is None:
            raise InternalInconsistency(
                f"no dual vector for translate {i}; family not minimal?"
            )
        cols.append(np.asarray(w))
        hats.append(ygi_t.matvec(w))
    w_arr = np.ascontiguousarray(np.stack(cols, axis=1))
    return Matrix.from_array(field, w_arr), hats


def validate_family(group: MatrixGroup, family: SpanningFamily, y: Matrix) -> None:
    """Assert every structural identity of the spanning family."""
    field = group.field
    n = group.dim
    r = y.cols
    t = family.t
    images = [apply_to_subspace(group.matrix(g), family.U) for g in family.g_refs]
    if not subspace_sum(images).is_full():
        raise InternalInconsistency("translates do not span the space")
    for i in range(t):
        others = [images[j] for j in range(t) if j != i]
        rest = subspace_sum(others) if others else Subspace.zero(field, n)
        if subspace_contains(rest, images[i]):
            raise InternalInconsistency(f"translate {i} is redundant")
    if t * r < n:
        raise InternalInconsistency("family too small to span")
    w_t = family.W.T
    for j, g in enumerate(family.g_refs):
        prod = w_t @ (group.matrix(g) @ y)
        hat = family.hat_w[j]
        if not np.any(hat != 0):
            raise InternalInconsistency(f"hat_w[{j}] is zero")
        expected = Matrix.zeros(field, t, r).a.copy()
        expected[j, :] = hat
        if not np.all(prod.a == expected):
            raise InternalInconsistency(f"rank-one identity fails for translate {j}")


def _hyperplane_normals(group: MatrixGroup, x: Matrix, hat_w, kept_s) -> np.ndarray:
    """Rows v with beta_{j,s}(z) = <v, z>, ordered by (j, s in kept order).

    v_{j,s} = rho(s)^T (X hat_w_j).
    """
    field = group.field
    n = group.dim
    cs = [x.matvec(h) for h in hat_w]
    if field.char:
        # (kept, j, n) stack of c_j^T rho(s), reordered j-major
        block = _kernels.matmul_mod(np.stack(cs), group.stacked()[list(kept_s)], field.char)
        normals = np.ascontiguousarray(block.transpose(1, 0, 2).reshape(-1, n))
    else:
        rows = [c.dot(group.matrix(s).a) for c in cs for s in kept_s]
        normals = np.stack(rows)
    if not all(np.any(row != 0) for row in normals):
        raise InternalInconsistency("zero hyperplane normal")
    return normals


def choose_z(field: Field, normals: np.ndarray, seed: int = 0, trials: int = 64):
    """Pick z with as many nonzero <normal, z> as possible.

    Finite field: exhaustive scan of all |F|^n vectors when that count is
    at most 10**5, else best of `trials` seeded draws retried up to 100x
    until the surviving fraction reaches 1 - 1/|F| (existence is
    guaranteed by the expectation argument).  Rationals: first lattice
    point in expanding boxes [0..B]^n avoiding every hyperplane, so the
    fraction is exactly 1.

    Returns (z, mask) with mask[r] true iff row r survives.
    """
    k, n = normals.shape
    if field.char == 0:
        for bound in range(1, k + 2):
            for z_tuple in itertools.product(range(bound + 1), repeat=n):
                if max(z_tuple) != bound and bound > 1:
                    continue
                z = field.vector(z_tuple)
                dots = normals.dot(z)
                if all(d != 0 for d in dots):
                    return z, np.ones(k, dtype=bool)
        raise InternalInconsistency("no lattice point avoids the hyperplanes")

    p = field.char
    normals = np.ascontiguousarray(normals, dtype=np.int64)
    # survivors * p >= (p - 1) * k, exactly
    if p**n <= EXHAUSTIVE_Z_LIMIT:
        z, count = _kernels.best_z_exhaustive(normals, p, n)
        if count * p < (p - 1) * k:
            raise InternalInconsistency("exhaustive scan fell below the mean")
        z = np.asarray(z, dtype=np.int64)
        mask = np.asarray(
            _kernels.matmul_mod(normals, z.reshape(-1, 1), p).ravel() != 0
        )
        return z, mask
    rng = np.random.default_rng(seed)
    best_z = None
    best_count = -1
    for trial in range(100 * trials):
        z = rng.integers(0, p, size=n, dtype=np.int64)
        count = _kernels.count_nonzero_dots(normals, z, p)
        if count > best_count:
            best_count = count
            best_z = z
        if trial + 1 >= trials and best_count * p >= (p - 1) * k:
            break
    else:
        if best_count * p < (p - 1) * k:
            raise BudgetExhausted(
                f"no z met the surviving fraction in {100 * trials} draws"
            )
    mask = np.asarray(
        _kernels.matmul_mod(normals, best_z.reshape(-1, 1), p).ravel() != 0
    )
    return best_z, mask


def beta(cert: ConstructionCert, j: int, s: int, z=None):
    """Exact inner product <X hat_w_j, rho(s) z>."""
    field = cert.group.field
    z = cert.z if z is None else (z if isinstance(z, np.ndarray) else field.vector(z))
    c = cert.X.matvec(cert.family.hat_w[j])
    u = cert.group.matrix(s).matvec(z)
    if field.char:
        dot = _kernels.matmul_mod(c.reshape(1, -1), u.reshape(-1, 1), field.char)
        return int(dot[0, 0])
    return c.dot(u)


def beta_table(cert: ConstructionCert, positions=None) -> np.ndarray:
    """beta_{j,s}(z) for s in `positions` (rows; default every element)
    and every j (columns), over a prime field.

    Two batched products: rho(s) z for every s, then against the columns
    X hat_w_j.  _kernels.matmul_mod stays exact for any machine-word prime.
    """
    group = cert.group
    p = group.field.char
    n = group.dim
    stack = group.stacked()
    if positions is not None:
        stack = stack[np.asarray(positions, dtype=np.int64)]
    rho_z = _kernels.matmul_mod(stack.reshape(-1, n), cert.z.reshape(-1, 1), p)
    cs = np.stack([cert.X.matvec(h) for h in cert.family.hat_w], axis=1)
    return _kernels.matmul_mod(rho_z.reshape(-1, n), cs, p)


def _cycle_kept_s(group: MatrixGroup, h: int) -> list[int]:
    """Alternating edges of the h-multiplication cycles, as s-values.

    Each cycle of length k contributes floor(k/2) edges (h^{a+1}s0, h^a s0)
    at even offsets a, i.e. a perfect matching for even k and (k-1)/2
    edges for odd k.
    """
    dec = mult_cycles(group, h)
    kept = []
    for cycle in dec.cycles:
        k = len(cycle)
        for a in range(0, k - 1, 2):
            kept.append(cycle[a])
    return kept


def _greedy_kept_s(group: MatrixGroup, hs) -> list[int]:
    """Greedy disjoint q-tuples {h_1 s, ..., h_q s} over s in canonical order."""
    perms = [group.left_perm(h) for h in hs]
    q = len(hs)
    m = len(group)
    candidates = []
    for s in range(m):
        tup = tuple(int(perm[s]) for perm in perms)
        if len(set(tup)) != q:
            raise InternalInconsistency("tuple members collide; hs not distinct?")
        candidates.append(tup)
    kept_s = []
    used: set[int] = set()
    for s, c in enumerate(candidates):
        if not used.intersection(c):
            kept_s.append(s)
            used.update(c)
    if len(kept_s) * q * q < m:
        raise InternalInconsistency(
            f"greedy kept {len(kept_s)} tuples, below |G|/q^2 = {m}/{q * q}"
        )
    return kept_s


def _prepare(group: MatrixGroup, hs, alphas):
    """Shared head of every pipeline: D, factorization and family."""
    d = combine(group, hs, alphas)
    if d.is_zero():
        raise ZeroMatrix("combination of representation images is zero")
    y, x = rank_factorize(d)
    r = y.cols
    u = Subspace.from_rows(group.field, group.dim, y.T)
    g_refs = minimal_spanning_family(group, u)
    w, hat_w = dual_vectors(group, u, g_refs, y)
    family = SpanningFamily(g_refs=tuple(g_refs), U=u, W=w, hat_w=tuple(hat_w))
    validate_family(group, family, y)
    return d, r, y, x, family


def _code_vectors(group: MatrixGroup, w: Matrix, z: np.ndarray) -> np.ndarray:
    """Rows a_s = W^T rho(s) z for every element s in canonical order."""
    p = group.field.char
    if p:
        rho_z = _kernels.matmul_mod(group.stacked(), z, p)
        return _kernels.matmul_mod(rho_z, w.a, p)
    rows = [group.matrix(s).a.dot(z).dot(w.a) for s in range(len(group))]
    return np.stack(rows)


def _positions(group: MatrixGroup, hs) -> list[int]:
    """hs as ints, each an element position in [0, |G|)."""
    hs = [int(h) for h in hs]
    m = len(group)
    for h in hs:
        if not 0 <= h < m:
            raise ValueError(f"element position {h} outside [0, {m})")
    return hs


def _finish(
    group: MatrixGroup,
    kind: str,
    hs,
    alphas,
    lam,
    d,
    r,
    y,
    x,
    family,
    kept_s,
    claimed_delta: Fraction,
    seed: int,
    trials: int,
) -> ConstructionCert:
    field = group.field
    t = family.t
    m = len(group)
    normals = _hyperplane_normals(group, x, family.hat_w, kept_s)
    z, mask = choose_z(field, normals, seed=seed, trials=trials)
    mask = mask.reshape(t, len(kept_s))

    vec_rows = _code_vectors(group, family.W, z)
    if kind == "lambda":
        lam_c = field.canon(lam)
        second = vec_rows * lam_c
        if field.char:
            second %= field.char
        vec_rows = np.concatenate([vec_rows, second], axis=0)
    vectors = Matrix.from_array(field, np.ascontiguousarray(vec_rows))

    h_perms = [group.left_perm(h) for h in hs]
    matchings = []
    counts = []
    for j, g in enumerate(family.g_refs):
        gj_perm = group.left_perm(g)
        sets = []
        for si, s in enumerate(kept_s):
            if not mask[j, si]:
                continue
            if kind == "lambda":
                p1 = int(gj_perm[h_perms[0][s]])
                p2 = m + int(gj_perm[s])
                sets.append((p1, p2))
            else:
                sets.append(tuple(int(gj_perm[perm[s]]) for perm in h_perms))
        matchings.append(QMatching(q=len(hs), sets=tuple(sets)))
        counts.append(len(sets))

    m_code = 2 * m if kind == "lambda" else m
    code = LdcInstance(
        field=field,
        t=t,
        m=m_code,
        vectors=vectors,
        matchings=tuple(matchings),
        form="special2" if kind in ("special2", "lambda") else "general",
        q=len(hs),
        claimed_delta=claimed_delta,
    )

    total = t * len(kept_s)
    survivors = sum(counts)
    if field.char:
        if survivors * field.char < (field.char - 1) * total:
            raise InternalInconsistency("surviving fraction below 1 - 1/|F|")
    elif survivors != total:
        raise InternalInconsistency("rational z must keep every tuple")

    cert = ConstructionCert(
        group=group,
        kind=kind,
        hs=tuple(hs),
        alphas=tuple(field.canon(a) for a in alphas),
        lam=None if kind != "lambda" else field.canon(lam),
        D=d,
        R=r,
        Y=y,
        X=x,
        family=family,
        z=z,
        kept_s=tuple(int(s) for s in kept_s),
        prefilter_size=len(kept_s),
        beta_nonzero_count=tuple(counts),
        code=code,
        achieved_delta=Fraction(sum(counts), m_code * t),
        seed=seed,
    )
    report = verify(code)
    if not report.passed:
        raise InternalInconsistency("constructed code failed verification")
    if not orbit_projection_check(cert):
        raise InternalInconsistency("code is not the expected orbit projection")
    return cert


def build_q_ldc(group: MatrixGroup, hs, alphas, seed: int = 0, trials: int = 64) -> ConstructionCert:
    """General (q, >= theta/q^2)-LDC from q elements spanning a low-rank
    combination.  m = |G|, t >= ceil(n/R)."""
    hs = _positions(group, hs)
    if len(set(hs)) != len(hs):
        raise ValueError("hs must be distinct group elements")
    d, r, y, x, family = _prepare(group, hs, alphas)
    kept_s = _greedy_kept_s(group, hs)
    theta = group.field.theta
    claimed = theta / (len(hs) ** 2)
    return _finish(
        group, "general", hs, alphas, None, d, r, y, x, family, kept_s, claimed, seed, trials
    )


def build_special_2ldc(group: MatrixGroup, h: int, seed: int = 0, trials: int = 64) -> ConstructionCert:
    """Special 2-LDC from a single non-identity element h.

    Canonicalizes to (h_1, h_2) = (h, id), (alpha_1, alpha_2) = (1, -1);
    matchings are alternating edges of the h-cycles, so the pre-filter
    density is exactly gamma_h/2 and the certified density is at least
    theta * gamma_h / 2.
    """
    (h,) = _positions(group, [h])
    ident = Matrix.identity(group.field, group.dim)
    if group.matrix(h) == ident:
        raise IdentityElement("h acts as the identity")
    hs = [h, group.identity_pos]
    alphas = [1, -1]
    d, r, y, x, family = _prepare(group, hs, alphas)
    kept_s = _cycle_kept_s(group, h)
    g_h = gamma(group.element_order(h))
    if Fraction(len(kept_s), len(group)) != g_h / 2:
        raise InternalInconsistency("cycle matching size differs from gamma/2")
    claimed = group.field.theta * g_h / 2
    return _finish(
        group, "special2", hs, alphas, None, d, r, y, x, family, kept_s, claimed, seed, trials
    )


def lambda_variant(group: MatrixGroup, h: int, lam, seed: int = 0, trials: int = 64) -> ConstructionCert:
    """Special 2-LDC of length 2|G| from rho(h) - lambda*I.

    The raw pairs span e_j only with lambda's help, so the sequence is
    doubled with lambda*A and each pair takes one index from each block;
    matching sizes stay those of the h-cycles, halving the density to at
    least theta * gamma_h / 4.
    """
    (h,) = _positions(group, [h])
    field = group.field
    lam_c = field.canon(lam)
    if lam_c == 0:
        raise ValueError("lambda must be nonzero")
    scaled_ident = Matrix.identity(field, group.dim).scale(lam_c)
    if group.matrix(h) == scaled_ident:
        raise ScalarMultipleOfIdentity("rho(h) equals lambda * I")
    hs = [h, group.identity_pos]
    alphas = [1, field.canon(-lam_c)]
    d, r, y, x, family = _prepare(group, hs, alphas)
    kept_s = _cycle_kept_s(group, h)
    g_h = gamma(group.element_order(h))
    claimed = field.theta * g_h / 4
    return _finish(
        group, "lambda", hs, alphas, lam_c, d, r, y, x, family, kept_s, claimed, seed, trials
    )


def spanning_tuple_identity(cert: ConstructionCert, j: int, s: int) -> np.ndarray:
    """Left side of the tuple identity: sum alpha_l * a_{g_j h_l s}.

    Equals beta_{j,s}(z) * e_j exactly; for the lambda kind the second
    index is read from the scaled block, where the identity becomes
    a_{g_j h s} - lambda * a_{g_j s} = A[p1] - lambda * A[p2].
    """
    field = cert.group.field
    group = cert.group
    gj = cert.family.g_refs[j]
    gj_perm = group.left_perm(gj)
    acc = None
    for h, alpha in zip(cert.hs, cert.alphas):
        pos = int(gj_perm[group.left_perm(h)[s]])
        term = cert.code.vectors.row(pos) * alpha
        if field.char:
            term = term % field.char
        acc = term if acc is None else acc + term
        if field.char:
            acc = acc % field.char
    return acc


def check_spanning_identities(cert: ConstructionCert) -> int:
    """Verify the tuple identity entrywise for every (j, s); returns the
    number of identities checked.

    Over a prime field each j is one array comparison over all s; a
    failure names the first failing (j, s) in j-major, then s order.
    """
    group = cert.group
    p = group.field.char
    t = cert.family.t
    m = len(group)
    vectors = cert.code.vectors.a
    if vectors.shape[0] < m or vectors.shape[1] != t:
        raise InternalInconsistency(
            f"code vectors have shape {vectors.shape}, need at least {m} rows of length {t}"
        )
    if not p:
        return _check_spanning_identities_scalar(cert)
    betas = beta_table(cert)
    h_perms = [group.left_perm(h) for h in cert.hs]
    for j, g in enumerate(cert.family.g_refs):
        gj_perm = group.left_perm(g)
        lhs = None
        for h_perm, alpha in zip(h_perms, cert.alphas):
            term = vectors[gj_perm[h_perm]] * alpha % p
            lhs = term if lhs is None else (lhs + term) % p
        expected = np.zeros((m, t), dtype=np.int64)
        expected[:, j] = betas[:, j]
        bad = np.flatnonzero(np.any(lhs != expected, axis=1))
        if bad.size:
            raise InternalInconsistency(f"tuple identity fails at (j={j}, s={int(bad[0])})")
    return t * m


def _check_spanning_identities_scalar(cert: ConstructionCert) -> int:
    """Rational path of check_spanning_identities, one (j, s) at a time."""
    group = cert.group
    field = group.field
    t = cert.family.t
    m = len(group)
    checked = 0
    for j in range(t):
        for s in range(m):
            lhs = spanning_tuple_identity(cert, j, s)
            expected = Matrix.zeros(field, 1, t).a.copy().ravel()
            expected[j] = beta(cert, j, s)
            if not all(a == e for a, e in zip(lhs, expected)):
                raise InternalInconsistency(f"tuple identity fails at (j={j}, s={s})")
            checked += 1
    return checked


def orbit_projection_check(cert: ConstructionCert) -> bool:
    """True iff every code vector is W^T rho(s) z (lambda block scaled)."""
    group = cert.group
    field = group.field
    expected = _code_vectors(group, cert.family.W, cert.z)
    if cert.kind == "lambda":
        second = expected * cert.lam
        if field.char:
            second %= field.char
        expected = np.concatenate([expected, second], axis=0)
    actual = cert.code.vectors.a
    if expected.shape != actual.shape:
        return False
    return bool(np.all(expected == actual))
