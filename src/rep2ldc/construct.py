"""Pipeline from a low-rank group-element combination to a certified LDC.

Given elements h_1..h_q and scalars alpha_1..alpha_q whose combination
D = sum alpha_l rho(h_l) has rank R >= 1, the pipeline factorizes D,
builds a minimal spanning family of translates of the column span of Y
(the row-rank profile of one stack of translates, pruned by batched ranks),
equips it with dual vectors (nullspaces of the other translates stacked),
picks z avoiding the bad hyperplanes, and emits the projected-orbit code
a_s = W^T rho(s) z together with its matchings.  Every step is
deterministic given the seed, and the finished code is checked: a
general-form code by its tuple identities, a special2-form one by
ldc.verify (see `_build`).

The three kinds share one pipeline (`_build`) and one contract: the
density floor, the pre-filter guarantee, the survivor bound and the code's
form and length are each decided by one function here (`density_floor`,
`prefilter_holds`, `survivors_suffice`, `code_shape`), which the builders
and certcheck.verify_cert both call.  The pre-filter's tuples are checked
by ldc's one set-family rule and kept (general kind) by its one first fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, ldc
from .bounds import gamma
from .errors import (
    BudgetExhausted,
    IdentityElement,
    InternalInconsistency,
    OrbitDoesNotSpan,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from .fields import Field, scaled_numerators, strict_int
from .groups import CLOSURE_CHUNK, MatrixGroup, _cycle_table
from .ldc import LdcInstance, QMatching, verify
from .linalg import Matrix, Subspace, nullspace, rank_factorize, ranks, rref

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
    "density_floor",
    "prefilter_holds",
    "survivors_suffice",
    "code_shape",
    "build_q_ldc",
    "build_special_2ldc",
    "lambda_variant",
    "matching_index",
    "orbit_projection_check",
]

EXHAUSTIVE_Z_LIMIT = 100_000
# seeded draws of the randomized z search before it stops at the first best
# z meeting the survivor bound; it gives up after 100 times as many
Z_TRIALS = 64
# entries of one (normals x candidates) product of the rational z search
LATTICE_PRODUCT_ENTRIES = 1 << 20


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
    field, n = group.field, group.dim
    flat = group.stacked()[list(hs)].reshape(len(hs), n * n)
    return Matrix(field, field.matmul(field.vector(alphas), flat).reshape(n, n), _canonical=True)


def _translates(group: MatrixGroup, basis: np.ndarray, positions) -> np.ndarray:
    """(k, R, n) stack: slice j holds the rows of B g^T for the j'th listed
    element g, where the R x n basis B spans U, so its row space is U^g."""
    stack = group.stacked()[np.asarray(positions, dtype=np.int64)]
    return group.field.matmul(stack, basis.T).transpose(0, 2, 1)


def _first_redundant(field: Field, images: np.ndarray, n: int) -> int | None:
    """First k of a (t, R, n) stack of translates spanning F^n whose other
    t - 1 still span, or None: one batched rank over k < min(t, n).  Past n
    there is always such a k < n, for vectors v_k of the first n outside the
    rest would be a basis, and a vector of the next translate puts one inside."""
    if len(images) < 2:
        return None
    others = [np.delete(images, k, axis=0).reshape(-1, n) for k in range(min(len(images), n))]
    hits = np.flatnonzero(ranks(field, np.stack(others)) == n)
    return int(hits[0]) if hits.size else None


def minimal_spanning_family(group: MatrixGroup, u: Subspace) -> list[int]:
    """Minimal list of positions g_j with sum of U^{g_j} = F^n.

    Greedy first fit in canonical BFS order keeps g exactly when a row of
    U^g raises the rank of all rows before it, since the kept translates
    always span every one met so far.  So the greedy family is the row-rank
    profile of the translates stacked in BFS order: per chunk, the pivot
    columns of one RREF of [running basis; chunk rows]^T.  Chunks start at
    n positions and double up to CLOSURE_CHUNK; the scan stops at full
    rank.  Pruning then deletes the first member whose removal keeps the
    span, one batched rank per round, until none can go.  Raises
    OrbitDoesNotSpan when the full orbit fails to span, which is exactly a
    failure of the irreducibility hypothesis for this U.
    """
    field, n, r = group.field, group.dim, u.dim
    if r == 0:
        raise ValueError("seed subspace is zero")
    basis = u.basis.a
    family: list[int] = []
    rows = basis[:0]  # independent rows spanning every translate so far
    start, size, rk = 0, n, 0
    while rk < n and start < len(group):
        stop = min(start + min(size, CLOSURE_CHUNK), len(group))
        chunk = _translates(group, basis, range(start, stop)).reshape(-1, n)
        stacked = np.concatenate([rows, chunk])
        _, rk, piv = rref(Matrix(field, np.ascontiguousarray(stacked.T), _canonical=True))
        b = len(rows)  # a new pivot column c is row c - b of the chunk
        family.extend(dict.fromkeys(start + (c - b) // r for c in piv[b:]))
        rows = stacked[list(piv)]
        start, size = stop, 2 * size
    if rk < n:
        raise OrbitDoesNotSpan(f"translates of a dim-{r} subspace span only {rk} of {n} dimensions")
    images = _translates(group, basis, family)
    while (k := _first_redundant(field, images, n)) is not None:
        del family[k]
        images = np.delete(images, k, axis=0)
    return family


def _family_products(group: MatrixGroup, basis: np.ndarray, g_refs,
                     y: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """(images, ygs) of a family: the (t, R, n) translates U^{g_j} of the
    R x n basis of U (`_translates`) and the (t, n, R) products rho(g_j) Y,
    which `_dual_vectors` and `_check_family` both read."""
    g_refs = list(g_refs)
    return (_translates(group, basis, g_refs),
            group.field.matmul(group.stacked()[g_refs], y.a))


def dual_vectors(group: MatrixGroup, u: Subspace, g_refs, y: Matrix):
    """Vectors w_i orthogonal to every U^{g_j} except the i'th, with
    hat_w_i = (Y^{g_i})^T w_i != 0.  Returns (W, hat_w).

    w_i is the first nullspace basis row of the other translates stacked
    (the orthogonal complement of their sum, with the same RREF basis) with
    a nonzero hat_w_i: rows giving 0 combine to 0, so one product of the
    rows tests every candidate worth trying.
    """
    return _dual_vectors(group.field, *_family_products(group, u.basis.a, g_refs, y))


def _dual_vectors(field: Field, images: np.ndarray, ygs: np.ndarray):
    """`dual_vectors` from the family's `_family_products`."""
    n = images.shape[2]
    cols, hats = [], []
    for i in range(len(images)):
        others = np.delete(images, i, axis=0).reshape(-1, n)
        cands = nullspace(Matrix(field, others, _canonical=True)).basis.a
        cand_hats = field.matmul(cands, ygs[i])
        hit = np.flatnonzero(np.any(cand_hats != 0, axis=1))
        if not hit.size:
            raise InternalInconsistency(f"no dual vector for translate {i}; family not minimal?")
        cols.append(cands[hit[0]])
        hats.append(cand_hats[hit[0]])
    return Matrix.from_array(field, np.ascontiguousarray(np.stack(cols, axis=1))), hats


def validate_family(group: MatrixGroup, family: SpanningFamily, y: Matrix) -> None:
    """Assert every structural identity of the spanning family: the
    translates span F^n, none is redundant, W is n x t with t hat_w, each
    hat_w_j is nonzero and W^T rho(g_j) Y = e_j hat_w_j^T (the rank-one
    identities).  A failure names the first failing translate or both
    shapes, the checks running in that order.

    Redundancy is proved, not ranked, when the other checks pass and U is
    the column span of Y (one RREF of Y^T).  Then U^{g_j} is the column
    span of rho(g_j) Y, so the identities give w_k orthogonal to U^{g_j}
    for every j != k, and w_k^T rho(g_k) Y = hat_w_k^T != 0 makes w_k
    nonzero.  If the translates other than k spanned F^n, w_k would be
    orthogonal to F^n, hence zero; so no translate is redundant.  When a
    premise fails, the batched ranks of `_first_redundant` decide, ahead of
    the shape, hat_w and identity checks, so no failure hides another.
    """
    images, ygs = _family_products(group, family.U.basis.a, family.g_refs, y)
    _check_family(group, family, y, images, ygs)


def _check_family(group: MatrixGroup, family: SpanningFamily, y: Matrix, images: np.ndarray,
                  ygs: np.ndarray) -> None:
    """`validate_family` from the family's `_family_products`."""
    field, n, t = group.field, group.dim, family.t
    if rref(Matrix(field, images.reshape(-1, n), _canonical=True))[1] < n:
        raise InternalInconsistency("translates do not span the space")
    shaped = family.W.a.shape == (n, t) and len(family.hat_w) == t
    if shaped:
        prods = field.matmul(family.W.T.a, ygs)
        hats = np.stack(family.hat_w)
        expected = np.eye(t, dtype=np.int64)[:, :, None] * hats[:, None, :]
        wrong = np.any((prods != expected).reshape(t, -1), axis=1)
        zero = ~np.any(hats != 0, axis=1)
    proved = (shaped and not wrong.any() and not zero.any()
              and family.U == Subspace.from_rows(field, n, y.T))
    if not proved and (k := _first_redundant(field, images, n)) is not None:
        raise InternalInconsistency(f"translate {k} is redundant")
    if not shaped:
        raise InternalInconsistency(f"W has shape {family.W.a.shape} and {len(family.hat_w)} "
                                    f"hat_w rows, need {(n, t)} and {t}")
    for j in range(t):
        if zero[j]:
            raise InternalInconsistency(f"hat_w[{j}] is zero")
        if wrong[j]:
            raise InternalInconsistency(f"rank-one identity fails for translate {j}")


def _beta_columns(x: Matrix, hat_w) -> np.ndarray:
    """n x t array of columns c_j = X hat_w_j: beta_{j,s}(z) = <c_j, rho(s) z>."""
    return x.field.matmul(x.a, np.stack(hat_w, axis=1))


def _hyperplane_normals(group: MatrixGroup, x: Matrix, hat_w, kept_s) -> np.ndarray:
    """Rows v_{j,s} = rho(s)^T c_j, c_j the columns of `_beta_columns`, so that
    beta_{j,s}(z) = <v_{j,s}, z>, ordered by (j, s in kept order)."""
    n = group.dim
    # (kept, j, n) stack of c_j^T rho(s), reordered j-major
    block = group.field.matmul(_beta_columns(x, hat_w).T, group.stacked()[list(kept_s)])
    normals = np.ascontiguousarray(block.transpose(1, 0, 2).reshape(-1, n))
    if not np.any(normals != 0, axis=1).all():
        raise InternalInconsistency("zero hyperplane normal")
    return normals


def _counted_draws(seed: int, classes: np.ndarray, weights: np.ndarray, p: int):
    """(draw, count) of the 100 * Z_TRIALS seeded draws of choose_z, in draw
    order: count is the number of normals v with <v, draw> != 0, from their
    projective classes and weights.  Each block of Z_TRIALS draws is
    counted by one product, made only once the previous block is used up."""
    rng = np.random.default_rng(seed)
    n = classes.shape[1]
    for _ in range(100):
        draws = np.stack([rng.integers(0, p, size=n, dtype=np.int64) for _ in range(Z_TRIALS)])
        counts = weights @ (_kernels.matmul_mod(classes, draws.T, p) != 0)
        yield from zip(draws, counts.tolist())


def choose_z(field: Field, normals: np.ndarray, seed: int = 0):
    """Pick z with as many nonzero <normal, z> as possible.

    Finite field: exhaustive scan of all |F|^n vectors when that count is
    at most 10**5, else best of Z_TRIALS seeded draws retried up to 100x
    until the surviving fraction reaches 1 - 1/|F| (existence is
    guaranteed by the expectation argument).  Both count the weighted
    projective classes of the normals (`_kernels.projective_classes`): a
    normal and its nonzero multiples vanish on the same z, so every
    candidate's count, and hence the lex-first maximizer or the first best
    draw, equals that over the raw rows.  The draws are counted a block of
    Z_TRIALS at a time and walked in draw order with the same strict '>'
    and stop rule as one at a time.  Rationals: first lattice point, in
    itertools.product order, of the expanding boxes [0..B]^n (new shell
    only) avoiding every hyperplane, so the fraction is exactly 1.  Each
    normal is scaled by the positive lcm of its denominators, which keeps
    the zero dots zero, and a box's candidates are tested with one integer
    product (int64 under the overflow guard of Field.matmul, Python ints
    beyond it), split only where it would exceed LATTICE_PRODUCT_ENTRIES.

    Returns (z, mask) with mask[r] true iff row r survives, from one
    product of the normals with z on either field.  seed is a Python or
    numpy integer, at least 0.
    """
    seed = strict_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    k, n = normals.shape
    p = field.char
    if p:
        normals = np.ascontiguousarray(normals, dtype=np.int64)
    if p == 0:
        rows = [scaled_numerators(row)[0] for row in normals]
        top = max((abs(x) for row in rows for x in row), default=0)
        dtype = np.int64 if top * (k + 1) * n < 2**63 - 1 else object
        ints = np.array(rows, dtype=dtype).reshape(k, n)
        per_product = max(1, LATTICE_PRODUCT_ENTRIES // max(k, 1))
        for bound in range(1, k + 2):
            shell = (z for z in itertools.product(range(bound + 1), repeat=n)
                     if bound == 1 or max(z) == bound)
            hit = None
            while hit is None and (chunk := list(itertools.islice(shell, per_product))):
                dots = ints @ np.array(chunk, dtype=dtype).reshape(-1, n).T
                hits = np.flatnonzero((dots != 0).all(axis=0))
                hit = chunk[hits[0]] if hits.size else None
            if hit is not None:
                z = field.vector(hit)
                break
        else:
            raise InternalInconsistency("no lattice point avoids the hyperplanes")
    elif p**n <= EXHAUSTIVE_Z_LIMIT:
        z, count = _kernels.best_z_exhaustive(normals, p, n)
        if not survivors_suffice(field, count, k):
            raise InternalInconsistency("exhaustive scan fell below the mean")
        z = np.asarray(z, dtype=np.int64)
    else:
        classes, weights = _kernels.projective_classes(normals, p)
        z, best_count = None, -1
        for trial, (draw, count) in enumerate(_counted_draws(seed, classes, weights, p)):
            if count > best_count:
                z, best_count = draw.copy(), count
            if trial + 1 >= Z_TRIALS and survivors_suffice(field, best_count, k):
                break
        else:  # the best count only grows, so it never met the bound
            raise BudgetExhausted(f"no z met the surviving fraction in {100 * Z_TRIALS} draws")
    return z, field.matmul(normals, z) != 0


def beta(cert: ConstructionCert, j: int, s: int, z=None):
    """Exact inner product <X hat_w_j, rho(s) z>."""
    field = cert.group.field
    z = cert.z if z is None else (z if isinstance(z, np.ndarray) else field.vector(z))
    c = cert.X.matvec(cert.family.hat_w[j])
    u = cert.group.matrix(s).matvec(z)
    return np.asarray(field.matmul(c, u)).item()  # a canonical Python int or Fraction


def beta_table(cert: ConstructionCert) -> np.ndarray:
    """beta_{j,s}(z) for every element s (rows) and every j (columns), over
    either field: the beta half of the one orbit product (`_orbit_reading`)."""
    return _orbit_reading(cert)[1]


def _cycle_kept_s(group: MatrixGroup, h: int) -> list[int]:
    """Alternating edges of the h-multiplication cycles, as s-values.

    Each cycle of length k contributes floor(k/2) edges (h^{a+1}s0, h^a s0)
    at even offsets a, i.e. a perfect matching for even k and (k-1)/2
    edges for odd k.
    """
    return _cycle_table(group, h)[1][:, :-1:2].ravel().tolist()


def _tuple_positions(group: MatrixGroup, hs, gs, ss) -> np.ndarray:
    """(len(gs), q, len(ss)) int64 array: entry [j, l, i] is the position
    of g_j h_l s_i, two gathers through the cached left permutations."""
    ss = np.asarray(ss, dtype=np.int64)
    hs_s = np.stack([group.left_perm(h)[ss] for h in hs])
    g_perms = np.array([group.left_perm(g) for g in gs], dtype=np.int64).reshape(-1, len(group))
    return g_perms[:, hs_s]


def _greedy_kept_s(group: MatrixGroup, hs) -> list[int]:
    """Greedy disjoint q-tuples {h_1 s, ..., h_q s} over s in canonical order;
    the first fit of ldc keeps s when none of its members is used yet."""
    tuples = _tuple_positions(group, hs, [group.identity_pos], np.arange(len(group)))[0].T
    if ldc._set_faults(tuples, len(hs)).bad_size.any():
        raise InternalInconsistency("tuple members collide; hs not distinct?")
    return ldc._first_fit(tuples.tolist())


def matching_index(group: MatrixGroup, kind: str, hs, g_refs, kept_s) -> np.ndarray:
    """Code positions of every translated pre-filter tuple, as a
    (t, q, |kept_s|) int64 array: entry [j, l, si] is the position of
    g_j h_l s for s = kept_s[si].  For the lambda kind the second leg is
    g_j s in the scaled block, i.e. |G| + position of g_j s.

    Matching j of the code is slice j restricted to the surviving s.
    """
    if kind != "lambda":
        return _tuple_positions(group, hs, g_refs, kept_s)
    idx = _tuple_positions(group, [hs[0], group.identity_pos], g_refs, kept_s)
    idx[:, 1] += len(group)
    return idx


def _prepare(group: MatrixGroup, hs, alphas):
    """Shared head of every pipeline: D, factorization and family.  The
    family's translates and rho(g_j) Y are formed once, for its dual
    vectors and its check."""
    d = combine(group, hs, alphas)
    if d.is_zero():
        raise ZeroMatrix("combination of representation images is zero")
    y, x = rank_factorize(d)
    r = y.cols
    u = Subspace.from_rows(group.field, group.dim, y.T)
    g_refs = minimal_spanning_family(group, u)
    images, ygs = _family_products(group, u.basis.a, g_refs, y)
    w, hat_w = _dual_vectors(group.field, images, ygs)
    family = SpanningFamily(g_refs=tuple(g_refs), U=u, W=w, hat_w=tuple(hat_w))
    _check_family(group, family, y, images, ygs)
    return d, r, y, x, family


def _code_vectors(group: MatrixGroup, w: Matrix, z: np.ndarray, lam=None) -> np.ndarray:
    """Rows a_s = W^T rho(s) z for every element s in canonical order,
    followed for the lambda kind by the block lam * a_s.  The one product of
    the group stack with z: `_orbit_reading` passes [W | C] for the code
    vectors and the beta table at once."""
    field = group.field
    rows = field.matmul(field.matmul(group.stacked(), z), w.a)
    if lam is None:
        return rows
    return np.concatenate([rows, field.reduce(rows * lam)], axis=0)


def _matched_identities_hold(field: Field, vectors: np.ndarray, alphas, idx: np.ndarray,
                             mask: np.ndarray, betas: np.ndarray) -> bool:
    """Whether every matched (j, s), i.e. np.nonzero(mask), has a nonzero
    beta = betas[j, s] and sum_l alpha_l a_{idx[j, l, s]} = beta e_j, for
    the (m, t) code vectors, `matching_index`'s (t, q, |kept_s|) positions
    and the (t, |kept_s|) dots <normal_{j,s}, z>; one gather and one
    product over all matched tuples."""
    jj, ss = np.nonzero(mask)
    sides = field.matmul(field.vector(alphas), vectors[idx[jj, :, ss]])  # (matched, t)
    expected = np.zeros_like(sides)
    expected[np.arange(len(jj)), jj] = betas[jj, ss]
    return bool(np.all(betas[jj, ss] != 0) and np.array_equal(sides, expected))


def _position(group: MatrixGroup, h, name: str) -> int:
    """h as an int, an element position in [0, |G|); `name` names it in errors."""
    h, m = strict_int(h, name), len(group)
    if not 0 <= h < m:
        raise ValueError(f"element position {h} outside [0, {m})")
    return h


# -- the certificate contract: each rule of a kind is decided here alone, for
# the builders and for certcheck.verify_cert ---------------------------------

def density_floor(group: MatrixGroup, kind: str, hs) -> Fraction:
    """The density a kind guarantees, with h = hs[0]: theta * gamma_h / 2
    (special2), theta * gamma_h / 4 (lambda, length 2|G|) or theta / q^2
    (general)."""
    if kind == "general":
        return group.field.theta / len(hs) ** 2
    return group.field.theta * gamma(group.element_order(hs[0])) / (2 if kind == "special2" else 4)


def prefilter_holds(group: MatrixGroup, kind: str, hs, size: int) -> bool:
    """The pre-filter guarantee on `size` kept s: exactly gamma_h/2 of |G|
    from the h-cycles, or at least |G|/q^2 greedy q-tuples (general)."""
    if kind == "general":
        return size * len(hs) ** 2 >= len(group)
    return Fraction(size, len(group)) == gamma(group.element_order(hs[0])) / 2


def survivors_suffice(field: Field, survivors: int, total: int) -> bool:
    """The survivor bound survivors >= theta * total, exactly: 1 - 1/p of
    the tuples over GF(p), and over QQ (theta = 1) every one of them."""
    return survivors >= field.theta * total


def code_shape(kind: str, m: int) -> tuple[str, int]:
    """(form, length) of a kind's code over a group of m elements."""
    return ("general" if kind == "general" else "special2"), (2 * m if kind == "lambda" else m)


def _build(group: MatrixGroup, kind: str, hs, alphas, lam, seed: int) -> ConstructionCert:
    """The pipeline of every kind: the combination of hs and alphas, its
    spanning family, the pre-filter tuples, z and the code, each checked
    against the kind's contract; lam scales the lambda kind's second block.
    seed is a Python or numpy integer, at least 0, kept as int in the
    certificate; it is checked before any work.

    The code must pass its own verification.  A general-form code is
    checked by its tuple identities (`_matched_identities_hold`): where
    sum_l alpha_l a_{g_j h_l s} = beta_{j,s}(z) e_j with beta_{j,s}(z) != 0
    for every matched (j, s), e_j = beta^-1 sum_l alpha_l a_{g_j h_l s} lies
    in the span of matched set {g_j h_l s : l}, so every set passes the span
    test and the report is assembled from the matching sizes
    (`ldc._report`), as certcheck.verify_cert does.  Otherwise, and for
    special2-form codes, whose one-difference test costs about what an
    identity would, `ldc.verify` decides."""
    seed = strict_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    field, q = group.field, len(hs)
    d, r, y, x, family = _prepare(group, hs, alphas)
    kept_s = _greedy_kept_s(group, hs) if kind == "general" else _cycle_kept_s(group, hs[0])
    if not prefilter_holds(group, kind, hs, len(kept_s)):
        raise InternalInconsistency(f"{len(kept_s)} pre-filter tuples miss the {kind} guarantee")
    normals = _hyperplane_normals(group, x, family.hat_w, kept_s)
    z, mask = choose_z(field, normals, seed=seed)
    mask = mask.reshape(family.t, len(kept_s))
    idx = matching_index(group, kind, hs, family.g_refs, kept_s)
    matchings = tuple(QMatching(q=q, sets=idx[j][:, mask[j]].T) for j in range(family.t))
    counts = tuple(mi.size for mi in matchings)
    if not survivors_suffice(field, sum(counts), mask.size):
        raise InternalInconsistency("surviving fraction below theta")
    form, length = code_shape(kind, len(group))
    vectors = np.ascontiguousarray(_code_vectors(group, family.W, z, lam))
    code = LdcInstance(field=field, t=family.t, m=length,
                       vectors=Matrix.from_array(field, vectors), matchings=matchings,
                       form=form, q=q, claimed_delta=density_floor(group, kind, hs))
    if form == "general" and _matched_identities_hold(
            field, vectors, alphas, idx, mask, field.matmul(normals, z).reshape(mask.shape)):
        report = ldc._report(code, [()] * family.t)
    else:
        report = verify(code)
    if not report.passed:
        raise InternalInconsistency("constructed code failed verification")
    return ConstructionCert(
        group=group, kind=kind, hs=tuple(hs), alphas=tuple(field.canon(a) for a in alphas),
        lam=lam, D=d, R=r, Y=y, X=x, family=family, z=z, kept_s=tuple(map(int, kept_s)),
        prefilter_size=len(kept_s), beta_nonzero_count=counts, code=code,
        achieved_delta=Fraction(sum(counts), length * family.t), seed=seed,
    )


def build_q_ldc(group: MatrixGroup, hs, alphas, seed: int = 0) -> ConstructionCert:
    """General (q, >= theta/q^2)-LDC from q elements spanning a low-rank
    combination.  m = |G|, t >= ceil(n/R)."""
    hs = [_position(group, h, f"hs[{i}]") for i, h in enumerate(hs)]
    if len(set(hs)) != len(hs):
        raise ValueError("hs must be distinct group elements")
    return _build(group, "general", hs, alphas, None, seed)


def build_special_2ldc(group: MatrixGroup, h: int, seed: int = 0) -> ConstructionCert:
    """Special 2-LDC from a single non-identity element h.

    Canonicalizes to (h_1, h_2) = (h, id), (alpha_1, alpha_2) = (1, -1);
    matchings are alternating edges of the h-cycles, so the pre-filter
    density is exactly gamma_h/2 and the certified density is at least
    theta * gamma_h / 2.
    """
    h = _position(group, h, "h")
    if group.matrix(h) == Matrix.identity(group.field, group.dim):
        raise IdentityElement("h acts as the identity")
    return _build(group, "special2", [h, group.identity_pos], [1, -1], None, seed)


def lambda_variant(group: MatrixGroup, h: int, lam, seed: int = 0) -> ConstructionCert:
    """Special 2-LDC of length 2|G| from rho(h) - lambda*I.

    The raw pairs span e_j only with lambda's help, so the sequence is
    doubled with lambda*A and each pair takes one index from each block;
    matching sizes stay those of the h-cycles, halving the density to at
    least theta * gamma_h / 4.
    """
    h = _position(group, h, "h")
    field = group.field
    lam = field.canon(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if group.matrix(h) == Matrix.identity(field, group.dim).scale(lam):
        raise ScalarMultipleOfIdentity("rho(h) equals lambda * I")
    return _build(group, "lambda", [h, group.identity_pos], [1, field.canon(-lam)], lam, seed)


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
        term = field.reduce(cert.code.vectors.row(pos) * alpha)
        acc = term if acc is None else field.reduce(acc + term)
    return acc


def check_spanning_identities(cert: ConstructionCert) -> int:
    """Verify the tuple identity entrywise for every (j, s); returns the
    number of identities checked.

    Coordinate j's left sides over all s are one combination
    field.matmul(alphas, rows), as in `combine`, where row l holds a_{g_j h_l s}
    of every s; each j gathers its own (q, |G|) tuple positions and is one
    array comparison with the beta table, and a failure names the first
    failing (j, s) in j-major, then s order.
    """
    group = cert.group
    field = group.field
    t, q = cert.family.t, cert.q
    m = len(group)
    vectors = cert.code.vectors.a
    if vectors.shape[0] < m or vectors.shape[1] != t:
        raise InternalInconsistency(
            f"code vectors have shape {vectors.shape}, need at least {m} rows of length {t}"
        )
    betas = beta_table(cert)
    alphas = field.vector(cert.alphas)
    for j, g in enumerate(cert.family.g_refs):
        pos = _tuple_positions(group, cert.hs, [g], np.arange(m))[0]
        lhs = field.matmul(alphas, vectors[pos].reshape(q, -1)).reshape(m, t)
        expected = np.zeros_like(betas)
        expected[:, j] = betas[:, j]
        bad = np.flatnonzero(np.any(lhs != expected, axis=1))
        if bad.size:
            raise InternalInconsistency(f"tuple identity fails at (j={j}, s={int(bad[0])})")
    return t * m


def _orbit_reading(cert: ConstructionCert) -> tuple[np.ndarray, np.ndarray]:
    """(expected code vectors, beta table) from one `_code_vectors` on
    [W | C], C from `_beta_columns`, split at W's width: W^T rho(s) z with
    the lambda block, and over the first |G| rows <X hat_w_j, rho(s) z>."""
    group, w = cert.group, cert.family.W
    wc = np.concatenate([w.a, _beta_columns(cert.X, cert.family.hat_w)], axis=1)
    lam = cert.lam if cert.kind == "lambda" else None
    rows = _code_vectors(group, Matrix.from_array(group.field, wc), cert.z, lam)
    return rows[:, :w.cols], rows[:len(group), w.cols:]


def orbit_projection_check(cert: ConstructionCert) -> bool:
    """True iff every code vector is W^T rho(s) z (lambda block scaled)."""
    return np.array_equal(_orbit_reading(cert)[0], cert.code.vectors.a)
