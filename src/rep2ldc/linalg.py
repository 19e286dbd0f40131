"""Exact linear algebra over GF(p) and the rationals.

Matrices are immutable wrappers around numpy arrays: int64 residues for
prime fields (hot paths go through the kernels in _kernels.py), Fraction
object arrays for the rationals.  Their arithmetic goes through the field's
`matmul`, `reduce` and `canon`.  Rank, nullspace and rank factorization
each reduce to one deterministic RREF.  The row-space closure row_closure
keeps an RREF basis and reduces only what each round adds to it, and
row_closure_is_full, the full-span test, first tries a proof mod one
fixed prime over QQ.  `ranks` takes the ranks of a whole stack and
`array_keys` keys each matrix of a stack for dict lookup, on either field.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, ZeroMatrix
from .fields import GF, Field, scaled_numerators

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "rank",
    "nullspace",
    "rank_factorize",
    "row_closure",
    "row_closure_is_full",
    "ranks",
    "array_keys",
]


def _rref_fraction(a: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """RREF over the rationals; same pivot rule as the mod-p kernels."""
    a = a.copy()
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        piv = -1
        for i in range(r, m):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * (1 / a[r, c])
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    return a, r, np.asarray(pivots, dtype=np.int64)


def ranks(field: Field, stack: np.ndarray) -> np.ndarray:
    """Ranks of a (b, m, n) stack of canonical matrices, as int64 (b,):
    one batched elimination over GF(p), one RREF per matrix over QQ."""
    if field.char:
        return _kernels.rank_mod_batched(stack, field.char)
    return np.array([_rref_fraction(a)[1] for a in stack], dtype=np.int64)


def array_keys(field: Field, stack: np.ndarray) -> list:
    """Lookup keys of a (b, r, c) stack of canonical matrices: over GF(p)
    each matrix's bytes in the smallest unsigned dtype holding p - 1, all
    from one np.void view; over QQ its (numerator, denominator) pairs.  Keys
    carry neither p nor the shape, so one dict holds one field and shape."""
    flat = stack.reshape(len(stack), -1)
    if not field.char:
        return [tuple((x.numerator, x.denominator) for x in row) for row in flat.tolist()]
    flat = np.ascontiguousarray(flat, dtype=np.min_scalar_type(field.char - 1))
    if not flat.shape[1]:  # np.void holds at least one byte
        return [b""] * len(flat)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


class Matrix:
    """Immutable exact matrix over a fixed field."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, array, _canonical: bool = False):
        self.field = field
        if _canonical:
            a = array
        else:
            a = field.array(array)
        if a.ndim != 2:
            raise ValueError("matrix array must be 2-D")
        a.flags.writeable = False
        self.a = a

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.diag(field, [1] * n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        a = np.full((rows, cols), field.canon(0), dtype=np.int64 if field.char else object)
        return cls(field, a, _canonical=True)

    @classmethod
    def diag(cls, field: Field, entries: Sequence) -> "Matrix":
        n = len(entries)
        m = cls.zeros(field, n, n)
        a = m.a.copy()
        for i, x in enumerate(entries):
            a[i, i] = field.canon(x)
        return cls(field, a, _canonical=True)

    @classmethod
    def from_array(cls, field: Field, a: np.ndarray) -> "Matrix":
        """Wrap an already-canonical array without revalidation."""
        return cls(field, a, _canonical=True)

    # -- shape and access -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.a[i]

    def col(self, j: int) -> np.ndarray:
        return self.a[:, j]

    def key(self):
        """Hashable key of the entries, as the group lookup's array_keys."""
        return array_keys(self.field, self.a[None])[0]

    # -- arithmetic ---------------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch(f"{self.a.shape} + {other.a.shape}")
        return Matrix(self.field, self.field.reduce(self.a + other.a), _canonical=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch(f"{self.a.shape} - {other.a.shape}")
        return Matrix(self.field, self.field.reduce(self.a - other.a), _canonical=True)

    def scale(self, c) -> "Matrix":
        s = self.a * self.field.canon(c)
        return Matrix(self.field, self.field.reduce(s), _canonical=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.a.shape} @ {other.a.shape}")
        return Matrix(self.field, self.field.matmul(self.a, other.a), _canonical=True)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Column action: returns self @ v for a 1-D canonical vector."""
        return self.field.matmul(self.a, v)

    @property
    def T(self) -> "Matrix":
        return Matrix(self.field, np.ascontiguousarray(self.a.T), _canonical=True)

    def is_zero(self) -> bool:
        return not np.any(self.a != 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.a.shape == other.a.shape and bool(
            np.all(self.a == other.a)
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.a.tolist()!r})"


# -------------------------------------------------------------------------------
# core reductions
# -------------------------------------------------------------------------------

def _rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """(R, rank, pivot columns) of a canonical array, as arrays."""
    if field.char:
        return _kernels.rref_mod(np.ascontiguousarray(a), field.char)
    return _rref_fraction(a)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form, rank, and pivot columns."""
    r, rk, piv = _rref(m.field, m.a)
    return Matrix(m.field, r, _canonical=True), int(rk), tuple(int(c) for c in piv)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def nullspace(m: Matrix) -> "Subspace":
    """Right nullspace {v : m v = 0} as a subspace of F^cols.

    One RREF of m with its columns reversed: that system's free-variable
    basis, reversed in rows and columns, has each leading 1 at a free
    column and 0 at every other free column, so it is already the unique
    RREF basis.
    """
    field, n = m.field, m.cols
    r, rk, piv = rref(Matrix(field, np.ascontiguousarray(m.a[:, ::-1]), _canonical=True))
    free = [c for c in range(n) if c not in piv]
    basis = Matrix.zeros(field, len(free), n).a.copy()
    basis[np.arange(len(free)), free] = field.canon(1)
    basis[:, list(piv)] = field.reduce(-r.a[:rk, free]).T
    return Subspace(field, n, Matrix(field, np.ascontiguousarray(basis[::-1, ::-1]),
                                     _canonical=True), _trusted=True)


def rank_factorize(d: Matrix) -> tuple[Matrix, Matrix]:
    """Write a nonzero n x n matrix D as Y @ X.T with n x R factors of rank R.

    Y is the pivot columns of D, X.T the nonzero rows of rref(D); both are
    deterministic, no randomization.
    """
    if d.is_zero():
        raise ZeroMatrix("rank factorization needs a nonzero matrix")
    r, rk, piv = rref(d)
    y = Matrix(d.field, np.ascontiguousarray(d.a[:, list(piv)]), _canonical=True)
    x = Matrix(d.field, np.ascontiguousarray(r.a[:rk].T), _canonical=True)
    return y, x


# -------------------------------------------------------------------------------
# subspaces
# -------------------------------------------------------------------------------

class Subspace:
    """Subspace of F^n held as an RREF basis with no zero rows.

    The RREF basis is a canonical form, so equality of subspaces is
    equality of basis matrices.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, _trusted: bool = False):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis width != ambient dimension")
        if basis.field != field:
            raise DimensionMismatch(
                f"subspace and basis over different fields ({field!r}, {basis.field!r})")
        if not _trusted:
            r, rk, _ = rref(basis)
            basis = Matrix(field, np.ascontiguousarray(r.a[:rk]), _canonical=True)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        m = rows if isinstance(rows, Matrix) else Matrix(field, rows)
        return cls(field, ambient_dim, m)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash(("Subspace", self.ambient_dim, self.basis.key()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _block_size(rows: Matrix, mats: Sequence[Matrix]) -> int:
    """The n of the n x n matrices of a row closure (0 with none): each must
    be over the rows' field, of the first one's shape, with n dividing the
    row width; DimensionMismatch names the first that is not."""
    n = mats[0].rows if len(mats) else 0
    for i, m in enumerate(mats):
        if m.field != rows.field:
            raise DimensionMismatch(
                f"row_closure matrix {i} is over {m.field!r}, the rows over {rows.field!r}")
        if m.a.shape != (n, n) or not n or rows.cols % n:
            raise DimensionMismatch(
                f"row_closure matrix {i} is {m.rows} x {m.cols}, not n x n with n = "
                f"{n} dividing the row width {rows.cols}")
    return n


def row_closure(rows: Matrix, mats: Sequence[Matrix]) -> Subspace:
    """Smallest row space holding `rows` and closed under r -> r @ M for
    every n x n M of `mats`, each row read as n-wide blocks; with no
    matrices, the row space of `rows`.

    The basis stays in RREF.  A round takes the images of the rows added
    in the last round under every matrix (one product with their stack),
    clears them against the basis (images - images[:, pivots] @ basis, so
    an image in the span is a zero row), drops the zero rows and takes one
    RREF of what is left.  Its pivots are new, and one more product clears
    them from the old rows: the union, in pivot order, is the RREF of the
    larger space, unique and so the same bytes however it is reached.
    """
    field, width = rows.field, rows.cols
    n = _block_size(rows, mats)
    r, rk, piv = _rref(field, rows.a)
    basis = new = r[:rk]
    stack = np.stack([m.a for m in mats]) if n else None
    while n and 0 < rk < width:
        images = field.matmul(new.reshape(-1, n), stack).reshape(-1, width)
        images = field.reduce(images - field.matmul(images[:, piv], basis))
        r, k, new_piv = _rref(field, images[np.any(images != 0, axis=1)])
        if not k:
            break
        new = r[:k]
        basis = field.reduce(basis - field.matmul(basis[:, new_piv], new))
        piv = np.concatenate([piv, new_piv])
        order = np.argsort(piv)
        basis, piv, rk = np.concatenate([basis, new])[order], piv[order], rk + k
    return Subspace(field, width, Matrix(field, basis, _canonical=True), _trusted=True)


# Reduction mod PROOF_PRIME keeps every product of row_closure_is_full's proof
# on matmul_mod's int64 path: k (P - 1)^2 < 2^63 - 1 for k below 9 * 10^6.
PROOF_PRIME = 1_000_003


def row_closure_is_full(rows: Matrix, mats: Sequence[Matrix]) -> bool:
    """True iff row_closure(rows, mats) is all of F^cols.

    Over QQ a closure mod PROOF_PRIME comes first, when that prime P
    divides no denominator of rows or mats.  Reduction mod P is then a
    ring map from the rationals with denominators prime to P onto GF(P),
    and it carries each product of a row and matrices to the same product
    of their reductions.  A full closure mod P therefore holds cols such
    products whose reductions are independent: a minor of theirs is
    nonzero mod P, so the rational minor is nonzero, and the closure over
    QQ is full too.  A closure that is not full mod P proves nothing, as
    reduction can only lower a rank; the exact closure decides.
    """
    _block_size(rows, mats)
    if not rows.field.char:
        reduced = [_mod_prime(m, PROOF_PRIME) for m in (rows, *mats)]
        if all(m is not None for m in reduced):
            if row_closure(reduced[0], reduced[1:]).dim == rows.cols:
                return True
    return row_closure(rows, mats).dim == rows.cols


def _mod_prime(m: Matrix, p: int) -> Matrix | None:
    """A rational matrix reduced mod the prime p, or None when p divides a
    denominator."""
    nums, lcm = scaled_numerators(m.a)
    if lcm % p == 0:
        return None
    residues = np.array(nums, dtype=object) * pow(lcm, -1, p) % p
    return Matrix(GF(p), residues.astype(np.int64).reshape(m.a.shape), _canonical=True)
