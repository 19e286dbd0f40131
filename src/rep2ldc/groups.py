"""Finite matrix groups enumerated from generators.

A group is its own representation: elements are invertible matrices and
the action on F^n is plain matrix-vector multiplication.  BFS order over
generator words fixes a canonical numbering used by every downstream
certificate, with position 0 always the identity.

One int64 Cayley table, right[s, k] = position of elements[s] @ gen_k over
the distinct generators, answers every group question with integers, alike
over GF(p) and QQ: left_perm is one gather per BFS level, mul a word walk,
inv and element_order walks of powers, mult_cycles powers of left_perm.
Building it proves closure: every product must be indexed, so the set,
holding I, holds the generated group; every s != 0 needs a parent with
right[parent(s), last(s)] = s one BFS level up (of a word only its length
and last letter are read), so every element is a generator word.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernels
from .errors import CapExceeded, InternalInconsistency, NotInvertible, ZeroVector
from .fields import Field
from .linalg import Matrix, Subspace, nullspace, rank, residue_key, rref, subspace_sum

__all__ = [
    "MatrixGroup",
    "CycleDecomposition",
    "close_group",
    "default_cap",
    "mult_cycles",
    "burnside_irreducible",
    "spin",
    "fixed_space",
]

DEFAULT_CAP = 200_000
# Elements per batched product in the closure check; bounds its temporaries.
CLOSURE_CHUNK = 1024


def _orders_batched(block: np.ndarray, p: int) -> np.ndarray:
    """Orders of a (k, n, n) stack of invertible residue matrices.

    Step k multiplies the still-active powers g^k by g; an element leaves
    the active set once its power is I, so the loop runs max-order times
    on a shrinking batch.
    """
    eye = np.eye(block.shape[-1], dtype=np.int64)
    orders = np.zeros(len(block), dtype=np.int64)
    active = np.arange(len(block))
    acc = block
    k = 1
    while True:
        done = (acc == eye).all(axis=(1, 2))
        orders[active[done]] = k
        active, acc = active[~done], acc[~done]
        if not active.size:
            return orders
        acc = _kernels.matmul_mod(acc, block[active], p)
        k += 1


def default_cap() -> int:
    """Element cap, overridable through REP2LDC_CAP."""
    raw = os.environ.get("REP2LDC_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"REP2LDC_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("REP2LDC_CAP must be positive")
    return cap


class MatrixGroup:
    """Fully enumerated finite group of invertible n x n matrices.

    Built through close_group; immutable afterwards.  ``words[i]`` is the
    BFS generator word (tuple of generator indices, product left to
    right) reaching ``elements[i]``.
    """

    __slots__ = (
        "field",
        "dim",
        "elements",
        "index",
        "generators",
        "words",
        "identity_pos",
        "_table",
        "_left_perms",
        "_stacked",
        "_orders_ranks",
        "_burnside",
    )

    def __init__(self, field: Field, dim: int, elements: list[Matrix],
                 index: dict, generators: tuple[int, ...], words: tuple[tuple[int, ...], ...]):
        self.field = field
        self.dim = dim
        self.elements = tuple(elements)
        self.index = index
        self.generators = generators
        self.words = words
        self.identity_pos = 0
        self._table = None
        self._left_perms = {}
        self._stacked = None
        self._orders_ranks = None
        self._burnside = None

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def matrix(self, pos: int) -> Matrix:
        return self.elements[pos]

    def position_of(self, m: Matrix) -> int:
        """Position of a matrix, or raise KeyError if not an element."""
        return self.index[m.key()]

    def _cayley(self):
        """(right, parent, last, levels) of _cayley_table, built once."""
        if self._table is None:
            self._table = _cayley_table(self)
        return self._table

    def mul(self, i: int, j: int) -> int:
        right, parent, last, _ = self._cayley()
        word = []
        while j:
            word.append(last[j])
            j = parent[j]
        for k in reversed(word):
            i = right[i, k]
        return int(i)

    def _powers(self, i: int) -> list[int]:
        """Positions of g^0, g^1, ..., g^ord(g) = I for g = elements[i]."""
        powers = [0, i]
        while powers[-1]:
            powers.append(self.mul(powers[-1], i))
        return powers

    def inv(self, i: int) -> int:
        return int(self._powers(i)[-2])

    def element_order(self, i: int) -> int:
        """Smallest k >= 1 with g^k = identity."""
        return len(self._powers(i)) - 1

    def orders_and_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders, ranks): int64 arrays over positions, with orders[i] the
        order of elements[i] and ranks[i] = rank(elements[i] - I).

        One pass over the group, cached read-only.  Prime fields take
        chunks of CLOSURE_CHUNK elements: batched powers for the orders
        and one batched elimination for the ranks.  The rationals keep
        the exact per-element loop.
        """
        if self._orders_ranks is None:
            m = len(self.elements)
            orders = np.empty(m, dtype=np.int64)
            ranks = np.empty(m, dtype=np.int64)
            p = self.field.char
            if p:
                eye = np.eye(self.dim, dtype=np.int64)
                for start in range(0, m, CLOSURE_CHUNK):
                    block = np.stack(
                        [g.a for g in self.elements[start:start + CLOSURE_CHUNK]]
                    )
                    stop = start + len(block)
                    orders[start:stop] = _orders_batched(block, p)
                    ranks[start:stop] = _kernels.rank_mod_batched(block - eye, p)
            else:
                ident = Matrix.identity(self.field, self.dim)
                for pos, g in enumerate(self.elements):
                    orders[pos] = self.element_order(pos)
                    ranks[pos] = rank(g - ident)
            orders.flags.writeable = ranks.flags.writeable = False
            self._orders_ranks = (orders, ranks)
        return self._orders_ranks

    def left_perm(self, i: int) -> np.ndarray:
        """Permutation s -> position of elements[i] @ elements[s], one gather
        per BFS level: i s = (i parent(s)) gen_last(s)."""
        perm = self._left_perms.get(i)
        if perm is None:
            right, _, _, levels = self._cayley()
            perm = np.full(len(right), i, dtype=np.int64)  # levels fill all but 0
            for pos, parent, last in levels:
                perm[pos] = right[perm[parent], last]
            self._left_perms[i] = perm
        return perm

    def stacked(self) -> np.ndarray:
        """All elements as one (m, n, n) int64 array (prime fields only)."""
        if self.field.char == 0:
            raise ValueError("stacked arrays are only kept for prime fields")
        if self._stacked is None:
            self._stacked = np.stack([g.a for g in self.elements])
        return self._stacked

    def spec_json(self, cap: int | None = None) -> dict:
        from .serialize import matrix_to_json

        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "generators": [matrix_to_json(self.elements[g]) for g in self.generators],
            "cap": int(cap if cap is not None else default_cap()),
        }


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles of the permutation s -> h*s on element positions.

    Each cycle lists successive positions s, hs, h^2 s, ...; all cycles
    have length ord(h) and together they partition the group.
    """

    h: int
    order: int
    cycles: tuple[tuple[int, ...], ...]


def close_group(generators: list[Matrix], cap: int | None = None) -> MatrixGroup:
    """Breadth-first closure of a generator list into a full group.

    The identity sits at position 0; products explore cur @ gen in
    generator order, so positions are reproducible.  Every element is
    reached from the identity by its generator word, and building the
    Cayley table proves the result closed.  Raises CapExceeded if the
    closure grows past `cap`, NotInvertible for singular input.
    """
    if not generators:
        raise ValueError("need at least one generator")
    cap = default_cap() if cap is None else int(cap)
    field = generators[0].field
    n = generators[0].rows
    for g in generators:
        if g.field != field or g.rows != n or g.cols != n:
            raise ValueError("generators must be square matrices over one field")
        if rank(g) != n:
            raise NotInvertible("generator is singular")

    ident = Matrix.identity(field, n)
    elements: list[Matrix] = [ident]
    index = {ident.key(): 0}
    words: list[tuple[int, ...]] = [()]

    # Deduplicate generators for the BFS itself; keep provenance of each.
    uniq: list[tuple[int, Matrix]] = []
    seen = set()
    for gi, g in enumerate(generators):
        if g.key() not in seen:
            seen.add(g.key())
            uniq.append((gi, g))

    frontier = [0]
    while frontier:
        next_frontier = []
        for pos in frontier:
            cur = elements[pos]
            for gi, g in uniq:
                prod = cur @ g
                key = prod.key()
                if key not in index:
                    if len(elements) >= cap:
                        raise CapExceeded(cap)
                    index[key] = len(elements)
                    elements.append(prod)
                    words.append(words[pos] + (gi,))
                    next_frontier.append(index[key])
        frontier = next_frontier

    gen_positions = tuple(index[g.key()] for g in generators)
    group = MatrixGroup(field, n, elements, index, gen_positions, tuple(words))
    group._cayley()
    return group


def _cayley_table(group: MatrixGroup):
    """Build and prove the Cayley table (see the module docstring).

    Returns (right, parent, last, levels), last(s) as a table column and
    levels as (positions, parents, lasts) per BFS level from depth 1.
    Products are batched in chunks of CLOSURE_CHUNK over prime fields.
    """
    elements, index, m, p = group.elements, group.index, len(group.elements), group.field.char
    uniq = list(dict.fromkeys(group.generators))
    right = np.empty((m, len(uniq)), dtype=np.int64)
    try:
        for start in range(0, m, CLOSURE_CHUNK):
            chunk = elements[start:start + CLOSURE_CHUNK]
            block = np.stack([e.a for e in chunk]) if p else None
            for k, g in enumerate(elements[u] for u in uniq):
                keys = (map(residue_key, repeat(p), _kernels.matmul_mod(block, g.a, p)) if p
                        else ((e @ g).key() for e in chunk))
                right[start:start + len(chunk), k] = np.fromiter(
                    map(index.__getitem__, keys), dtype=np.int64, count=len(chunk))
    except KeyError:
        raise InternalInconsistency("BFS closure is not closed") from None
    depth = np.fromiter(map(len, group.words), dtype=np.int64, count=m)
    letter = np.fromiter((w[-1] if w else 0 for w in group.words), dtype=np.int64, count=m)
    if letter.min() < 0 or letter.max() >= len(group.generators):
        raise InternalInconsistency("BFS word letter is not a generator index")
    last = np.array([uniq.index(g) for g in group.generators], dtype=np.int64)[letter]
    s = np.arange(m)
    parent = np.argsort(right, axis=0)[s, last]  # column inverses
    bad = (right[parent, last] != s) | (depth[parent] != depth - 1)
    bad[0] = depth[0] != 0 or elements[0] != Matrix.identity(group.field, group.dim)
    if bad.any():
        raise InternalInconsistency(f"BFS word of element {int(np.argmax(bad))} has no parent")
    order = np.argsort(depth, kind="stable")
    levels = np.split(order, np.flatnonzero(np.diff(depth[order])) + 1)[1:]
    return right, parent, last, [(pos, parent[pos], last[pos]) for pos in levels]


def mult_cycles(group: MatrixGroup, h: int) -> CycleDecomposition:
    """Cycle decomposition of s -> h*s, each cycle from its smallest position,
    in increasing order: the power table of left_perm(h) over those starts,
    found as minima over doubling windows of powers."""
    perm, order = group.left_perm(h), group.element_order(h)
    ident = np.arange(len(perm))
    low, step, span = ident, perm, 1  # low[s] = min of h^a s over a < span
    while span < order:
        low, step, span = np.minimum(low, low[step]), step[step], 2 * span
    table = [np.flatnonzero(low == ident)]
    for _ in range(order - 1):
        table.append(perm[table[-1]])
    if len(table[0]) * order != len(perm) or not np.array_equal(perm[table[-1]], table[0]):
        raise InternalInconsistency("cycle length differs from element order")
    return CycleDecomposition(h, order, tuple(map(tuple, np.stack(table, axis=1).tolist())))


def burnside_irreducible(group: MatrixGroup) -> bool:
    """True iff the elements span the full n x n matrix algebra.

    True certifies (absolute) irreducibility of the action on F^n; False
    is inconclusive for irreducibility over F itself.  The verdict is
    cached on the group.
    """
    if group._burnside is None:
        group._burnside = _spans_matrix_algebra(group)
    return group._burnside


def _spans_matrix_algebra(group: MatrixGroup) -> bool:
    n = group.dim
    target = n * n
    field = group.field
    basis = Matrix.zeros(field, 0, target).a
    chunk = 256
    elems = group.elements
    for start in range(0, len(elems), chunk):
        block = np.stack([g.a.reshape(target) for g in elems[start:start + chunk]])
        stacked = np.concatenate([basis, block], axis=0)
        reduced, rk, _ = rref(Matrix(field, stacked, _canonical=True))
        basis = reduced.a[:rk]
        if rk == target:
            return True
    return basis.shape[0] == target


def spin(v, group: MatrixGroup) -> Subspace:
    """Smallest group-invariant subspace containing v.

    Closes {v} under the generators only; invariance under generators
    implies invariance under the whole group.
    """
    field = group.field
    v = v if isinstance(v, np.ndarray) else field.vector(v)
    if not np.any(v != 0):
        raise ZeroVector("cannot spin the zero vector")
    n = group.dim
    space = Subspace.from_rows(field, n, v.reshape(1, -1))
    frontier = [v]
    gens = [group.elements[g] for g in group.generators]
    while frontier and space.dim < n:
        next_frontier = []
        for u in frontier:
            for g in gens:
                w = g.matvec(u)
                if not space.contains_vector(w):
                    space = subspace_sum(
                        [space, Subspace.from_rows(field, n, w.reshape(1, -1))]
                    )
                    next_frontier.append(w)
        frontier = next_frontier
    return space


def fixed_space(group: MatrixGroup, h: int) -> Subspace:
    """Eigenspace {v : h v = v}; its codimension is rank(h - I)."""
    diff = group.elements[h] - Matrix.identity(group.field, group.dim)
    return nullspace(diff)
