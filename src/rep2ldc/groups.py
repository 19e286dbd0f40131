"""Finite matrix groups enumerated from generators.

A group is its own representation: elements are invertible matrices and
the action on F^n is plain matrix-vector multiplication.  BFS order over
generator words numbers the elements, the coordinate system of every
downstream certificate, with position 0 the identity.  They are stored once,
as one read-only (m, n, n) array (int64 residues over GF(p), Fractions over
QQ).  Two per-element values are built only when read, as no check and no
certificate needs them: index, the linalg.array_keys key of each element
to its position (position_of reads it), and words, each element's
generator word (the group export writes them).

One BFS pass fixes that numbering and is the int64 Cayley table, right[s, k]
= position of elements[s] @ gen_k over the distinct generators.  It runs on
points, the orbit of the rows of I (row i of g @ u is (row i of g) @ u):
at most n per element, often far fewer, and the only rows multiplied and
keyed.  An element is its n point ids and act[k, p] the id of point p @
gen_k, so a chunk times every generator is one integer gather.  A product
first met is the next element, its parent and generator kept (its word is
its parent's plus the generator's letter); any other is a table entry.  So
the pass is the closure proof: every row filled means the set, holding I,
is closed, and every element is a generator word in BFS order.  A copy made
with the constructor must be the BFS closure of its generators (_cayley).
The table answers group questions with integers: left_perm is
one gather per BFS level, mul a word walk, inv and element_order walks of
powers, mult_cycles powers of left_perm, and the conjugacy classes orbits
of s -> u^-1 s u, whose representatives alone get the batched powers and
linalg.ranks of orders_and_ranks.  Burnside is one
linalg.row_closure_is_full of vec(I) under the distinct generators:
span(G) is the algebra they generate, as g^-1 = g^(ord g - 1).  Over QQ
a full closure mod a fixed prime proves it; otherwise the exact closure
decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InternalInconsistency, NotInvertible
from .fields import Field, strict_int
from .linalg import Matrix, array_keys, rank, ranks, row_closure_is_full

__all__ = [
    "MatrixGroup",
    "CycleDecomposition",
    "close_group",
    "mult_cycles",
    "burnside_irreducible",
]

DEFAULT_CAP = 200_000
# Elements per BFS chunk, each times every distinct generator in one product,
# and class representatives per batch of powers and ranks; bounds temporaries.
CLOSURE_CHUNK = 1024


class MatrixGroup:
    """Fully enumerated finite group of invertible n x n matrices.

    Built through close_group; immutable afterwards.  ``words[i]`` is the
    BFS generator word (tuple of generator indices, product left to
    right) reaching element i.  The constructor also copies a closed group,
    taken on first use only if it is the BFS closure of its generators;
    close_group passes None for index and words, derived when first read.
    """

    __slots__ = (
        "field",
        "dim",
        "_index",
        "generators",
        "_words",
        "_stack",
        "_elements",
        "_table",
        "_left_perms",
        "_orders_ranks",
        "_burnside",
    )
    identity_pos = 0

    def __init__(self, field: Field, dim: int, elements, index: dict | None,
                 generators: tuple[int, ...], words: tuple[tuple[int, ...], ...] | None):
        if not isinstance(elements, np.ndarray):
            elements = np.concatenate([e.a for e in elements]).reshape(-1, dim, dim)
        elements.flags.writeable = False
        self.field = field
        self.dim = dim
        self._stack = elements
        self._index = index
        self.generators = generators
        self._words = None if words is None else tuple(words)
        self._elements = None
        self._table = None
        self._left_perms = {}
        self._orders_ranks = None
        self._burnside = None

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def elements(self) -> tuple[Matrix, ...]:
        """The elements as Matrix views of the stacked array, built on first use."""
        if self._elements is None:
            self._elements = tuple(Matrix(self.field, a, _canonical=True) for a in self._stack)
        return self._elements

    @property
    def index(self) -> dict:
        """The linalg.array_keys key of each element -> its position."""
        if self._index is None:
            self._index = dict(zip(array_keys(self.field, self._stack), range(len(self))))
        return self._index

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The BFS generator word of each element, in position order."""
        if self._words is None:
            _, parent, last, _ = self._cayley()
            self._words = _words(parent, last, self.generators)
        return self._words

    def matrix(self, pos: int) -> Matrix:
        return Matrix(self.field, self._stack[pos], _canonical=True)

    def position_of(self, m: Matrix) -> int:
        """Position of a matrix, or raise KeyError if not an element."""
        if m.field != self.field or m.a.shape != (self.dim, self.dim):
            raise KeyError(m)
        return self.index[m.key()]

    def _cayley(self):
        """(right, parent, last, levels) of the BFS pass.  A copy runs it on first
        use, with cap |copy|, and is taken only if the pass closes, its keys are
        the copy's and the index's block by block, and any given words are its."""
        if self._table is None:
            field, stack, index = self.field, self._stack, self.index
            gens = [self.matrix(u) for u in dict.fromkeys(self.generators)]
            step = max(1, CLOSURE_CHUNK // self.dim)  # blocks of CLOSURE_CHUNK rows
            try:
                points, ids, table = _bfs(field, gens, len(stack))
                closed = len(ids) == len(stack) == len(index)
            except CapExceeded:  # more elements than the copy holds
                closed = False
            for s in range(0, len(stack) if closed else 0, step):
                keys = array_keys(field, points[ids[s:s + step]])
                closed = (keys == array_keys(field, stack[s:s + step])
                          and list(map(index.get, keys)) == list(range(s, s + len(keys))))
                if not closed:
                    break
            if not closed or self._words is not None and self._words != _words(
                    table[1], table[2], self.generators):
                raise InternalInconsistency("group copy is not the BFS closure of its generators")
            self._table = table
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

        Both are class functions, as x(h - I)x^-1 = xhx^-1 - I: computed on
        each class's smallest position, CLOSURE_CHUNK at a time (batched
        powers g^k until I, one linalg.ranks), and read back per element.
        A class is an orbit of s -> u^-1 s u over the generators u: every
        position takes the least label of its images until none changes.
        Built once, cached read-only.
        """
        if self._orders_ranks is None:
            field, right = self.field, self._cayley()[0]
            conj = [self.left_perm(self.inv(u))[right[:, k]]
                    for k, u in enumerate(dict.fromkeys(self.generators))]
            label, prev = np.arange(len(right)), None
            while not np.array_equal(label, prev):
                prev = label
                for c in conj:
                    label = np.minimum(label, label[c])
                label = label[label]
            reps, label = np.unique(label, return_inverse=True)
            orders, rk = np.ones(len(reps), dtype=np.int64), np.empty(len(reps), dtype=np.int64)
            eye = Matrix.identity(field, self.dim).a
            for i in range(0, len(reps), CLOSURE_CHUNK):
                block = self._stack[reps[i:i + CLOSURE_CHUNK]]
                rk[i:i + len(block)] = ranks(field, field.reduce(block - eye))
                acc, active = block, np.arange(len(block))
                while active.size:  # acc[j] = block[active[j]] ** orders[i + active[j]]
                    keep = ~(acc == eye).all(axis=(1, 2))
                    acc, active = acc[keep], active[keep]
                    orders[i + active] += 1
                    acc = field.matmul(acc, block[active])
            orders, rk = orders[label], rk[label]
            orders.flags.writeable = rk.flags.writeable = False
            self._orders_ranks = (orders, rk)
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
        """The elements: the one read-only (m, n, n) array that stores them."""
        return self._stack

    def spec_json(self) -> dict:
        """Field, dimension, generators and an element cap the group fits
        under: DEFAULT_CAP, or |G| above it, whatever cap closed it."""
        from .serialize import matrix_to_json

        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "generators": [matrix_to_json(self.matrix(g)) for g in self.generators],
            "cap": max(DEFAULT_CAP, len(self)),
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
    generator order, so positions are reproducible.  The one BFS pass
    numbers the elements, builds the Cayley table and proves the result
    closed; generator u's position is right[0, column of u].  The group's
    index and words are built when first read.  Raises CapExceeded past
    `cap` elements or n * cap points, ValueError for a cap that is not a
    positive integer or 0 x 0 generators, NotInvertible for singular input.
    """
    if not generators:
        raise ValueError("need at least one generator")
    cap = _resolve_cap(cap)
    field = generators[0].field
    n = generators[0].rows
    for g in generators:
        if n < 1 or g.field != field or g.rows != n or g.cols != n:
            raise ValueError("generators must be square matrices over one field, at least 1 x 1")
        if rank(g) != n:
            raise NotInvertible("generator is singular")

    column = {g: k for k, g in enumerate(dict.fromkeys(generators))}
    points, ids, table = _bfs(field, list(column), cap)
    positions = tuple(int(table[0][0, column[g]]) for g in generators)
    group = MatrixGroup(field, n, points[ids], None, positions, None)
    group._table = table
    return group


def _resolve_cap(cap) -> int:
    """DEFAULT_CAP for None, else cap if it is a positive integer; ValueError otherwise."""
    cap = DEFAULT_CAP if cap is None else strict_int(cap, "cap")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap


def _bfs(field: Field, gens: list, cap: int):
    """The BFS pass (see the module docstring): (points, ids, (right,
    parent, last, levels)), element s being points[ids[s]], last(s) a table
    column and levels (positions, parents, lasts) per BFS level from depth 1.

    Positions are taken CLOSURE_CHUNK at a time.  The points met since the
    last chunk (the rows of I at first) times every distinct generator
    Matrix of `gens` side by side is one field.matmul, its rows numbered
    into act by one linalg.array_keys call; the chunk times every generator is then
    act[:, ids].  Past `cap` elements or n * cap points (each is a row of an
    element), CapExceeded."""
    n, nk = gens[0].rows, len(gens)
    side_by_side = np.concatenate([g.a for g in gens], axis=1)
    fresh = Matrix.identity(field, n).a  # the points not yet in act
    blocks, points = [fresh], dict(zip(array_keys(field, fresh[:, None]), range(n)))
    dt = np.min_scalar_type(n * cap)  # holds every id: more points raise CapExceeded first
    act, as_key = np.empty((nk, n), dtype=dt), np.dtype((np.void, dt.itemsize * n))
    keys = [np.arange(n, dtype=dt).tobytes()]  # of the elements, in BFS order
    index, right, parent, last = {keys[0]: 0}, [], [0], [0]
    s = done = 0
    while s < len(parent):
        e = min(s + CLOSURE_CHUNK, len(parent))  # only rows already met
        if done < len(points):
            images = field.matmul(fresh, side_by_side).reshape(-1, n)
            to, new = _number(points, array_keys(field, images[:, None]))
            if len(points) > n * cap:
                raise CapExceeded(cap)
            if len(points) > act.shape[1]:  # capacity doubles
                act = np.concatenate([act, np.empty((nk, len(points)), dtype=dt)], axis=1)
            act[:, done:done + len(fresh)] = np.array(to).reshape(-1, nk).T
            done, fresh = done + len(fresh), images[new]
            blocks.append(fresh)
        ids = np.frombuffer(b"".join(keys[s:e]), dtype=dt).reshape(-1, n)
        prods = np.ascontiguousarray(act[:, ids].swapaxes(0, 1)).view(as_key).ravel().tolist()
        found, first = _number(index, prods)
        if len(index) > cap:
            raise CapExceeded(cap)
        keys.extend([prods[j] for j in first])
        parent.extend([s + j // nk for j in first])
        last.extend([j % nk for j in first])
        right.extend(found)
        s = e
    right, parent, last = np.array(right).reshape(-1, nk), np.array(parent), np.array(last)
    ends = [1]  # parents never decrease: level d + 1 ends where parents reach level d's end
    while ends[-1] < len(parent):
        ends.append(int(np.searchsorted(parent, ends[-1])))
    levels = [(pos, parent[pos], last[pos])
              for pos in map(np.arange, ends[:-1], ends[1:])]
    ids = np.frombuffer(b"".join(keys), dtype=dt).reshape(-1, n)
    return np.concatenate(blocks), ids, (right, parent, last, levels)


def _words(parent: np.ndarray, last: np.ndarray, generators: tuple[int, ...]) -> tuple:
    """Each element's word: its parent's plus the letter of its table column,
    the first index in generators of that column's generator."""
    letters = [generators.index(u) for u in dict.fromkeys(generators)]
    words = [()]
    for row, k in zip(parent[1:].tolist(), last[1:].tolist()):
        words.append(words[row] + (letters[k],))
    return tuple(words)


def _number(index: dict, keys: list) -> tuple[list, list]:
    """(positions of keys in index, numbering new keys as met; where those first occur)."""
    found, first, size = list(map(index.get, keys)), [], len(index)
    for j in [j for j, t in enumerate(found) if t is None]:
        found[j] = index.setdefault(keys[j], len(index))
        if found[j] == size + len(first):
            first.append(j)
    return found, first


def _cycle_table(group: MatrixGroup, h: int) -> tuple[int, np.ndarray]:
    """(order, table) of s -> h*s: table is the (|G| / order, order) int64
    array whose row c is cycle c, s, hs, h^2 s, ..., from its smallest
    position, rows in increasing order of that start.  It is the power
    table of left_perm(h) over the starts, found as minima over doubling
    windows of powers."""
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
    return order, np.stack(table, axis=1)


def mult_cycles(group: MatrixGroup, h: int) -> CycleDecomposition:
    """Cycle decomposition of s -> h*s, each cycle from its smallest position,
    in increasing order (`_cycle_table`, as tuples)."""
    order, table = _cycle_table(group, h)
    return CycleDecomposition(h, order, tuple(map(tuple, table.tolist())))


def burnside_irreducible(group: MatrixGroup) -> bool:
    """True iff the elements span the full n x n matrix algebra.

    True certifies (absolute) irreducibility of the action on F^n; False
    is inconclusive for irreducibility over F itself.  As g^-1 = g^(ord g - 1),
    span(G) is vec(I) closed under right multiplication by the distinct
    generators: at most n^2 rows, however large G is.  Over QQ, when the
    prime linalg.PROOF_PRIME divides no denominator of the generators, a
    full closure of their reductions mod that prime proves the span full
    (reduction mod p can only lower a span's dimension); a closure that is
    not full mod p falls back to the exact closure over QQ, which decides.
    The verdict is cached on the group.
    """
    if group._burnside is None:
        vec_i = Matrix(group.field, np.eye(group.dim, dtype=np.int64).reshape(1, -1))
        gens = [group.matrix(u) for u in dict.fromkeys(group.generators)]
        group._burnside = row_closure_is_full(vec_i, gens)
    return group._burnside
