"""Brute-force oracles, kept independent of the code paths they check,
and a cache-free copy of a closed group."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def brute_rank(rows, p) -> int:
    """Rank over GF(p) or the rationals (p == 0) by enumerating the row
    span (finite fields) or by minor expansion (rationals).

    Only usable at tiny sizes; that is the point.
    """
    rows = [tuple(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if p == 0:
        return _brute_rank_rational(rows)
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % p
            for j in range(len(rows[0]))
        )
        span.add(v)
    return round(math.log(len(span), p))


def _brute_rank_rational(rows) -> int:
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            minor = [r[:j] + r[j + 1:] for r in mat[1:]]
            total += (-1) ** j * mat[0][0 + j] * det(minor)
        return total

    rows = [[Fraction(x) for x in r] for r in rows]
    best = 0
    n, m = len(rows), len(rows[0])
    for k in range(1, min(n, m) + 1):
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    best = k
                    break
            if best == k:
                break
        if best < k:
            break
    return best


def rank_mod(rows, p) -> int:
    """Rank over GF(p) by Gaussian elimination in Python ints."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_verify(vectors, form, q, m, matchings, p):
    """Per coordinate (span_failures, structure_failures) of an LDC over
    GF(p), walking the sets one at a time in Python ints.

    `vectors` is a list of rows and `matchings` a list of set lists; the
    messages are the ones ldc.verify gives.
    """
    out = []
    for i, sets in enumerate(matchings):
        failures, structure, used = [], [], set()
        for s in sets:
            bad_size = len(set(s)) != q or len(s) != q
            if bad_size:
                structure.append(f"set {s} does not have {q} distinct members")
            if used.intersection(s):
                structure.append(f"set {s} overlaps an earlier set")
            used.update(s)
            if any(not 0 <= j < m for j in s):
                structure.append(f"set {s} indexes outside the code")
                continue
            if bad_size:
                continue
            rows = [list(vectors[j]) for j in s]
            if form == "special2":
                d = [(x - y) % p for x, y in zip(*rows)]
                ok = d[i] != 0 and sum(1 for x in d if x) == 1
            else:
                e = [int(c == i) for c in range(len(rows[0]))]
                ok = rank_mod(rows + [e], p) == rank_mod(rows, p)
            if not ok:
                failures.append(s)
        out.append((tuple(failures), tuple(structure)))
    return out


def brute_max_matching(pairs_ok, m: int) -> int:
    """Maximum matching size on m vertices by branch and bound.

    pairs_ok(i, j) says whether {i, j} is an edge.  Fine for m <= 12.
    """

    def rec(avail: tuple[int, ...]) -> int:
        if len(avail) < 2:
            return 0
        i = avail[0]
        rest = avail[1:]
        best = rec(rest)  # leave i unmatched
        for k, j in enumerate(rest):
            if pairs_ok(i, j):
                best = max(best, 1 + rec(rest[:k] + rest[k + 1:]))
        return best

    return rec(tuple(range(m)))


def brute_entropy(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            h -= (c / total) * math.log2(c / total)
    return h


def all_gf2_vectors(n: int):
    return list(itertools.product((0, 1), repeat=n))


def fresh_group(group):
    """Same elements and numbering as `group`, with empty per-group caches."""
    from rep2ldc.groups import MatrixGroup

    return MatrixGroup(group.field, group.dim, list(group.elements), group.index,
                       group.generators, group.words)


# Group questions answered by Matrix arithmetic and the element index,
# independent of the group's Cayley table.

def matrix_mul(group, i: int, j: int) -> int:
    return group.position_of(group.matrix(i) @ group.matrix(j))


def matrix_inv(group, i: int) -> int:
    from rep2ldc.linalg import invert

    return group.position_of(invert(group.matrix(i)))


def matrix_order(group, i: int) -> int:
    from rep2ldc.linalg import Matrix

    ident = Matrix.identity(group.field, group.dim)
    acc, order = group.matrix(i), 1
    while acc != ident:
        acc, order = acc @ group.matrix(i), order + 1
    return order


def matrix_left_perm(group, i: int) -> list[int]:
    return [matrix_mul(group, i, s) for s in range(len(group))]


def matrix_cycles(group, h: int) -> tuple[tuple[int, ...], ...]:
    """Cycles of s -> h s, each from its smallest unseen position, by walking
    matrix_left_perm one element at a time."""
    perm = matrix_left_perm(group, h)
    seen, cycles = set(), []
    for start in range(len(group)):
        cycle, s = [], start
        while s not in seen:
            seen.add(s)
            cycle.append(s)
            s = perm[s]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def reference_closure(generators, cap: int):
    """(elements, index, words) of the per-element BFS: each position in
    turn times each distinct generator, one Matrix product at a time, new
    products numbered as they are met.  Raises CapExceeded on the first
    new element past `cap`."""
    from rep2ldc.errors import CapExceeded
    from rep2ldc.linalg import Matrix

    ident = Matrix.identity(generators[0].field, generators[0].rows)
    elements, index, words = [ident], {ident.key(): 0}, [()]
    uniq, seen = [], set()
    for gi, g in enumerate(generators):
        if g.key() not in seen:
            seen.add(g.key())
            uniq.append((gi, g))
    frontier = [0]
    while frontier:
        next_frontier = []
        for pos in frontier:
            for gi, g in uniq:
                prod = elements[pos] @ g
                if prod.key() not in index:
                    if len(elements) >= cap:
                        raise CapExceeded(cap)
                    index[prod.key()] = len(elements)
                    elements.append(prod)
                    words.append(words[pos] + (gi,))
                    next_frontier.append(index[prod.key()])
        frontier = next_frontier
    return elements, index, words
