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
