"""Locally decodable codes as vector lists with per-coordinate matchings.

An instance is a sequence of m vectors in F^t together with one family of
pairwise-disjoint query sets per coordinate.  In `general` form each set
spans the standard basis vector of its coordinate; in `special2` form the
sets are pairs whose difference is a nonzero multiple of it.  Indices into
the vector list are 0-based throughout.

One rule, `_set_faults`, decides whether index sets are q distinct,
pairwise disjoint positions inside the code.  It runs where sets are made:
in QMatching's constructor (sizes and disjointness), in
bounds.match_entropy_check and in the pre-filters of construct and
certcheck.  LdcInstance's constructor adds the range [0, m), which only
it knows, by comparing the first and last member of each of a matching's
rows, checked and sorted when it was made.  `verify` and
bounds.entropy_audit read a QMatching's members without asking again.
One first fit, `_first_fit`, keeps the disjoint subfamily of construct's
general pre-filter.

`verify` decides the span condition for all sets of a coordinate at
once, over GF(p) and QQ alike: special2 pairs by one difference array,
general q-sets by comparing batched ranks (linalg.ranks) with and without
e_i.  `_report` assembles a report from each coordinate's failing sets;
`verify` passes the sets its span test refused, and certcheck.verify_cert
passes none when its lemma proves every set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .fields import Field, strict_int
from .linalg import Matrix, ranks

__all__ = [
    "QMatching",
    "LdcInstance",
    "VerificationReport",
    "CoordinateReport",
    "verify",
    "max_special_matching",
    "hadamard",
]


class _Faults(NamedTuple):
    """The verdict of `_set_faults` on a family of k index sets."""

    members: np.ndarray   # every set's members, concatenated in set order
    sizes: np.ndarray     # (k,) each set's length
    bad_size: np.ndarray  # (k,) length other than q, or a repeated member
    overlap: np.ndarray   # (k,) a member shared with an earlier set
    outside: np.ndarray   # (k,) a member outside [0, m); never when m is None


def _set_faults(sets, q: int, m: int | None = None) -> _Faults:
    """The one rule for a family of index sets: q distinct members per
    set, pairwise disjoint sets, every member in [0, m).

    `sets` is a (k, q) integer array or a sequence of integer sequences,
    which may differ in length.  Only a 2-D array of signed integers, or
    of unsigned ones narrower than 64 bits, is cast as a whole; anything
    else is read as a sequence, where every member must be an int or a
    numpy integer that fits in int64.  Any other member (a bool, a float,
    a numeric string) raises ValueError.  One sort of the members finds
    the repeated values; when there are any, a stable sort puts every
    occurrence of a value after the earlier ones (members come in set
    order), and an occurrence whose predecessor lies in the same set is a
    repeat, one whose predecessor lies in an earlier set an overlap.
    """
    if isinstance(sets, np.ndarray) and sets.ndim == 2 and (
            sets.dtype.kind == "i" or sets.dtype.kind == "u" and sets.dtype.itemsize < 8):
        flat = sets.astype(np.int64, copy=False).ravel()
        sizes = np.full(sets.shape[0], sets.shape[1], dtype=np.int64)
    else:
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        items = list(itertools.chain.from_iterable(sets))
        wrong = {t for t in set(map(type, items))
                 if t is bool or not issubclass(t, (int, np.integer))}
        if wrong:
            bad = next(x for x in items if type(x) in wrong)
            raise ValueError(f"set member {bad!r} is not an integer")
        try:
            flat = np.fromiter(items, dtype=np.int64, count=len(items))
        except OverflowError as exc:
            raise ValueError(f"set member does not fit in int64: {exc}") from exc
    k = sizes.size
    owner = np.repeat(np.arange(k), sizes)
    value = np.sort(flat)
    dup = np.flatnonzero(value[1:] == value[:-1])
    earlier = later = dup
    if dup.size:
        order = np.argsort(flat, kind="stable")
        earlier, later = owner[order[dup]], owner[order[dup + 1]]
    repeat = np.bincount(later[earlier == later], minlength=k) > 0
    overlap = np.bincount(later[earlier < later], minlength=k) > 0
    off = np.zeros(flat.size, dtype=bool) if m is None else (flat < 0) | (flat >= m)
    outside = np.bincount(owner[off], minlength=k) > 0
    return _Faults(flat, sizes, (sizes != q) | repeat, overlap, outside)


def _first_fit(candidates) -> list[int]:
    """Indices of the first-fit maximal disjoint subfamily: a candidate is
    kept when it shares no member with an earlier kept one."""
    kept = []
    used: set[int] = set()
    for k, cand in enumerate(candidates):
        if used.isdisjoint(cand):
            kept.append(k)
            used.update(cand)
    return kept


class QMatching:
    """Family of pairwise disjoint q-subsets of code positions.

    `sets` is a (k, q) integer array or integer sequences, decided here,
    once, by the set rule.  The matching holds only `q` and `members`, a
    read-only (k, q) int64 array with each row sorted; `sets` (the rows as
    int tuples) and `size` are read off it.  It cannot be changed, and `==`
    and `hash` go by (q, members).
    """

    __slots__ = ("q", "members")

    def __init__(self, q: int, sets):
        q = strict_int(q, "q")
        if q < 1:
            raise ValueError(f"matching arity q={q} is below 1")
        faults = _set_faults(sets, q)
        bad = np.flatnonzero(faults.bad_size | faults.overlap)
        if bad.size:
            k = int(bad[0])
            start = int(faults.sizes[:k].sum())
            s = tuple(faults.members[start:start + faults.sizes[k]].tolist())
            if faults.bad_size[k]:
                raise ValueError(f"set {s} does not have exactly q={q} members")
            raise ValueError(f"set {s} overlaps an earlier set")
        members = np.sort(faults.members.reshape(faults.sizes.size, q), axis=1)
        members.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "members", members)

    def __setattr__(self, *_):
        raise AttributeError("a QMatching cannot be changed")

    __delattr__ = __setattr__

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.members.tolist()))

    @property
    def size(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, QMatching):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.members, other.members)

    def __hash__(self) -> int:
        return hash((self.q, self.members.tobytes()))

    def __repr__(self) -> str:
        return f"QMatching(q={self.q}, sets={self.sets})"


def _scalar_sort_key(x):
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    return (int(x), 1)


@dataclass(frozen=True)
class LdcInstance:
    """Code vectors a_0..a_{m-1} in F^t plus per-coordinate matchings, whose
    sets must lie in [0, m).  t, m and q are integers, kept as int, and
    claimed_delta is an int or a Fraction."""

    field: Field
    t: int
    m: int
    vectors: Matrix          # m x t, row j = a_j
    matchings: tuple[QMatching, ...]
    form: str                # "special2" | "general"
    q: int
    claimed_delta: Fraction

    def __post_init__(self):
        for name in ("t", "m", "q"):
            object.__setattr__(self, name, strict_int(getattr(self, name), name))
        if type(self.claimed_delta) not in (int, Fraction):
            raise ValueError(f"claimed_delta must be an int or a Fraction, "
                             f"got {self.claimed_delta!r}")
        if self.form not in ("special2", "general"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.form == "special2" and self.q != 2:
            raise ValueError("special2 form requires q = 2")
        if self.vectors.rows != self.m or self.vectors.cols != self.t:
            raise DimensionMismatch("vectors shape does not match (m, t)")
        if len(self.matchings) != self.t:
            raise ValueError("need exactly one matching per coordinate")
        for mi in self.matchings:
            if mi.q != self.q:
                raise ValueError("matching arity differs from declared q")
            outside = (mi.members[:, 0] < 0) | (mi.members[:, -1] >= self.m)  # rows sorted
            if outside.any():
                raise ValueError(f"index out of range in {mi.sets[np.argmax(outside)]}")

    def matching_total(self) -> int:
        return sum(mi.size for mi in self.matchings)


@dataclass(frozen=True)
class CoordinateReport:
    coordinate: int
    matching_size: int
    span_failures: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.span_failures


@dataclass(frozen=True)
class VerificationReport:
    form: str
    m: int
    t: int
    coordinates: tuple[CoordinateReport, ...]
    sigma: int
    achieved_delta: Fraction
    claimed_delta: Fraction
    delta_ok: bool

    @property
    def passed(self) -> bool:
        return self.delta_ok and all(c.ok for c in self.coordinates)

    def to_json(self) -> dict:
        """The report as JSON; the `structure_errors` and `structure_failures`
        keys are always empty, since a QMatching is checked when made."""
        return {
            "form": self.form,
            "m": self.m,
            "t": self.t,
            "sigma": self.sigma,
            "achieved_delta": str(self.achieved_delta),
            "claimed_delta": str(self.claimed_delta),
            "delta_ok": self.delta_ok,
            "passed": self.passed,
            "structure_errors": [],
            "coordinates": [
                {
                    "coordinate": c.coordinate,
                    "matching_size": c.matching_size,
                    "span_failures": [list(s) for s in c.span_failures],
                    "structure_failures": [],
                }
                for c in self.coordinates
            ],
        }


def _spans(field: Field, vectors: np.ndarray, form: str, i: int,
           members: np.ndarray) -> np.ndarray:
    """Span verdict for coordinate i of every row of the (k, q) index array
    `members` into the (m, t) code-vector array.

    special2: a_{j1} - a_{j2} is a nonzero multiple of e_i.  general: e_i
    lies in the span of the selected vectors, i.e. appending it leaves the
    rank unchanged.
    """
    if form == "special2":
        d = field.reduce(vectors[members[:, 0]] - vectors[members[:, 1]])
        return (d[:, i] != 0) & (np.count_nonzero(d, axis=1) == 1)
    sub = vectors[members]
    e = np.full((sub.shape[0], 1, vectors.shape[1]), field.canon(0), dtype=vectors.dtype)
    e[:, 0, i] = field.canon(1)
    return ranks(field, sub) == ranks(field, np.concatenate([sub, e], axis=1))


def _report(instance: LdcInstance, span_failures) -> VerificationReport:
    """The report of `instance` whose coordinate i fails its span test at
    the sets span_failures[i], a tuple of int tuples in set order; sizes,
    sigma and the density come from the matchings alone."""
    sigma = instance.matching_total()
    delta = Fraction(sigma, instance.m * instance.t)
    return VerificationReport(
        form=instance.form,
        m=instance.m,
        t=instance.t,
        coordinates=tuple(
            CoordinateReport(coordinate=i, matching_size=mi.size, span_failures=failed)
            for i, (mi, failed) in enumerate(zip(instance.matchings, span_failures))
        ),
        sigma=sigma,
        achieved_delta=delta,
        claimed_delta=instance.claimed_delta,
        delta_ok=delta >= instance.claimed_delta,
    )


def verify(instance: LdcInstance) -> VerificationReport:
    """Check every matching set against the instance's form and the
    claimed density.  Failures are report entries, never exceptions.

    Sizes, disjointness and range were decided when the matchings and the
    instance were made, so each coordinate's `members` array goes to the
    span test as it is; the sets that fail it are named in set order.
    """
    failures = []
    for i, mi in enumerate(instance.matchings):
        ok = _spans(instance.field, instance.vectors.a, instance.form, i, mi.members)
        failures.append(tuple(map(tuple, mi.members[~ok].tolist())))
    return _report(instance, failures)


def _value_codes(a: np.ndarray) -> np.ndarray:
    """int64 codes of the entries of `a`, in the order _scalar_sort_key
    gives their values: integer entries (GF(p) residues) are their own."""
    if a.dtype.kind == "i":
        return a
    flat = a.ravel().tolist()
    rank = {x: r for r, x in enumerate(sorted(set(flat), key=_scalar_sort_key))}
    return np.fromiter(map(rank.__getitem__, flat), np.int64, len(flat)).reshape(a.shape)


def _walk(sizes):
    """Runs (a, b, rows of a taken, rows of b taken, run) of the
    two-largest pairing of one bucket, from its parts' sizes in value
    order: parts a and b pair their next `run` rows side by side."""
    taken = [0] * len(sizes)
    heap = [(-c, k) for k, c in enumerate(sizes)]
    heapq.heapify(heap)
    while len(heap) >= 2:
        na, a = heapq.heappop(heap)
        nb, b = heapq.heappop(heap)
        run = -nb if not heap else heap[0][0] - nb + (b < heap[0][1])
        yield a, b, taken[a], taken[b], run
        taken[a] += run
        taken[b] += run
        for n, k in ((na + run, a), (nb + run, b)):
            if n:
                heapq.heappush(heap, (n, k))


def max_special_matching(vectors: Matrix, i: int) -> QMatching:
    """Maximum-size family of disjoint pairs differing exactly at coordinate i.

    Vectors that agree off coordinate i form a bucket; within a bucket the
    agreement graph is complete multipartite (parts = value at i), whose
    maximum matching has size min(floor(B/2), B - largest part).  Pairing
    the two currently largest parts achieves it; among equal sizes the part
    first in `_value_codes` order goes first.  Over GF(p) that is the
    smaller residue.  Over QQ it is the smaller (numerator, denominator)
    pair of `_scalar_sort_key`, not the smaller value: 1/2 comes before
    1/3.  A part gives its rows in increasing order.

    One stable lexsort by (punctured row, value at i) lays out the
    buckets, each part's rows side by side.  The same two parts stay on
    top until the second falls to the size of the third, so `_walk` pairs
    each bucket in runs of rows, and the pairs are built from the runs as
    one int64 array, sorted.  i must be an integer in [0, t).
    """
    i, t = strict_int(i, "i"), vectors.cols
    if not 0 <= i < t:
        raise ValueError(f"coordinate {i} outside [0, {t})")
    codes = _value_codes(vectors.a)
    m = codes.shape[0]
    rest = codes[:, [k for k in range(t) if k != i]]
    order = np.lexsort((codes[:, i],) + tuple(rest.T[::-1]))
    rest, value = rest[order], codes[order, i]
    new_bucket = np.ones(m, dtype=bool)
    new_bucket[1:] = (rest[1:] != rest[:-1]).any(axis=1)
    start = np.flatnonzero(new_bucket | np.r_[True, value[1:] != value[:-1]])
    size = np.diff(np.r_[start, m]).tolist()
    ends = np.r_[np.flatnonzero(new_bucket[start]), len(start)].tolist()  # parts per bucket
    runs = [(f + a, f + b, ta, tb, run)
            for f, e in zip(ends[:-1], ends[1:]) if e - f > 1
            for a, b, ta, tb, run in _walk(size[f:e])]
    a, b, ta, tb, run = np.array(runs, dtype=np.int64).reshape(-1, 5).T
    step = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
    pairs = np.stack([order[np.repeat(start[a] + ta, run) + step],
                      order[np.repeat(start[b] + tb, run) + step]], axis=1)
    pairs.sort(axis=1)
    return QMatching(q=2, sets=pairs[np.argsort(pairs[:, 0])])  # disjoint: first members differ


def hadamard(n: int, field: Field) -> LdcInstance:
    """All 2**n zero-one vectors with the perfect bit-flip matchings.

    Vector k has coordinate i equal to bit i of k; coordinate i pairs k
    with k + 2**i, giving 2**(n-1) disjoint pairs per coordinate and
    density exactly 1/2 in special form over any field.
    """
    if n < 1:
        raise ValueError("hadamard needs n >= 1")
    m = 2**n
    vectors = Matrix(field, [[(k >> i) & 1 for i in range(n)] for k in range(m)])
    matchings = tuple(QMatching(2, [(k, k | 1 << i) for k in range(m) if not k >> i & 1])
                      for i in range(n))
    return LdcInstance(field=field, t=n, m=m, vectors=vectors, matchings=matchings,
                       form="special2", q=2, claimed_delta=Fraction(1, 2))
