"""Rank-separation bounds and the entropy audit.

No float decides a verdict.  The rank bounds compare a logarithm with a
rational through integer powers (`_pow_ge_pow2`).  The verdicts of
`match_entropy_check` and of the entropy audit follow by proof from their
exact pair checks (the lemma in `entropy_audit`), so neither forms a big
integer.  Floats are attached for reporting only, and keep their bits:
the audit refines its prefix classes in whole-array passes, yet every
float is the one of the plain loop over classes and values in order of
first row, summed left to right.  Whether matched pairs are distinct,
disjoint and in range is ldc's one set-family rule, which
`match_entropy_check` runs on its pairs and which every QMatching of an
LdcInstance has passed when made.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import ldc
from .errors import MatchingCrossesPrefixClass, PairNotSeparated
from .groups import MatrixGroup, burnside_irreducible
from .ldc import LdcInstance, QMatching

__all__ = [
    "gamma",
    "LogBound",
    "BoundReport",
    "check_rank_separation",
    "lambda_bound",
    "match_entropy_check",
    "MatchEntropyResult",
    "EntropyAudit",
    "entropy_audit",
    "AvgFixedSpaceReport",
    "avg_fixed_space",
]


def gamma(order: int) -> Fraction:
    """1 for even element order, 1 - 1/order for odd."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order % 2 == 0:
        return Fraction(1)
    return 1 - Fraction(1, order)


def _pow_ge_pow2(base: int, e: int, a: int) -> bool:
    """Exact test of base**e >= 2**a for base >= 2, e >= 0.

    base**e can be far too large to form (e carries the denominator of a
    bound, about p over GF(p)), so log2(base) is first bracketed by the
    bit length of base**s, s = 1, 2, 4, ...:  s*log2(base) lies in
    [bits - 1, bits).  The power itself is formed only if no bracket
    with s < e decides, and 2**a never is: x >= 2**a iff x has more
    than a bits.
    """
    s, power = 1, base
    while s < e:
        bits = power.bit_length()
        if e * (bits - 1) >= a * s:
            return True
        if e * bits <= a * s:
            return False
        s, power = 2 * s, power * power
    return (base**e).bit_length() > a


@dataclass(frozen=True)
class LogBound:
    """The exact value numerator / (coeff * log2(log_arg))."""

    numerator: Fraction
    log_arg: int
    coeff: int = 1

    @cached_property
    def value(self) -> float:
        if self.numerator == 0:
            return 0.0
        return float(self.numerator) / (self.coeff * math.log2(self.log_arg))

    def satisfied_by(self, k: int) -> bool:
        """Exact test of k >= numerator / (coeff * log2(log_arg))."""
        if self.numerator <= 0:
            return True
        if self.log_arg < 2:
            return False
        a, b = self.numerator.numerator, self.numerator.denominator
        return _pow_ge_pow2(self.log_arg, k * self.coeff * b, a)

    @cached_property
    def _json(self) -> dict:
        # keys in sorted order, the order every JSON writer emits them in
        return {
            "coeff": self.coeff,
            "log_arg": self.log_arg,
            "numerator": str(self.numerator),
            "value": self.value,
        }

    def to_json(self) -> dict:
        """A fresh dict.  The fields are rendered once per bound; every
        report of one (order, rank) class holds the same bound, so the class
        shares one rendering."""
        return self._json.copy()


@dataclass(frozen=True)
class BoundReport:
    """Rank lower bound theta*gamma*n / log2|G| for one element."""

    h: int
    order: int
    gamma: Fraction
    theta: Fraction
    n: int
    group_size: int
    bound: LogBound
    uniform_bound: LogBound
    actual_rank: int
    satisfied: bool
    uniform_satisfied: bool

    @cached_property
    def _class_json(self) -> dict:
        """Every field but h (a placeholder that `to_json` fills), rendered
        once and shared by the clones that `check_rank_separation` makes of
        this report; keys in sorted order."""
        return {
            "actual_rank": self.actual_rank,
            "bound": self.bound._json,
            "gamma": str(self.gamma),
            "group_size": self.group_size,
            "h": None,
            "n": self.n,
            "order": self.order,
            "satisfied": self.satisfied,
            "theta": str(self.theta),
            "uniform_bound": self.uniform_bound._json,
            "uniform_satisfied": self.uniform_satisfied,
        }

    def to_json(self) -> dict:
        """A fresh dict: a copy of the class's shared rendering (see
        `_class_json`) with this report's h and fresh copies of both bounds."""
        body = self._class_json
        out = body.copy()
        out["h"] = self.h
        out["bound"] = body["bound"].copy()
        out["uniform_bound"] = body["uniform_bound"].copy()
        return out

    def csv_row(self) -> list:
        body = self._class_json
        return [
            self.h,
            self.order,
            body["gamma"],
            body["theta"],
            self.actual_rank,
            f"{self.bound.value:.6f}",
            self.satisfied,
            self.uniform_satisfied,
        ]


def check_rank_separation(group: MatrixGroup) -> list[BoundReport]:
    """One report per non-identity element h: does rank(h - I) clear
    theta*gamma*n / log2|G| and the weaker n / (3 log2|G|)?

    Orders and ranks are computed once per conjugacy class; the identity
    is the one element with rank 0.  Every field but h depends only on
    (order, rank), so each distinct pair is decided, built and rendered
    once: its first element gets a BoundReport, and every later element of
    the class a clone of it with only h changed.  A clone skips the frozen
    `__init__` and shares the class's rendered body (`to_json` still
    returns fresh dicts).
    """
    n = group.dim
    m = len(group)
    th = group.field.theta
    uniform = LogBound(numerator=Fraction(n), log_arg=m, coeff=3)
    orders, ranks = group.orders_and_ranks()
    first: dict = {}
    reports = []
    for pos, (order, actual) in enumerate(zip(orders.tolist(), ranks.tolist())):
        if actual == 0:
            continue
        proto = first.get((order, actual))
        if proto is None:
            gm = gamma(order)
            bound = LogBound(numerator=th * gm * n, log_arg=m)
            report = BoundReport(
                h=pos,
                order=order,
                gamma=gm,
                theta=th,
                n=n,
                group_size=m,
                bound=bound,
                uniform_bound=uniform,
                actual_rank=actual,
                satisfied=bound.satisfied_by(actual),
                uniform_satisfied=uniform.satisfied_by(actual),
            )
            report._class_json  # rendered before any clone copies the dict
            first[order, actual] = report
        else:
            report = object.__new__(BoundReport)
            report.__dict__.update(proto.__dict__, h=pos)
        reports.append(report)
    return reports


def lambda_bound(n: int, group_size: int, th: Fraction, gm: Fraction) -> LogBound:
    """Bound theta*gamma*n / (2 log2(2|G|)) for rank(rho(h) - lambda*I)."""
    return LogBound(numerator=th * gm * n, log_arg=2 * group_size, coeff=2)


def _entropy_of_counts(counts) -> float:
    """Entropy of counts/total: 0.0 minus (c/total) log2(c/total) for each
    nonzero count c, in the order of `counts`.

    Short sequences, where numpy's per-call cost exceeds the loop's, run
    that loop.  Longer ones take one `math.log2` per distinct count and
    subtract the terms by one cumulative sum, which numpy adds left to
    right, so both give the loop's float.
    """
    if len(counts) < 64:
        if isinstance(counts, np.ndarray):
            counts = counts.tolist()
        total = sum(counts)
        h = 0.0
        for c in counts:
            if c:
                h -= (c / total) * math.log2(c / total)
        return h
    c = np.asarray(counts, dtype=np.int64)
    c = c[c > 0]
    if not c.size:
        return 0.0
    total = int(c.sum())
    present = np.flatnonzero(np.bincount(c))
    logs = np.zeros(present[-1] + 1)
    logs[present] = [math.log2(v / total) for v in present.tolist()]
    return float(np.cumsum(0.0 - c / total * logs[c])[-1])


@dataclass(frozen=True)
class MatchEntropyResult:
    entropy_value: float
    bound: Fraction
    passed: bool


def match_entropy_check(t: int, matching, f) -> MatchEntropyResult:
    """Check H(f(X)) >= 2s/t for X uniform on range(t).

    `matching` is a QMatching or an iterable of disjoint pairs over
    range(t); `f` is an indexable table of length t.  Raises ValueError
    when f has another length or the pairs are not disjoint and in range,
    and PairNotSeparated when f collides on a matched pair (the hypotheses
    of the inequality).  Once they hold, the verdict holds by proof:
    `entropy_audit`'s lemma on one class of J = t rows gives t H(f(X)) >= 2s.
    """
    if len(f) != t:
        raise ValueError(f"f has length {len(f)}, expected t = {t}")
    pairs = matching.sets if isinstance(matching, QMatching) else [tuple(p) for p in matching]
    faults = ldc._set_faults(pairs, 2, t)
    for k, pair in enumerate(pairs):
        if faults.sizes[k] != 2:
            raise ValueError(f"set {pair} does not have 2 distinct members")
        if faults.bad_size[k] or faults.overlap[k]:
            raise ValueError("matching pairs must be disjoint")
        if faults.outside[k]:
            raise ValueError("pair index out of range")
        j1, j2 = pair
        if f[j1] == f[j2]:
            raise PairNotSeparated(f"f agrees on matched pair ({j1}, {j2})")
    h = _entropy_of_counts(list(Counter(f[j] for j in range(t)).values()))
    return MatchEntropyResult(entropy_value=h, bound=Fraction(2 * len(pairs), t), passed=True)


@dataclass(frozen=True)
class EntropyAudit:
    """Transcript of the chain-rule lower bound on a special-form code;
    its verdicts hold by the proof in `entropy_audit`."""

    m: int
    t: int
    delta: Fraction
    entropy_value: float            # H(X), X uniform over the rows
    chain_terms: tuple[float, ...]
    matching_bound_terms: tuple[Fraction, ...]
    chain_term_ok: tuple[bool, ...]     # per coordinate, by the matching lemma
    chain_sum_residual: float       # |sum chain_terms - H(X)|, rounding only
    prefix_class_sizes: tuple[tuple[int, ...], ...]
    upper_ok: bool                  # H(X) <= log2 m
    hx_ge_2dt: bool                 # H(X) >= 2*delta*t
    log2m_ge_2dt: bool              # log2 m >= 2*delta*t
    code_size_relation: str         # m vs 2^{2*delta*t}: "gt" | "eq"

    @property
    def chain_sum_ok(self) -> bool:
        """The exact chain rule, an identity (see `entropy_audit`)."""
        return True

    @property
    def passed(self) -> bool:
        return all(self.chain_term_ok) and self.upper_ok and self.hx_ge_2dt and self.log2m_ge_2dt

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "delta": str(self.delta),
            "entropy": self.entropy_value,
            "chain_terms": list(self.chain_terms),
            "matching_bound_terms": [str(b) for b in self.matching_bound_terms],
            "chain_term_ok": list(self.chain_term_ok),
            "chain_sum_residual": self.chain_sum_residual,
            "prefix_class_sizes": [list(s) for s in self.prefix_class_sizes],
            "upper_ok": self.upper_ok,
            "hx_ge_2dt": self.hx_ge_2dt,
            "log2m_ge_2dt": self.log2m_ge_2dt,
            "code_size_relation": self.code_size_relation,
            "passed": self.passed,
        }


def entropy_audit(instance: LdcInstance) -> EntropyAudit:
    """Walk the chain rule over the code coordinates.

    X is a uniform row, X_i its value at coordinate i and X_<i its prefix.
    The pairs of M_i are disjoint rows of the code, as QMatching and
    LdcInstance decided when they were made; each must share its prefix
    (MatchingCrossesPrefixClass) and differ at i (PairNotSeparated).
    Once they do, every verdict holds by proof:

    - Lemma: a class of J rows with value counts c_v at i holding M such
      pairs has sum_v c_v log2(J/c_v) >= 2M, one bit per matched row.  A
      value with c_v <= J/2 gives c_v log2(J/c_v) >= c_v.  At most one
      value has x = c_v/J > 1/2; its matched rows are paired with the
      J - c_v others, and x log2(1/x) >= 1 - x on [1/2, 1] (concave
      difference, zero at both ends).  Summed over the classes,
      m H(X_i | X_<i) >= 2|M_i|: `chain_term_ok`.
    - The exact chain rule sum_i H(X_i | X_<i) = H(X) (`chain_sum_ok`;
      the residual is float rounding) gives H(X) >= 2 sigma/m = 2 delta t
      (`hx_ge_2dt`).  H(X) <= log2 m on m rows (`upper_ok`), so
      log2 m >= 2 delta t (`log2m_ge_2dt`).
    - log2 m is rational only for m = 2^k, so m = 2^(2 delta t) exactly
      when m = 2^k and 2 sigma = k m ("eq"); otherwise m is larger ("gt").

    `label[r]` is the prefix class of row r, and classes are numbered by
    first row.  Coordinate i refines them in a fixed number of
    whole-array passes: `_refine` numbers the (class, value) pairs, the
    children, by first row, one bincount counts their rows, and
    `_chain_term` forms H(X_i | X_<i) from the counts; the last level's
    counts give H(X).  Values need only compare equal, so
    `_value_numbers` maps `Field.integers` (over QQ the code times one
    positive integer) to small integers, and no Fraction is compared.

    Verify reports pin the floats, so each keeps the bits of the plain
    loop over classes in order of first row, and over the values of a
    class in that order too.  A class's entropy is `_entropy_of_counts`
    of its child counts in child order, computed once per distinct
    counts tuple; the class terms, the chain terms and H(X) are summed
    left to right, never by numpy's pairwise sums or by the builtin
    `sum`, which is compensated from Python 3.12 on.
    """
    if instance.form != "special2":
        raise ValueError("entropy audit applies to special2-form instances")
    m, t = instance.m, instance.t
    values, n_values = _value_numbers(instance.field.integers(instance.vectors.a))
    label = np.zeros(m, dtype=np.int64)
    sizes = np.bincount(label)
    chain_terms, bound_terms, class_sizes = [], [], []
    chain_total = 0.0
    for i in range(t):
        class_sizes.append(tuple(sizes.tolist()))
        value = values[:, i]
        matching = instance.matchings[i]
        a, b = matching.members.T
        crosses = label[a] != label[b]
        bad = np.flatnonzero(crosses | (value[a] == value[b]))
        if bad.size:
            j1, j2 = matching.members[bad[0]].tolist()
            if crosses[bad[0]]:
                raise MatchingCrossesPrefixClass(
                    f"pair ({j1}, {j2}) crosses prefix classes at coordinate {i}")
            raise PairNotSeparated(f"pair ({j1}, {j2}) agrees at coordinate {i}")

        child, parent = _refine(label, sizes.size, value, n_values)
        counts = np.bincount(child)
        term = _chain_term(m, sizes, parent, counts)
        chain_terms.append(term)
        chain_total += term
        bound_terms.append(Fraction(2 * matching.size, m))
        label, sizes = child, counts

    h_x = _entropy_of_counts(sizes)
    sigma = instance.matching_total()
    k = m.bit_length() - 1
    return EntropyAudit(
        m=m,
        t=t,
        delta=Fraction(sigma, m * t),
        entropy_value=h_x,
        chain_terms=tuple(chain_terms),
        matching_bound_terms=tuple(bound_terms),
        chain_term_ok=(True,) * t,
        chain_sum_residual=abs(chain_total - h_x),
        prefix_class_sizes=tuple(class_sizes),
        upper_ok=True,
        hx_ge_2dt=True,
        log2m_ge_2dt=True,
        code_size_relation="eq" if m == 1 << k and 2 * sigma == k * m else "gt",
    )


def _refine(label, n_classes: int, value, n_values: int):
    """(child, parent): each row's class once its value joins the prefix,
    and each child's parent class, children numbered by first row.

    A pair's key is class * n_values + value, compacted to its rank by
    one sort when that range exceeds max(16 m, 2^16).  A table over the
    keys takes each key's first row, and the rows that are their key's
    first row, counted in row order, number the children.
    """
    m = label.size
    key = label * n_values + value
    n_keys = n_classes * n_values
    if n_keys > max(16 * m, 1 << 16):
        distinct, key = np.unique(key, return_inverse=True)
        n_keys = distinct.size
    rows = np.arange(m)
    first = np.full(n_keys, m)
    np.minimum.at(first, key, rows)
    head = first[key]
    opens = head == rows
    return (np.cumsum(opens) - 1)[head], label[opens]


def _chain_term(m: int, sizes, parent, counts) -> float:
    """sum_b (J_b / m) H(X_i | b) over the classes b in class order.

    `sizes` holds the row counts J_b of the classes, `parent` and `counts`
    the class and the row count of each child.  A class with one child
    adds exactly 0.0 and is skipped.  One sort gathers every class's
    children in child order; the classes with k children form a k-column
    array of counts, whose rows `_row_entropies` reads.
    """
    n_classes, n = sizes.size, counts.size
    if n == n_classes:  # no class splits
        return 0.0
    n_children = np.bincount(parent, minlength=n_classes)
    grouped = counts[np.sort(parent * n + np.arange(n)) % n]
    k = n // n_classes
    if n == k * n_classes and (n_children == k).all():  # each class has k children
        weights = sizes / m
        entropy = _row_entropies(grouped.reshape(n_classes, k))
    else:
        split = np.flatnonzero(n_children > 1)
        start = (np.cumsum(n_children) - n_children)[split]
        ks = n_children[split]
        weights = sizes[split] / m
        entropy = np.empty(split.size)
        for k in np.flatnonzero(np.bincount(ks)).tolist():
            of_k = np.flatnonzero(ks == k)
            entropy[of_k] = _row_entropies(grouped[start[of_k, None] + np.arange(k)])
    return float(np.cumsum(weights * entropy)[-1])


def _row_entropies(tuples):
    """`_entropy_of_counts` of each row of the (n, k) array `tuples`, one
    call per distinct row; a float when the rows are all equal."""
    if (tuples == tuples[0]).all():  # every class splits alike
        return _entropy_of_counts(tuples[0].tolist())
    found: dict[tuple[int, ...], int] = {}
    index = [found.setdefault(r, len(found)) for r in map(tuple, tuples.tolist())]
    return np.array([_entropy_of_counts(r) for r in found])[index]


def _value_numbers(values) -> tuple[np.ndarray, int]:
    """(numbers, n): `values` as integers in [0, n), equal where the values
    are.  Values spanning at most their count are shifted, others ranked
    by one sort; an object array (integers beyond int64) is ranked."""
    if values.dtype != object and values.size:
        low, high = int(values.min()), int(values.max())
        if high - low < values.size:
            return values - low, high - low + 1
    distinct, ranks = np.unique(values.ravel(), return_inverse=True)
    return ranks.reshape(values.shape), distinct.size


@dataclass(frozen=True)
class AvgFixedSpaceReport:
    """Average fixed-space dimension over all group elements."""

    average: Fraction
    bound: Fraction
    passed: bool
    irreducible: bool

    @property
    def applicable(self) -> bool:
        return self.irreducible

    def to_json(self) -> dict:
        return {
            "average": str(self.average),
            "bound": str(self.bound),
            "passed": self.passed,
            "irreducible": self.irreducible,
            "applicable": self.applicable,
        }


def avg_fixed_space(group: MatrixGroup) -> AvgFixedSpaceReport:
    """Exact average of dim C(h) over the whole group, compared to n/2.

    dim C(h) = n - rank(h - I), computed once per conjugacy class.
    The bound is only meaningful for irreducible actions; burnside
    evidence is recorded so reducible inputs can be flagged as
    not-applicable rather than as violations.
    """
    n = group.dim
    m = len(group)
    _, ranks = group.orders_and_ranks()
    avg = Fraction(n * m - int(ranks.sum()), m)
    bound = Fraction(n, 2)
    return AvgFixedSpaceReport(
        average=avg,
        bound=bound,
        passed=avg <= bound,
        irreducible=burnside_irreducible(group),
    )
