"""Brute-force oracles, kept independent of the code paths they check,
and a cache-free copy of a closed group."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# the fixture ladder of the benchmark's baseline table, over GF(p) and QQ
LADDER = ("signed_shift(4,3)", "signed_shift(4,0)", "signed_shift(6,5)", "symmetric(6,7)",
          "signed_shift(8,3)", "signed_shift(10,3)")


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


def reference_verify(vectors, form, matchings, p):
    """Per coordinate the span failures of an LDC over GF(p), walking the
    sets one at a time in Python ints.

    `vectors` is a list of rows and `matchings` a list of set lists, each
    set q distinct positions in range, as QMatching and LdcInstance decide.
    """
    out = []
    for i, sets in enumerate(matchings):
        failures = []
        for s in sets:
            rows = [list(vectors[j]) for j in s]
            if form == "special2":
                d = [(x - y) % p for x, y in zip(*rows)]
                ok = d[i] != 0 and sum(1 for x in d if x) == 1
            else:
                e = [int(c == i) for c in range(len(rows[0]))]
                ok = rank_mod(rows + [e], p) == rank_mod(rows, p)
            if not ok:
                failures.append(s)
        out.append(tuple(failures))
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


def reference_max_special_matching(vectors, i: int) -> tuple[tuple[int, int], ...]:
    """ldc.max_special_matching's pairs by its former heap walk: rows
    bucketed on their other coordinates, each bucket's parts (by the value
    at i) in a heap of (-size, (numerator, denominator) of the value), the
    two on top paired by their first unused rows, then every pair sorted."""
    import heapq

    def key(x):
        return (x.numerator, x.denominator) if isinstance(x, Fraction) else (int(x), 1)

    buckets: dict = {}
    for j in range(vectors.rows):
        row = vectors.row(j)
        punctured = tuple(row[k] for k in range(vectors.cols) if k != i)
        buckets.setdefault(punctured, {}).setdefault(row[i], []).append(j)
    pairs = []
    for parts in buckets.values():
        heap = [(-len(idxs), key(val), idxs) for val, idxs in parts.items()]
        heapq.heapify(heap)
        while len(heap) >= 2:
            n1, k1, idxs1 = heapq.heappop(heap)
            n2, k2, idxs2 = heapq.heappop(heap)
            pairs.append(tuple(sorted((idxs1.pop(0), idxs2.pop(0)))))
            if idxs1:
                heapq.heappush(heap, (n1 + 1, k1, idxs1))
            if idxs2:
                heapq.heappush(heap, (n2 + 1, k2, idxs2))
    return tuple(sorted(pairs))


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
    """The position of g^(ord g - 1), the last power of g before I."""
    from rep2ldc.linalg import Matrix

    ident = Matrix.identity(group.field, group.dim)
    prev, acc = ident, group.matrix(i)
    while acc != ident:
        prev, acc = acc, acc @ group.matrix(i)
    return group.position_of(prev)


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


def log2_ratio_cmp(num: int, den: int, q: Fraction) -> int:
    """Sign of log2(num/den) - q for positive integers num and den, decided
    with integer powers: log2(num/den) >= a/b iff num^b >= den^b 2^a."""
    a, b = q.numerator, q.denominator
    lhs, rhs = num**b, den**b
    if a >= 0:
        rhs *= 2**a
    else:
        lhs *= 2**(-a)
    return (lhs > rhs) - (lhs < rhs)


def reference_entropy_audit(rows, matchings) -> dict:
    """The entropy audit by tuple-keyed dicts.

    Prefix classes, and the values within each, are taken in order of
    first appearance; each matching is checked pair by pair in set order,
    and a pair that crosses classes is reported as crossing even when it
    also agrees.  Raises what bounds.entropy_audit raises, with its text.
    Floats are summed in class order, so they equal the audit's exactly,
    and the chain terms left to right for the residual.  Returns every
    field of bounds.EntropyAudit.
    """
    from collections import Counter

    from rep2ldc.errors import MatchingCrossesPrefixClass, PairNotSeparated

    rows = [tuple(row) for row in rows]
    m = len(rows)
    out = {"prefix_class_sizes": [], "chain_terms": [], "chain_term_ok": [],
           "matching_bound_terms": []}
    for i, pairs in enumerate(matchings):
        classes: dict = {}
        for row in rows:
            values = classes.setdefault(row[:i], {})
            values[row[i]] = values.get(row[i], 0) + 1
        for j1, j2 in pairs:
            if rows[j1][:i] != rows[j2][:i]:
                raise MatchingCrossesPrefixClass(
                    f"pair ({j1}, {j2}) crosses prefix classes at coordinate {i}")
            if rows[j1][i] == rows[j2][i]:
                raise PairNotSeparated(f"pair ({j1}, {j2}) agrees at coordinate {i}")
        class_pairs = Counter(rows[j1][:i] for j1, _ in pairs)
        num, den, term, ok = 1, 1, 0.0, True
        for prefix, values in classes.items():
            counts = list(values.values())
            jb, den_b = sum(counts), math.prod(c**c for c in counts)
            num, den = num * jb**jb, den * den_b
            term += (jb / m) * brute_entropy(counts)
            s = class_pairs[prefix]
            ok = ok and (not s or log2_ratio_cmp(jb**jb, den_b, Fraction(2 * s)) >= 0)
        out["prefix_class_sizes"].append(tuple(sum(v.values()) for v in classes.values()))
        out["chain_terms"].append(term)
        out["matching_bound_terms"].append(Fraction(2 * len(pairs), m))
        out["chain_term_ok"].append(
            ok and log2_ratio_cmp(num, den, Fraction(2 * len(pairs))) >= 0)
    full = list(Counter(rows).values())
    hx_den = math.prod(c**c for c in full)
    two_dt = Fraction(2 * sum(map(len, matchings)), m)
    log_cmp = log2_ratio_cmp(m, 1, two_dt)
    h_x, chain_total = brute_entropy(full), 0.0
    for term in out["chain_terms"]:
        chain_total += term
    out.update(
        m=m,
        t=len(matchings),
        delta=Fraction(sum(map(len, matchings)), m * len(matchings)),
        chain_sum_residual=abs(chain_total - h_x),
        entropy_value=h_x,
        upper_ok=True,  # m^m / prod c^c <= m^m
        hx_ge_2dt=log2_ratio_cmp(m**m, hx_den, two_dt * m) >= 0,
        log2m_ge_2dt=log_cmp >= 0,
        code_size_relation={1: "gt", 0: "eq", -1: "lt"}[log_cmp],
    )
    return out


# Burnside by an element scan, spin one vector at a time and the closure
# by one RREF of [basis; images] a round: oracles of the row-space closure
# (linalg.row_closure) that groups uses for both.

def reference_row_closure(rows, mats):
    """The row closure as one full RREF of [basis; images] per round, the
    images those of the rows whose pivot is new in the last round."""
    import numpy as np

    from rep2ldc.linalg import Matrix, Subspace, rref

    field, n = rows.field, mats[0].rows
    r, rk, piv = rref(rows)
    basis = new = r.a[:rk]
    while len(new) and rk < rows.cols:
        images = [field.matmul(new.reshape(-1, n), m.a).reshape(len(new), -1) for m in mats]
        old = set(piv)
        r, rk, piv = rref(Matrix(field, np.concatenate([basis, *images]), _canonical=True))
        basis = r.a[:rk]
        new = basis[[c not in old for c in piv]]
    return Subspace(field, rows.cols, Matrix(field, basis, _canonical=True), _trusted=True)


def closure_fields(monkeypatch) -> list:
    """The field of each linalg.row_closure call from here on, in call order:
    which closures ran, the mod-p proof's or the exact one."""
    from rep2ldc import linalg

    seen, inner = [], linalg.row_closure

    def spy(rows, mats):
        seen.append(rows.field)
        return inner(rows, mats)

    monkeypatch.setattr(linalg, "row_closure", spy)
    return seen


def scan_spans_matrix_algebra(group) -> bool:
    """Burnside by the element scan: the elements' rows vec(g), 256 at a
    time, each chunk one RREF of the growing stack, until the rank is n^2."""
    import numpy as np

    from rep2ldc.linalg import Matrix, rref

    n, field = group.dim, group.field
    basis = Matrix.zeros(field, 0, n * n).a
    for start in range(0, len(group.elements), 256):
        block = np.stack([g.a.reshape(n * n) for g in group.elements[start:start + 256]])
        reduced, rk, _ = rref(Matrix(field, np.concatenate([basis, block]), _canonical=True))
        basis = reduced.a[:rk]
        if rk == n * n:
            return True
    return False


def vector_spin(v, group):
    """The smallest invariant subspace holding a nonzero v, one vector at
    a time: each frontier vector times each generator, kept when it raises
    the rank of the vectors kept so far."""
    import numpy as np

    from rep2ldc.linalg import Matrix, Subspace, rank

    field, n = group.field, group.dim
    v = field.vector(v)
    rows, frontier = [v], [v]
    gens = [group.matrix(g) for g in group.generators]
    while frontier and len(rows) < n:
        next_frontier = []
        for u in frontier:
            for g in gens:
                w = g.matvec(u)
                if rank(Matrix.from_array(field, np.stack([*rows, w]))) > len(rows):
                    rows.append(w)
                    next_frontier.append(w)
        frontier = next_frontier
    return Subspace.from_rows(field, n, Matrix.from_array(field, np.stack(rows)))


# Field.matmul over QQ and the rational z search by Fraction arithmetic:
# oracles of the integer-numerator products of fields.py and choose_z.

def fraction_matmul(a, b):
    """a @ b by numpy object arithmetic on Fraction arrays."""
    import numpy as np

    return np.matmul(a, b)


def lattice_z(normals):
    """First z of the boxes [0..B]^n, new shell only, with every
    <normal, z> nonzero, one candidate at a time: (z, mask)."""
    import numpy as np

    from rep2ldc.errors import InternalInconsistency
    from rep2ldc.fields import QQ

    k, n = normals.shape
    for bound in range(1, k + 2):
        for z_tuple in itertools.product(range(bound + 1), repeat=n):
            if max(z_tuple) != bound and bound > 1:
                continue
            z = QQ.vector(z_tuple)
            if all(d != 0 for d in normals.dot(z)):
                return z, np.ones(k, dtype=bool)
    raise InternalInconsistency("no lattice point avoids the hyperplanes")


def reference_choose_z_drawn(field, normals, seed):
    """The randomized GF(p) branch of choose_z one draw at a time: each seeded
    draw is counted over the raw rows by count_nonzero_dots, the first best
    draw is kept, and the search stops once Z_TRIALS draws are made and the
    survivor bound holds, or raises BudgetExhausted after 100 * Z_TRIALS;
    (z, mask) with the mask over the raw rows."""
    import numpy as np

    from rep2ldc import _kernels
    from rep2ldc.construct import Z_TRIALS, survivors_suffice
    from rep2ldc.errors import BudgetExhausted

    p = field.char
    k, n = normals.shape
    rng = np.random.default_rng(seed)
    z, best_count = None, -1
    for trial in range(100 * Z_TRIALS):
        draw = rng.integers(0, p, size=n, dtype=np.int64)
        count = _kernels.count_nonzero_dots(normals, draw, p)
        if count > best_count:
            z, best_count = draw, count
        if trial + 1 >= Z_TRIALS and survivors_suffice(field, best_count, k):
            break
    else:
        raise BudgetExhausted(f"no z met the surviving fraction in {100 * Z_TRIALS} draws")
    return z, _kernels.matmul_mod(normals, z, p) != 0


# Certificate I/O one scalar at a time: oracles of the whole-array reader
# and writer (Field.array_from_json / array_to_json) that serialize and
# certcheck use.  Each entry goes through Field.scalar_from_json or
# scalar_to_json and each matching member through json_int.

def _vector_out(field, v) -> list:
    return [field.scalar_to_json(x) for x in v]


def reference_matrix_to_json(m) -> dict:
    return {
        "field": m.field.to_json(),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [_vector_out(m.field, row) for row in m.a],
    }


def reference_matrix_from_json(obj):
    from rep2ldc.errors import ParseError
    from rep2ldc.fields import Field
    from rep2ldc.linalg import Matrix
    from rep2ldc.serialize import json_int

    try:
        field = Field.from_json(obj["field"])
        rows, cols = json_int(obj["rows"], "rows"), json_int(obj["cols"], "cols")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if cols < 0 or len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("matrix entries do not match declared shape")
    try:
        data = [[field.scalar_from_json(x) for x in row] for row in entries]
        return Matrix.from_array(field, field.array(data).reshape(rows, cols))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc


def reference_spec_json(group) -> dict:
    from rep2ldc.groups import DEFAULT_CAP

    return {
        "field": group.field.to_json(),
        "dim": group.dim,
        "generators": [reference_matrix_to_json(group.elements[g]) for g in group.generators],
        "cap": max(DEFAULT_CAP, len(group)),
    }


def reference_group_from_spec_json(obj, cap=None):
    from rep2ldc.errors import NotInvertible, ParseError
    from rep2ldc.fields import Field
    from rep2ldc.groups import close_group
    from rep2ldc.serialize import json_int

    try:
        field = Field.from_json(obj["field"])
        dim = json_int(obj["dim"], "dim")
        gens = [reference_matrix_from_json(g) for g in obj["generators"]]
        spec_cap = json_int(obj["cap"], "cap") if "cap" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group spec: {exc}") from exc
    if spec_cap is not None and spec_cap < 1:
        raise ParseError(f"cap must be positive, got {spec_cap}")
    for g in gens:
        if g.field != field or g.rows != dim or g.cols != dim:
            raise ParseError("generator does not match group field/dim")
    try:
        return close_group(gens, cap=cap if cap is not None else spec_cap)
    except NotInvertible as exc:
        raise ParseError(f"bad group spec: {exc}") from exc


def reference_group_export_json(group) -> dict:
    return {
        "spec": reference_spec_json(group),
        "size": len(group),
        "elements": [reference_matrix_to_json(g)["entries"] for g in group.elements],
        "words": [list(w) for w in group.words],
    }


def reference_ldc_to_json(instance) -> dict:
    return {
        "field": instance.field.to_json(),
        "t": instance.t,
        "m": instance.m,
        "vectors": [_vector_out(instance.field, row) for row in instance.vectors.a],
        "matchings": [[list(s) for s in mi.sets] for mi in instance.matchings],
        "form": instance.form,
        "q": instance.q,
        "claimed_delta": str(instance.claimed_delta),
    }


def _reference_rows(sets):
    """One coordinate's JSON matching rows as int tuples, read one member
    at a time in the set rule's order: each set's size, then each member
    in row-major order, where one that is not an int raises the rule's
    text."""
    for s in sets:
        len(s)  # a row without a length raises here, as in the rule
    for s in sets:
        for j in s:
            if type(j) is not int:
                raise ValueError(f"set member {j!r} is not an integer")
    return tuple(tuple(s) for s in sets)


def reference_ldc_from_json(obj):
    from rep2ldc.errors import ParseError
    from rep2ldc.fields import Field
    from rep2ldc.ldc import LdcInstance, QMatching
    from rep2ldc.linalg import Matrix
    from rep2ldc.serialize import json_fraction, json_int

    try:
        field = Field.from_json(obj["field"])
        t, m = json_int(obj["t"], "t"), json_int(obj["m"], "m")
        for name, value in (("t", t), ("m", m)):
            if value < 1:
                raise ParseError(f"{name} must be at least 1, got {value}")
        vectors = Matrix(
            field, [[field.scalar_from_json(x) for x in row] for row in obj["vectors"]]
        )
        q = json_int(obj["q"], "q")
        matchings = tuple(QMatching(q=q, sets=_reference_rows(mi)) for mi in obj["matchings"])
        form = str(obj["form"])
        claimed = json_fraction(obj["claimed_delta"], "claimed_delta")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad ldc object: {exc}") from exc
    try:
        return LdcInstance(
            field=field,
            t=t,
            m=m,
            vectors=vectors,
            matchings=matchings,
            form=form,
            q=q,
            claimed_delta=claimed,
        )
    except Exception as exc:
        raise ParseError(f"inconsistent ldc object: {exc}") from exc


def reference_cert_to_json(cert) -> dict:
    import hashlib
    import json

    field = cert.group.field
    spec = reference_spec_json(cert.group)
    return {
        "kind": cert.kind,
        "group": spec,
        "group_hash": hashlib.sha256(
            json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "hs": list(cert.hs),
        "alphas": _vector_out(field, cert.alphas),
        "lambda": None if cert.lam is None else field.scalar_to_json(cert.lam),
        "D": reference_matrix_to_json(cert.D),
        "R": cert.R,
        "Y": reference_matrix_to_json(cert.Y),
        "X": reference_matrix_to_json(cert.X),
        "family": {
            "g_refs": list(cert.family.g_refs),
            "U": reference_matrix_to_json(cert.family.U.basis),
            "W": reference_matrix_to_json(cert.family.W),
            "hat_w": [_vector_out(field, h) for h in cert.family.hat_w],
        },
        "z": _vector_out(field, cert.z),
        "kept_s": list(cert.kept_s),
        "prefilter_size": cert.prefilter_size,
        "beta_nonzero_count": list(cert.beta_nonzero_count),
        "code": reference_ldc_to_json(cert.code),
        "achieved_delta": str(cert.achieved_delta),
        "seed": cert.seed,
    }


def reference_cert_from_json(obj):
    from rep2ldc.certcheck import _check_indices_and_shapes
    from rep2ldc.construct import ConstructionCert, SpanningFamily
    from rep2ldc.errors import DimensionMismatch, ParseError
    from rep2ldc.linalg import Subspace
    from rep2ldc.serialize import group_spec_hash, json_fraction, json_int

    try:
        spec = obj["group"]
        group = reference_group_from_spec_json(spec)
        if group_spec_hash(spec) != obj["group_hash"]:
            raise ParseError("group hash does not match embedded spec")
        field = group.field
        kind = str(obj["kind"])
        hs = tuple(json_int(h, "hs") for h in obj["hs"])
        alphas = tuple(field.scalar_from_json(a) for a in obj["alphas"])
        lam = None if obj["lambda"] is None else field.scalar_from_json(obj["lambda"])
        d = reference_matrix_from_json(obj["D"])
        y = reference_matrix_from_json(obj["Y"])
        x = reference_matrix_from_json(obj["X"])
        fam = obj["family"]
        u = reference_matrix_from_json(fam["U"])
        family = SpanningFamily(
            g_refs=tuple(json_int(g, "family.g_refs") for g in fam["g_refs"]),
            U=Subspace(u.field, group.dim, u),
            W=reference_matrix_from_json(fam["W"]),
            hat_w=tuple(
                field.vector([field.scalar_from_json(v) for v in h])
                for h in fam["hat_w"]
            ),
        )
        z = field.vector([field.scalar_from_json(v) for v in obj["z"]])
        code = reference_ldc_from_json(obj["code"])
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
            kept_s=tuple(json_int(s, "kept_s") for s in obj["kept_s"]),
            prefilter_size=json_int(obj["prefilter_size"], "prefilter_size"),
            beta_nonzero_count=tuple(
                json_int(c, "beta_nonzero_count") for c in obj["beta_nonzero_count"]
            ),
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


# The spanning family one element at a time, by one rank or nullspace of
# the translates kept so far: oracles of construct.minimal_spanning_family
# and construct.dual_vectors, which work on one stack of translates.

def _span_rank(field, images) -> int:
    """Rank of the row stack of a list of canonical arrays."""
    import numpy as np

    from rep2ldc.linalg import Matrix, rank

    return rank(Matrix.from_array(field, np.concatenate(images))) if images else 0


def reference_spanning_family(group, u) -> list[int]:
    """Greedy first fit in BFS order, adding g whenever the rows of U^g
    (U's basis times g^T) raise the rank of the translates kept so far,
    then deleting the first redundant member until none is."""
    from rep2ldc.errors import OrbitDoesNotSpan

    field, n = group.field, group.dim
    family, images, total = [], [], 0
    for pos in range(len(group)):
        img = (u.basis @ group.matrix(pos).T).a
        grown = _span_rank(field, [*images, img])
        if grown > total:
            family.append(pos)
            images.append(img)
            total = grown
            if total == n:
                break
    if total < n:
        raise OrbitDoesNotSpan(
            f"translates of a dim-{u.dim} subspace span only {total} of {n} dimensions"
        )
    changed = True
    while changed and len(family) > 1:
        changed = False
        for k in range(len(family)):
            if _span_rank(field, images[:k] + images[k + 1:]) == n:
                del family[k]
                del images[k]
                changed = True
                break
    return family


def reference_dual_vectors(group, u, g_refs, y):
    """(W, hat_w): w_i is the first basis row of the orthogonal complement
    of the other translates' sum (the nullspace of their stacked rows)
    with (Y^{g_i})^T w_i != 0, tried one matvec at a time."""
    import numpy as np

    from rep2ldc.errors import InternalInconsistency
    from rep2ldc.linalg import Matrix, nullspace

    field, n = group.field, group.dim
    images = [(u.basis @ group.matrix(g).T).a for g in g_refs]
    cols, hats = [], []
    for i, g in enumerate(g_refs):
        others = [Matrix.zeros(field, 0, n).a, *images[:i], *images[i + 1:]]
        comp = nullspace(Matrix.from_array(field, np.concatenate(others)))
        ygi_t = (group.matrix(g) @ y).T
        for r in range(comp.dim):
            if np.any(ygi_t.matvec(comp.basis.row(r)) != 0):
                cols.append(comp.basis.row(r))
                hats.append(ygi_t.matvec(comp.basis.row(r)))
                break
        else:
            raise InternalInconsistency(f"no dual vector for translate {i}; family not minimal?")
    return Matrix.from_array(field, np.ascontiguousarray(np.stack(cols, axis=1))), hats


def reference_nullspace(m):
    """linalg.nullspace by its former two eliminations: the free-variable
    basis of rref(m), built entry by entry, then put into RREF by
    Subspace.from_rows."""
    from rep2ldc.linalg import Matrix, Subspace, rref

    r, rk, piv = rref(m)
    n = m.cols
    piv_set = set(piv)
    free = [c for c in range(n) if c not in piv_set]
    basis = Matrix.zeros(m.field, len(free), n).a.copy()
    for k, f in enumerate(free):
        basis[k, f] = m.field.canon(1)
        for row_idx, pc in enumerate(piv):
            if r.a[row_idx, f] != 0:
                basis[k, pc] = m.field.canon(-r.a[row_idx, f])
    return Subspace.from_rows(m.field, n, Matrix(m.field, basis, _canonical=True))


# The set-family walks that ldc._set_faults and ldc._first_fit replaced:
# oracles of the one rule and the one first fit.

def reference_set_faults(sets, q: int, m=None) -> list[tuple[bool, bool, bool]]:
    """Per set (wrong size or repeated member, member shared with an earlier
    set, member outside [0, m)), walking the sets in order with the set of
    members seen so far; the third entry is False when m is None."""
    out, used = [], set()
    for s in sets:
        out.append((len(s) != q or len(set(s)) != len(s), bool(used.intersection(s)),
                    m is not None and any(not 0 <= j < m for j in s)))
        used.update(s)
    return out


def reference_match_entropy_check(t: int, pairs, f):
    """bounds.match_entropy_check by its former pair walk: per pair in set
    order disjointness, then range, then separation.  A set that is not a
    pair raises the text of the rule's size fault (the walk itself died
    unpacking it).  Returns (entropy, bound)."""
    from rep2ldc.errors import PairNotSeparated

    seen: set[int] = set()
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"set {tuple(pair)} does not have 2 distinct members")
        j1, j2 = pair
        if j1 in seen or j2 in seen or j1 == j2:
            raise ValueError("matching pairs must be disjoint")
        seen.update((j1, j2))
        if not (0 <= j1 < t and 0 <= j2 < t):
            raise ValueError("pair index out of range")
        if f[j1] == f[j2]:
            raise PairNotSeparated(f"f agrees on matched pair ({j1}, {j2})")
    counts: dict = {}
    for j in range(t):
        counts[f[j]] = counts.get(f[j], 0) + 1
    return brute_entropy(counts.values()), Fraction(2 * len(pairs), t)


def reference_first_fit(candidates) -> list[int]:
    """Indices of the candidates first fit keeps: each one sharing no
    member with a kept earlier one."""
    kept, used = [], set()
    for k, cand in enumerate(candidates):
        if not used.intersection(cand):
            kept.append(k)
            used.update(cand)
    return kept


def reference_greedy_kept_s(group, hs) -> list[int]:
    """construct's general pre-filter by its former walk: s is kept when
    none of h_1 s, ..., h_q s is used yet; colliding members raise."""
    from rep2ldc.errors import InternalInconsistency

    perms = [matrix_left_perm(group, h) for h in hs]
    kept, used = [], set()
    for s in range(len(group)):
        tup = [perm[s] for perm in perms]
        if len(set(tup)) != len(tup):
            raise InternalInconsistency("tuple members collide; hs not distinct?")
        if not used.intersection(tup):
            kept.append(s)
            used.update(tup)
    return kept


def reference_cycle_kept_s(group, h: int) -> list[int]:
    """The special2 pre-filter by walking each h-cycle from its smallest
    position: the starts of the edges at even offsets."""
    kept = []
    for cycle in matrix_cycles(group, h):
        kept.extend(cycle[a] for a in range(0, len(cycle) - 1, 2))
    return kept


def _sorted_rows(a):
    """Each row sorted, then the rows in lexicographic order."""
    import numpy as np

    a = np.sort(a, axis=1)
    return a[np.lexsort(a.T[::-1])]


def reference_same_sets(rows, members) -> bool:
    """Oracle of certcheck._same_sets: the two families of rows, each row
    read as a set, are equal as multisets, by two lexsorts."""
    import numpy as np

    return np.array_equal(_sorted_rows(rows), _sorted_rows(members))


def reference_beta_mask(cert):
    """Oracle of verify_cert's survivor mask: (t, |kept_s|) bools, entry
    [j, si] whether beta_{j,s}(z) != 0 for s = kept_s[si], from a product
    of z with the kept elements alone, then against the columns X hat_w_j."""
    import numpy as np

    group, field = cert.group, cert.group.field
    stack = group.stacked()[np.asarray(cert.kept_s, dtype=np.int64)]
    rho_z = field.matmul(stack.reshape(-1, group.dim), cert.z).reshape(-1, group.dim)
    cs = np.stack([cert.X.matvec(h) for h in cert.family.hat_w], axis=1)
    return (field.matmul(rho_z, cs) != 0).T


def reference_orbit_check(cert) -> bool:
    """Oracle of verify_cert's orbit check: every code vector is
    W^T rho(s) z, the lambda block scaled, from a product of z with the
    group stack against W alone."""
    import numpy as np

    field = cert.group.field
    rows = field.matmul(field.matmul(cert.group.stacked(), cert.z), cert.family.W.a)
    if cert.kind == "lambda":
        rows = np.concatenate([rows, field.reduce(rows * cert.lam)], axis=0)
    actual = cert.code.vectors.a
    return rows.shape == actual.shape and bool(np.all(rows == actual))
