"""Per-layer spans and counters, attached from outside the library.

The tracer rebinds public entry points of the ``rep2ldc`` modules to
wrappers for the length of one traced pass and restores them afterwards.
Nothing under ``src/`` is edited: every module namespace (and class) that
holds the original function object gets the wrapper, so calls made through
``from .x import f`` bindings are seen too.

Three kinds of hook:

* span    -- timed, nested; a span's self time is its duration minus the
             time covered by the spans it calls.
* timer   -- timed leaf for very hot kernels (``matmul_mod`` runs about
             5e5 times per symmetric(6,7) closure).  It is not a span, so
             its time stays inside the caller's self time.
* counter -- call count only.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Stat:
    __slots__ = ("kind", "total", "self", "calls")

    def __init__(self, kind: str, total=0.0, self_=0.0, calls=0):
        self.kind = kind
        self.total = total
        self.self = self_
        self.calls = calls

    def copy(self) -> "Stat":
        return Stat(self.kind, self.total, self.self, self.calls)


class Tracer:
    """Span, timer and counter aggregates for one traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self._stack = [[0.0]]  # child time of each open span; [0] is the root
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str, kind: str = "span") -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(kind)
        return st

    def _close(self, name: str, frame: list, dt: float) -> None:
        self._stack.pop()
        self._stack[-1][0] += dt
        st = self._stat(name)
        st.total += dt
        st.self += dt - frame[0]
        st.calls += 1

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code (job bodies, fixture builds)."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter() - t0)

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def snapshot(self) -> dict[str, Stat]:
        return {k: v.copy() for k, v in self.stats.items()}

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, time.perf_counter() - t0)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _timer_wrapper(self, name, fn):
        st = self._stat(name, "timer")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            st.total += clock() - t0
            st.calls += 1
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        st = self._stat(name, "counter")

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr and every module global bound to the same object."""
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rep2ldc" or mod_name.startswith("rep2ldc.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def install(self, hooks) -> None:
        """hooks: iterable of (kind, name, owner, attr, observe)."""
        for kind, name, owner, attr, observe in hooks:
            fn = getattr(owner, attr)
            if kind == "span":
                wrapper = self._span_wrapper(name, fn, observe)
            elif kind == "timer":
                wrapper = self._timer_wrapper(name, fn)
            else:
                wrapper = self._counter_wrapper(name, fn)
            self._rebind(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


class NullTracer:
    """Stand-in used on untraced passes; every hook is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield

    def add(self, name: str, value) -> None:
        pass


# ---------------------------------------------------------------------------
# observers: counts derived from a traced call's arguments and result
# ---------------------------------------------------------------------------

Z_SCAN_CHUNK = 4096  # column block of _kernels.best_z_exhaustive_np


def _observe_best_z(tr: Tracer, args, result) -> None:
    normals, p, n = args[0], int(args[1]), int(args[2])
    k = normals.shape[0]
    total = p**n
    tr.add("kernels.best_z_ops", k * total * n)
    # per chunk: candidate columns (n x c) plus the product and its residue (k x c)
    c = min(Z_SCAN_CHUNK, total)
    tr.peak("kernels.best_z_bytes", 8 * c * (n + 2 * k))


def projective_classes(normals: np.ndarray, p: int) -> int:
    """Number of distinct lines spanned by the (nonzero) rows of `normals`."""
    if p == 0:
        keys = set()
        for row in normals:
            lead = next(x for x in row if x != 0)
            keys.add(tuple(x / lead for x in row))
        return len(keys)
    rows = np.asarray(normals, dtype=np.int64) % p
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    values, where = np.unique(lead, return_inverse=True)
    inv = np.array([pow(int(x), p - 2, p) for x in values], dtype=np.int64)
    scaled = rows * inv[where.ravel()][:, None] % p
    return int(np.unique(scaled, axis=0).shape[0])


def _observe_normals(tr: Tracer, args, result) -> None:
    group = args[0]
    tr.add("construct.normals", result.shape[0])
    tr.add("construct.normal_classes", projective_classes(result, group.field.char))


def _observe_close(tr: Tracer, args, result) -> None:
    tr.add("groups.elements_closed", len(result))


def _observe_ldc_verify(tr: Tracer, args, result) -> None:
    tr.add("ldc.sets_checked", result.sigma)


def _observe_rank_scan(tr: Tracer, args, result) -> None:
    tr.add("bounds.elements_scanned", len(args[0]))


def _observe_verify_cert(tr: Tracer, args, result) -> None:
    tr.add("certcheck.failures", len(result.failures))


def lattice_ordinal(z, n: int) -> int:
    """How many lattice points choose_z tests over QQ before accepting z
    (same enumeration: boxes [0..B]^n of growing B, new shell only)."""
    target = tuple(int(x) for x in z)
    count = 0
    for bound in itertools.count(1):
        for point in itertools.product(range(bound + 1), repeat=n):
            if bound > 1 and max(point) != bound:
                continue
            count += 1
            if point == target:
                return count


def _choose_z_observer(limit: int):
    def observe(tr: Tracer, args, result) -> None:
        field, normals = args[0], args[1]
        z, mask = result
        tr.add("construct.z_survivors", int(np.count_nonzero(mask)))
        tr.add("construct.z_scanned_normals", int(mask.size))
        p, n = field.char, normals.shape[1]
        if p == 0:
            tr.add("construct.z_candidates", lattice_ordinal(z, n))
        elif p**n <= limit:
            tr.add("construct.z_candidates", p**n)
        # the randomized GF branch is counted by the count_nonzero_dots
        # counter, its only caller being that branch of choose_z
    return observe


def library_hooks():
    """Every hook of a traced pass, as (kind, name, owner, attr, observe)."""
    from rep2ldc import _kernels, bounds, certcheck, construct, groups, ldc, linalg, serialize
    from rep2ldc.groups import MatrixGroup
    from rep2ldc.linalg import Matrix

    return [
        # _kernels
        ("span", "kernels.best_z", _kernels, "best_z_exhaustive", _observe_best_z),
        ("timer", "kernels.matmul", _kernels, "matmul_mod", None),
        ("timer", "kernels.rref", _kernels, "rref_mod", None),
        ("counter", "kernels.count_nonzero_dots", _kernels, "count_nonzero_dots", None),
        # linalg
        ("counter", "linalg.matmul", Matrix, "__matmul__", None),
        ("counter", "linalg.rref", linalg, "rref", None),
        ("timer", "linalg.rref_qq", linalg, "_rref_fraction", None),
        # groups
        ("span", "groups.close", groups, "close_group", _observe_close),
        ("span", "groups.left_perm", MatrixGroup, "left_perm", None),
        ("span", "groups.element_order", MatrixGroup, "element_order", None),
        ("span", "groups.burnside", groups, "burnside_irreducible", None),
        # construct
        ("span", "construct.build", construct, "build_special_2ldc", None),
        ("span", "construct.build", construct, "build_q_ldc", None),
        ("span", "construct.build", construct, "lambda_variant", None),
        ("span", "construct.prepare", construct, "_prepare", None),
        ("span", "construct.spanning_family", construct, "minimal_spanning_family", None),
        ("span", "construct.dual_vectors", construct, "dual_vectors", None),
        ("span", "construct.validate_family", construct, "validate_family", None),
        ("span", "construct.normals", construct, "_hyperplane_normals", _observe_normals),
        ("span", "construct.choose_z", construct, "choose_z",
         _choose_z_observer(construct.EXHAUSTIVE_Z_LIMIT)),
        ("span", "construct.code_vectors", construct, "_code_vectors", None),
        ("span", "construct.orbit_check", construct, "orbit_projection_check", None),
        ("span", "construct.spanning_identities", construct, "check_spanning_identities", None),
        # ldc, bounds, certcheck, serialize
        ("span", "ldc.verify", ldc, "verify", _observe_ldc_verify),
        ("span", "bounds.rank_scan", bounds, "check_rank_separation", _observe_rank_scan),
        ("span", "bounds.avg_fixed_space", bounds, "avg_fixed_space", None),
        ("span", "bounds.entropy_audit", bounds, "entropy_audit", None),
        ("span", "certcheck.verify_cert", certcheck, "verify_cert", _observe_verify_cert),
        ("span", "serialize.cert_to_json", serialize, "cert_to_json", None),
    ]
