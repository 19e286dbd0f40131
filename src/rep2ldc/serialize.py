"""JSON wire formats and deterministic file writing.

Formats (all indices 0-based, rationals as "a/b" strings):

  matrix     {"field": {"char": p}, "rows": r, "cols": c, "entries": [[..]]}
  group spec {"field": {...}, "dim": n, "generators": [matrix, ...], "cap": int}
  ldc        {"field": {...}, "t": int, "m": int, "vectors": [[..]],
              "matchings": [[[j, ..], ..], ..], "form": "special2"|"general",
              "q": int, "claimed_delta": "a/b"}
  cert       group spec + hash, the full pipeline transcript and the ldc,
              enough to re-check every invariant from the file alone.

Serialization is canonical (sorted keys, fixed separators), so identical
inputs and seeds give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .errors import NotInvertible, ParseError
from .fields import Field
from .groups import MatrixGroup, close_group
from .ldc import LdcInstance, QMatching
from .linalg import Matrix

__all__ = [
    "canonical_json",
    "dump_json",
    "load_json",
    "matrix_to_json",
    "matrix_from_json",
    "group_spec_to_json",
    "group_from_spec_json",
    "group_export_json",
    "group_spec_hash",
    "ldc_to_json",
    "ldc_from_json",
    "cert_to_json",
    "detect_kind",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _scalar_out(field: Field, x):
    return int(x) if field.char else str(Fraction(x))


def _vector_out(field: Field, v) -> list:
    return [_scalar_out(field, x) for x in v]


def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": m.field.to_json(),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [_vector_out(m.field, row) for row in m.a],
    }


def matrix_from_json(obj) -> Matrix:
    try:
        field = Field.from_json(obj["field"])
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("matrix entries do not match declared shape")
    try:
        data = [[field.scalar_from_json(x) for x in row] for row in entries]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc
    return Matrix(field, data)


def group_spec_to_json(group: MatrixGroup, cap: int | None = None) -> dict:
    return group.spec_json(cap=cap)


def group_spec_hash(spec: dict) -> str:
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


def group_from_spec_json(obj, cap: int | None = None) -> MatrixGroup:
    try:
        field = Field.from_json(obj["field"])
        dim = int(obj["dim"])
        gens = [matrix_from_json(g) for g in obj["generators"]]
        spec_cap = int(obj.get("cap", 0)) or None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group spec: {exc}") from exc
    for g in gens:
        if g.field != field or g.rows != dim or g.cols != dim:
            raise ParseError("generator does not match group field/dim")
    try:
        return close_group(gens, cap=cap if cap is not None else spec_cap)
    except NotInvertible as exc:
        raise ParseError(f"bad group spec: {exc}") from exc


def group_export_json(group: MatrixGroup) -> dict:
    """Full element list with generator words, for audit."""
    return {
        "spec": group.spec_json(),
        "size": len(group),
        "elements": [matrix_to_json(g)["entries"] for g in group.elements],
        "words": [list(w) for w in group.words],
    }


def ldc_to_json(instance: LdcInstance) -> dict:
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


def ldc_from_json(obj) -> LdcInstance:
    try:
        field = Field.from_json(obj["field"])
        t, m = int(obj["t"]), int(obj["m"])
        vectors = Matrix(
            field, [[field.scalar_from_json(x) for x in row] for row in obj["vectors"]]
        )
        q = int(obj["q"])
        matchings = tuple(
            QMatching(q=q, sets=tuple(tuple(int(j) for j in s) for s in mi))
            for mi in obj["matchings"]
        )
        form = str(obj["form"])
        claimed = Fraction(obj["claimed_delta"])
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


def cert_to_json(cert) -> dict:
    """Serialize a ConstructionCert; embeds the group spec and its hash."""
    field = cert.group.field
    spec = cert.group.spec_json()
    return {
        "kind": cert.kind,
        "group": spec,
        "group_hash": group_spec_hash(spec),
        "hs": list(cert.hs),
        "alphas": _vector_out(field, cert.alphas),
        "lambda": None if cert.lam is None else _scalar_out(field, cert.lam),
        "D": matrix_to_json(cert.D),
        "R": cert.R,
        "Y": matrix_to_json(cert.Y),
        "X": matrix_to_json(cert.X),
        "family": {
            "g_refs": list(cert.family.g_refs),
            "U": matrix_to_json(cert.family.U.basis),
            "W": matrix_to_json(cert.family.W),
            "hat_w": [_vector_out(field, h) for h in cert.family.hat_w],
        },
        "z": _vector_out(field, cert.z),
        "kept_s": list(cert.kept_s),
        "prefilter_size": cert.prefilter_size,
        "beta_nonzero_count": list(cert.beta_nonzero_count),
        "code": ldc_to_json(cert.code),
        "achieved_delta": str(cert.achieved_delta),
        "seed": cert.seed,
    }


def detect_kind(obj) -> str:
    """Classify a loaded JSON document: 'cert', 'ldc' or 'group'."""
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON must be an object")
    if "code" in obj and "group" in obj:
        return "cert"
    if "vectors" in obj and "matchings" in obj:
        return "ldc"
    if "generators" in obj:
        return "group"
    raise ParseError("unrecognized document; expected cert, ldc or group spec")
