"""JSON wire formats and deterministic file writing.

Formats (all indices 0-based, rationals as "a/b" strings):

  matrix     {"field": {"char": p}, "rows": r, "cols": c, "entries": [[..]]}
  group spec {"field": {...}, "dim": n, "generators": [matrix, ...], "cap": int}
  ldc        {"field": {...}, "t": int, "m": int, "vectors": [[..]],
              "matchings": [[[j, ..], ..], ..], "form": "special2"|"general",
              "q": int, "claimed_delta": "a/b"}
  cert       group spec + hash, the full pipeline transcript and the ldc,
              enough to re-check every invariant from the file alone.

Scalars cross the wire a whole array at a time: every matrix, code
vector block, `alphas`, `hat_w` and `z` goes through the field's
`array_from_json` and `array_to_json`, every integer list (indices,
counts) through `json_ints`, and each coordinate's matching rows
straight into QMatching, whose set rule reads them into one (k, q) int64
array (one type pass and one np.fromiter) and refuses a member that is
not an integer; `members.tolist()` writes them back, with no tuple per
set.  Serialization is canonical (sorted keys, fixed separators), so
identical inputs and seeds give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from .errors import NotInvertible, ParseError
from .fields import Field, rational_from_json
from .groups import MatrixGroup, close_group
from .ldc import LdcInstance, QMatching
from .linalg import Matrix

__all__ = [
    "canonical_json",
    "dump_json",
    "load_json",
    "matrix_to_json",
    "matrix_from_json",
    "group_from_spec_json",
    "group_export_json",
    "group_spec_hash",
    "ldc_to_json",
    "ldc_from_json",
    "cert_to_json",
    "detect_kind",
    "json_fraction",
    "json_int",
    "json_ints",
]


def canonical_json(obj) -> str:
    """Compact sorted-key JSON text.  Every tree written here comes from the
    library or from json.load, and neither holds a cycle, so the encoder
    skips its cycle check (check_circular=False): the same bytes, without
    an id-dict insert and delete per list and dict."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def dump_json(obj, path: str | None = None) -> None:
    """The one indented JSON writer (sorted keys, indent 2, trailing
    newline) of every file and report: to `path`, or without one to stdout.
    Like canonical_json it skips the cycle check."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, check_circular=False)
        fh.write("\n")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def json_int(value, name: str) -> int:
    """An integer field of a JSON document, taken as it is.

    Only a JSON integer passes: a float, a string or a bool raises
    ParseError naming the field, where int() would truncate or convert.
    """
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


def json_ints(values, name: str) -> tuple[int, ...]:
    """A list of JSON integers as an int tuple, with one type pass over it:
    the first non-integer raises json_int's message, and values that are
    not iterable the TypeError of iterating them.
    """
    out = tuple(values)
    if not set(map(type, out)) <= {int}:
        for value in out:  # the first offender
            json_int(value, name)
    return out


def json_fraction(value, name: str) -> Fraction:
    """A rational field of a JSON document, written as an "a/b" string.

    A JSON number is refused (0.5 would otherwise pass as 1/2), as is a
    string outside fields.rational_from_json's grammar.
    """
    if type(value) is not str:
        raise ParseError(f"{name} must be a string, got {value!r}")
    try:
        return rational_from_json(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {name} {value!r}: {exc}") from exc


def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": m.field.to_json(),
        "rows": m.rows,
        "cols": m.cols,
        "entries": m.field.array_to_json(m.a),
    }


def matrix_from_json(obj) -> Matrix:
    try:
        field = Field.from_json(obj["field"])
        rows, cols = json_int(obj["rows"], "rows"), json_int(obj["cols"], "cols")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if cols < 0 or len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("matrix entries do not match declared shape")
    try:  # the reshape keeps the declared width of a matrix without rows
        data = field.array_from_json(entries).reshape(rows, cols)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc
    return Matrix.from_array(field, data)


def group_spec_hash(spec: dict) -> str:
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


def group_from_spec_json(obj, cap: int | None = None) -> MatrixGroup:
    try:
        field = Field.from_json(obj["field"])
        dim = json_int(obj["dim"], "dim")
        gens = [matrix_from_json(g) for g in obj["generators"]]
        spec_cap = json_int(obj["cap"], "cap") if "cap" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group spec: {exc}") from exc
    if dim < 1:
        raise ParseError(f"dim must be at least 1, got {dim}")
    if spec_cap is not None and spec_cap < 1:
        raise ParseError(f"cap must be positive, got {spec_cap}")
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
        "elements": group.field.array_to_json(group.stacked()),
        "words": [list(w) for w in group.words],
    }


def ldc_to_json(instance: LdcInstance) -> dict:
    return {
        "field": instance.field.to_json(),
        "t": instance.t,
        "m": instance.m,
        "vectors": instance.field.array_to_json(instance.vectors.a),
        "matchings": [mi.members.tolist() for mi in instance.matchings],
        "form": instance.form,
        "q": instance.q,
        "claimed_delta": str(instance.claimed_delta),
    }


def ldc_from_json(obj) -> LdcInstance:
    try:
        field = Field.from_json(obj["field"])
        t, m = json_int(obj["t"], "t"), json_int(obj["m"], "m")
        for name, value in (("t", t), ("m", m)):
            if value < 1:
                raise ParseError(f"{name} must be at least 1, got {value}")
        vectors = Matrix.from_array(field, field.array_from_json(obj["vectors"]))
        q = json_int(obj["q"], "q")
        if q > m:  # a set of q distinct positions needs q <= m
            raise ParseError(f"q must be at most m = {m}, got {q}")
        matchings = tuple(QMatching(q=q, sets=rows) for rows in obj["matchings"])
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


def cert_to_json(cert) -> dict:
    """Serialize a ConstructionCert; embeds the group spec and its hash."""
    field = cert.group.field
    spec = cert.group.spec_json()
    return {
        "kind": cert.kind,
        "group": spec,
        "group_hash": group_spec_hash(spec),
        "hs": list(cert.hs),
        "alphas": field.array_to_json(cert.alphas),
        "lambda": None if cert.lam is None else field.scalar_to_json(cert.lam),
        "D": matrix_to_json(cert.D),
        "R": cert.R,
        "Y": matrix_to_json(cert.Y),
        "X": matrix_to_json(cert.X),
        "family": {
            "g_refs": list(cert.family.g_refs),
            "U": matrix_to_json(cert.family.U.basis),
            "W": matrix_to_json(cert.family.W),
            "hat_w": [field.array_to_json(h) for h in cert.family.hat_w],
        },
        "z": field.array_to_json(cert.z),
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
