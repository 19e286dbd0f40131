"""Prime fields GF(p) and the rational field, with canonical scalars.

Scalars are plain Python objects: residues 0..p-1 (int) over GF(p) and
``fractions.Fraction`` over the rationals.  Both representations are
canonical, so equality and hashing come for free.

Arrays are int64 residues over GF(p) and Fraction object arrays over the
rationals.  The field owns the one arithmetic split of the array code:
`matmul` and `reduce` are exact mod-p kernels over GF(p); over QQ `matmul`
multiplies integer numerators (each operand scaled by the lcm of its
denominators) and `reduce` is the identity, so every array path above runs
unchanged on both fields.  Fractions are still multiplied entry by entry
in linalg's eliminations, the reference construct.spanning_tuple_identity,
the lambda block of construct._code_vectors, Matrix.scale and the 0/1
table of construct.validate_family.  The JSON
wire form is split here too: `array_from_json` and `array_to_json` read and
write a whole array at a time (JSON integers taken mod p over GF(p), "a/b"
strings over QQ).  A rational string on the wire has one grammar,
-?[0-9]+(/[0-9]+)? (`rational_from_json`), what str(Fraction) writes, and an
integer flag or fixture argument its numerator's (`_int_from_text`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

import numpy as np

from . import _kernels
from ._kernels import MAX_PRIME
from .errors import ParseError

__all__ = ["Field", "GF", "QQ", "is_prime", "rational_from_json", "strict_int"]

_to_str = np.frompyfunc(str, 1, 1)  # "a/b" of each Fraction of an object array
_INT = r"-?[0-9]+"
_RATIONAL = re.compile(rf"({_INT})(?:/([0-9]+))?")


def rational_from_json(x) -> Fraction:
    """The rational a JSON integer or an "a/b" or "a" string of ASCII
    digits names.

    Any other string raises ValueError: an exponent, a decimal point,
    spaces, underscores, a plus sign or a non-ASCII digit, all of which
    Fraction() would take (and "1e10000000" would take seconds).  A zero
    denominator raises ZeroDivisionError, any other type TypeError.
    """
    if type(x) is int:
        return Fraction(x)
    match = _RATIONAL.fullmatch(x)
    if match is None:
        raise ValueError(f"not a rational -?[0-9]+(/[0-9]+)?: {x!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den) if den else 1)


def _int_from_text(text: str, name: str) -> int:
    """The integer `text` names in ASCII digits, -?[0-9]+, surrounding spaces
    stripped; other text (an underscore, a plus sign, a non-ASCII digit, none)
    is a ParseError naming `name`, where int() would take all but none."""
    if not re.fullmatch(_INT, text := text.strip()):
        raise ParseError(f"{name}: not an integer {_INT}: {text!r}")
    return int(text)


def strict_int(value, name: str) -> int:
    """value as an int if a Python or numpy integer (not a bool), else ValueError
    naming `name`: int() would truncate a float or parse a string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """GF(p) for a machine-word prime p, or the rationals (char == 0)."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        char = strict_int(char, "char")
        if char > MAX_PRIME:
            raise ValueError(f"field characteristic {char} exceeds machine-word limit {MAX_PRIME}")
        if char != 0 and not is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        self.char = char

    @property
    def theta(self) -> Fraction:
        """1 for an infinite field, 1 - 1/|F| for GF(p)."""
        if self.char == 0:
            return Fraction(1)
        return 1 - Fraction(1, self.char)

    # -- scalar plumbing ----------------------------------------------------

    def canon(self, x) -> int | Fraction:
        """Canonical representative of a scalar in this field: an int (not
        a bool), a numpy integer or a Fraction.  Anything else raises
        ValueError naming it, where int() would truncate a float or parse
        a string and Fraction() would take a float's binary expansion."""
        if isinstance(x, Fraction):
            if not self.char:
                return x
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"denominator not a unit mod {self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ValueError(f"scalar {x!r} is not an integer or a Fraction")
        return int(x) % self.char if self.char else Fraction(int(x))

    def array(self, rows) -> np.ndarray:
        """Canonical 2-D array from nested sequences of scalars."""
        data = [[self.canon(x) for x in row] for row in rows]
        ncols = {len(row) for row in data}
        if len(ncols) > 1:
            raise ValueError("ragged rows")
        shape = (len(data), ncols.pop() if ncols else 0)
        return np.array(data, dtype=np.int64 if self.char else object).reshape(shape)

    def vector(self, seq) -> np.ndarray:
        """Canonical 1-D array from a sequence of scalars."""
        return np.array([self.canon(x) for x in seq], dtype=np.int64 if self.char else object)

    # -- array arithmetic ------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b with np.matmul semantics (1-D operands, 2-D operands
        and broadcast stacks) on canonical arrays of this field.

        Over QQ, a = A / la and b = B / lb with integer A, B and la, lb the
        lcms of the operands' denominators.  A @ B is one integer product,
        in int64 under the guard of matmul_mod (max|A| max|B| k < 2^63 - 1
        for the contracted length k) and in Python ints beyond it; each
        distinct entry of (A @ B) / (la lb) becomes one canonical Fraction.
        """
        if self.char:
            # looked up at call time, so a rebound kernel is the one used
            return _kernels.matmul_mod(a, b, self.char)
        (na, la), (nb, lb) = scaled_numerators(a), scaled_numerators(b)
        bound = max(map(abs, na), default=0) * max(map(abs, nb), default=0) * a.shape[-1]
        dtype = np.int64 if bound < 2**63 - 1 else object
        prod = np.matmul(np.array(na, dtype=dtype).reshape(a.shape),
                         np.array(nb, dtype=dtype).reshape(b.shape))
        den = la * lb
        if np.ndim(prod) == 0:
            return Fraction(int(prod), den)
        values, inverse = np.unique(prod.ravel(), return_inverse=True)
        fracs = np.array([Fraction(v, den) for v in values.tolist()], dtype=object)
        return fracs[inverse].reshape(prod.shape)

    def integers(self, a: np.ndarray) -> np.ndarray:
        """Canonical `a` times one positive integer, as an integer array of
        its shape: `a` itself over GF(p); over QQ the numerators of
        scaled_numerators, int64 when each fits and Python ints beyond.
        Equal entries stay equal and unequal ones keep their order."""
        if self.char:
            return a
        nums = scaled_numerators(a)[0]
        dtype = np.int64 if max(map(abs, nums), default=0) < 2**63 else object
        return np.array(nums, dtype=dtype).reshape(a.shape)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Canonical form of an array of sums, differences or multiples of
        canonical entries: residues mod p over GF(p), unchanged over QQ."""
        return a % self.char if self.char else a

    # -- serialization ---------------------------------------------------------

    def array_from_json(self, rows) -> np.ndarray:
        """Canonical 2-D array from JSON rows of scalars, one pass per array.

        Over GF(p) every entry must be a JSON integer (not a bool), taken
        mod p; over QQ an "a/b" string or a JSON integer, one Fraction each.
        A bad entry raises the scalar_from_json error of the first one in
        row-major order, a row that is not a sequence the TypeError of
        iterating it, and rows of different lengths ValueError.
        """
        try:
            flat = list(chain.from_iterable(rows))
            if not set(map(type, flat)) <= ({int} if self.char else {int, str}):
                raise TypeError("not a JSON scalar of this field")
            if self.char:
                try:
                    values = np.array(flat, dtype=np.int64) % self.char
                except OverflowError:  # beyond int64: reduce as Python ints
                    values = (np.array(flat, dtype=object) % self.char).astype(np.int64)
            else:
                values = np.array(list(map(rational_from_json, flat)), dtype=object)
        except (TypeError, ValueError, ZeroDivisionError):
            for x in chain.from_iterable(rows):  # the first bad entry, in row-major order
                self.scalar_from_json(x)
            raise
        ncols = set(map(len, rows))
        if len(ncols) > 1:
            raise ValueError("ragged rows")
        return values.reshape(len(rows), ncols.pop() if ncols else 0)

    def array_to_json(self, a) -> list:
        """A canonical array as nested JSON lists: ints over GF(p), "a/b"
        strings over QQ."""
        if self.char:
            return np.asarray(a).tolist()
        return _to_str(np.asarray(a, dtype=object)).tolist()

    def scalar_to_json(self, x):
        """A canonical scalar as JSON: an int over GF(p), "a/b" over QQ."""
        return int(x) if self.char else str(Fraction(x))

    def scalar_from_json(self, obj):
        if self.char:
            if type(obj) is not int:
                raise ParseError(f"expected residue int, got {obj!r}")
            return self.canon(obj)
        if type(obj) in (str, int):  # not float or bool: rationals are written "a/b"
            try:
                return rational_from_json(obj)
            except (ValueError, ZeroDivisionError):
                pass
        raise ParseError(f"cannot parse rational scalar {obj!r}")

    # -- dunders -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def to_json(self) -> dict:
        return {"char": self.char}

    @classmethod
    def from_json(cls, obj) -> "Field":
        from .serialize import json_int

        try:
            return cls(json_int(obj["char"], "field.char"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad field spec {obj!r}") from exc


def scaled_numerators(a: np.ndarray) -> tuple[list[int], int]:
    """(numerators, l) with a.flat == numerators / l: l is the lcm of the
    denominators of a's rational entries, and numerators are Python ints
    in a.flat order."""
    flat = a.ravel().tolist()
    lcm = math.lcm(*{x.denominator for x in flat})
    if lcm == 1:
        return [x.numerator for x in flat], 1
    return [x.numerator * (lcm // x.denominator) for x in flat], lcm


def GF(p: int) -> Field:
    """The prime field with p elements."""
    field = Field(p)
    if field.char == 0:
        raise ValueError("GF requires a prime; use QQ for the rationals")
    return field


QQ = Field(0)
