"""Built-in test representations, generated (never stored) from explicit
generator matrices so every construction doubles as a closure test.

Each factory checks its expected invariants (group size, irreducibility
evidence, witness ranks) before returning.  The group size is known in
closed form, so a fixture larger than the cap is refused before any
generator is built.  Notable element positions:
the first generator of signed_shift_group is the rank-1 reflection, of
dihedral_rep the rotation, of symmetric_standard_rep a transposition.
"""

from __future__ import annotations

import math
from itertools import chain

from . import groups
from .errors import (
    BadCharacteristic,
    CapExceeded,
    CharTwo,
    InternalInconsistency,
    NoRootOfUnity,
)
from .fields import GF, Field, _int_from_text
from .groups import MatrixGroup, burnside_irreducible, close_group
from .linalg import Matrix, rank

__all__ = [
    "signed_shift_group",
    "dihedral_rep",
    "symmetric_standard_rep",
    "FIXTURES",
    "parse_fixture",
]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise InternalInconsistency(f"fixture invariant failed: {what}")


def _size_within_cap(factors, cap: int | None) -> int:
    """The resolved cap, once the group size, the product of `factors`
    (each >= 1), is known not to exceed it; CapExceeded otherwise.

    Multiplying stops at the first partial product above the cap, so a
    huge size such as n * 2^n or k! is never formed.
    """
    cap, size = groups._resolve_cap(cap), 1
    for f in factors:
        size *= f
        if size > cap:
            raise CapExceeded(cap)
    return cap


def signed_shift_group(n: int, p: int, cap: int | None = None) -> MatrixGroup:
    """Signed cyclic shifts of F^n: generated by diag(-1,1,...,1) and the
    n-cycle coordinate shift.  Size n * 2^n, irreducible, and the
    reflection generator has rank(rho(h) - I) = 1.

    p = 0 builds the same group over the rationals.
    """
    if n < 2:
        raise ValueError("signed shift group needs n >= 2")
    if p == 2:
        raise CharTwo("signed shifts need -1 != 1, so p must be odd")
    field = Field(p)
    cap = _size_within_cap(chain((n,), (2 for _ in range(n))), cap)
    refl = Matrix.diag(field, [-1] + [1] * (n - 1))
    shift_rows = [[0] * n for _ in range(n)]
    for i in range(n):
        shift_rows[(i + 1) % n][i] = 1
    shift = Matrix(field, shift_rows)
    group = close_group([refl, shift], cap=cap)
    _expect(len(group) == n * 2**n, f"size {len(group)} != {n * 2 ** n}")
    _expect(burnside_irreducible(group), "signed shift group not irreducible")
    _expect(
        rank(refl - Matrix.identity(field, n)) == 1,
        "reflection witness rank != 1",
    )
    return group


def _element_of_order(p: int, k: int) -> int:
    """Smallest residue of multiplicative order exactly k mod p.

    As a runs over GF(p)^x, h = a^((p-1)/k) takes each residue of order
    dividing k equally often, so a few values of a give one of order
    exactly k.  The residues of order k are then the powers h^j with
    gcd(j, k) = 1, so k products find the smallest, however far from 1.
    """
    if (p - 1) % k != 0:
        raise NoRootOfUnity(f"GF({p}) has no element of order {k}")
    primes = _prime_factors(k)
    for a in range(1, p):
        h = pow(a, (p - 1) // k, p)
        if all(pow(h, k // q, p) != 1 for q in primes):
            break
    best, x = h, 1
    for j in range(1, k + 1):
        x = x * h % p
        if math.gcd(j, k) == 1:
            best = min(best, x)
    return best


def _prime_factors(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def dihedral_rep(k: int, p: int, cap: int | None = None) -> MatrixGroup:
    """Dihedral group of order 2k as diag(zeta, zeta^-1) plus the swap,
    with zeta a fixed order-k root of unity mod p.  Irreducible for k >= 3."""
    if k < 1:
        raise ValueError("dihedral_rep needs k >= 1")
    if p == 0:
        raise ValueError("dihedral_rep needs a prime field with k | p-1")
    field = GF(p)
    cap = _size_within_cap((2, k), cap)
    zeta = _element_of_order(p, k)
    rot = Matrix.diag(field, [zeta, pow(zeta, -1, p)])
    swap = Matrix(field, [[0, 1], [1, 0]])
    group = close_group([rot, swap], cap=cap)
    _expect(len(group) == 2 * k, f"size {len(group)} != {2 * k}")
    if k >= 3:
        _expect(burnside_irreducible(group), "dihedral rep not irreducible")
        _expect(
            rank(swap - Matrix.identity(field, 2)) == 1,
            "reflection witness rank != 1",
        )
    return group


def symmetric_standard_rep(k: int, p: int, cap: int | None = None) -> MatrixGroup:
    """Standard (k-1)-dimensional representation of the symmetric group on
    k letters, on the sum-zero subspace with basis e_i - e_{i+1}.
    Irreducible when p does not divide k; transpositions have witness
    rank 1."""
    if k < 3:
        raise ValueError("symmetric_standard_rep needs k >= 3")
    if p != 0 and k % p == 0:
        raise BadCharacteristic(f"p={p} divides k={k}; standard rep is reducible")
    field = Field(p)
    cap = _size_within_cap(range(2, k + 1), cap)

    def perm_matrix(perm: list[int]) -> Matrix:
        # Coordinates of e_a - e_b in the basis v_i = e_i - e_{i+1}:
        # telescoping sum over the index interval between a and b.
        def coords(a: int, b: int) -> list[int]:
            row = [0] * (k - 1)
            if a < b:
                for i in range(a, b):
                    row[i] = 1
            else:
                for i in range(b, a):
                    row[i] = -1
            return row

        cols = [coords(perm[i], perm[i + 1]) for i in range(k - 1)]
        rows = [[cols[j][i] for j in range(k - 1)] for i in range(k - 1)]
        return Matrix(field, rows)

    transposition = perm_matrix([1, 0] + list(range(2, k)))
    cycle = perm_matrix(list(range(1, k)) + [0])
    group = close_group([transposition, cycle], cap=cap)
    _expect(len(group) == math.factorial(k), f"size {len(group)} != {k}!")
    _expect(burnside_irreducible(group), "standard rep not irreducible")
    _expect(
        rank(transposition - Matrix.identity(field, k - 1)) == 1,
        "transposition witness rank != 1",
    )
    return group


FIXTURES = {
    "signed_shift": (
        signed_shift_group,
        ("n", "p"),
        "signed cyclic shifts of F^n, size n*2^n; generator 0 is the rank-1 reflection",
    ),
    "dihedral": (
        dihedral_rep,
        ("k", "p"),
        "dihedral group of order 2k in GL(F_p^2); generator 0 is the rotation",
    ),
    "symmetric": (
        symmetric_standard_rep,
        ("k", "p"),
        "standard (k-1)-dim representation of S_k, size k!; generator 0 is a transposition",
    ),
}


def parse_fixture(text: str, cap: int | None = None) -> MatrixGroup:
    """Build a fixture from 'name(arg1,arg2)' syntax, e.g. signed_shift(4,3);
    fields._int_from_text reads each argument and names its parameter."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"expected name(args), got {text!r}")
    name, _, args = text[:-1].partition("(")
    name = name.strip()
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    factory, params, _ = FIXTURES[name]
    args = args.split(",") if args.strip() else []
    if len(args) != len(params):
        raise ValueError(f"{name} takes {len(params)} parameters {params}")
    values = [_int_from_text(arg, f"{name} parameter {param}") for param, arg in zip(params, args)]
    return factory(*values, cap=cap)
