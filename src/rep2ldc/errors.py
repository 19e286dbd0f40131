"""Exception taxonomy.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto stable exit codes.
"""

from __future__ import annotations


class Rep2LdcError(Exception):
    """Base class for all package errors."""


class ParseError(Rep2LdcError):
    """Malformed or inconsistent input file / JSON document."""


class DimensionMismatch(Rep2LdcError):
    """Operands have incompatible shapes or live over different fields."""


class ZeroMatrix(Rep2LdcError):
    """An operation that needs rank >= 1 received the zero matrix."""


class NotInvertible(Rep2LdcError):
    """A group generator is singular."""


class CapExceeded(Rep2LdcError):
    """Group closure grew past the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"group closure exceeded cap of {cap} elements")
        self.cap = cap


class IdentityElement(Rep2LdcError):
    """The chosen group element acts as the identity matrix."""


class ScalarMultipleOfIdentity(Rep2LdcError):
    """rho(h) equals lambda * I, so rho(h) - lambda*I is zero."""


class OrbitDoesNotSpan(Rep2LdcError):
    """The group translates of the seed subspace fail to span F^n."""


class InternalInconsistency(Rep2LdcError):
    """A condition guaranteed by construction failed; indicates a bug."""


class BudgetExhausted(Rep2LdcError):
    """Randomized search failed to meet a bound that provably holds."""


class PairNotSeparated(Rep2LdcError):
    """A matched pair maps to equal values under the tested function."""


class MatchingCrossesPrefixClass(Rep2LdcError):
    """A matched pair straddles two prefix classes; the instance is not
    genuinely in special form."""


class CharTwo(Rep2LdcError):
    """Fixture requires an odd characteristic."""


class NoRootOfUnity(Rep2LdcError):
    """GF(p) has no element of the requested multiplicative order."""


class BadCharacteristic(Rep2LdcError):
    """The field characteristic divides a quantity that must be a unit."""
