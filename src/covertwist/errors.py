"""Exception hierarchy for the package, and the work meter.

Validation-style operations (graph and covering checks) return reports
instead of raising; the exceptions below cover contract violations,
unattainable requests, and budget limits.
"""

from contextlib import contextmanager


class CovertwistError(Exception):
    """Base class for package errors."""


# graphs / paths

class NotConnectedError(CovertwistError):
    """A connected graph was required."""


class CoverNotConnectedError(NotConnectedError):
    """A connected covering graph was required."""


class NotAPathError(CovertwistError):
    """Edge sequence is not consecutively composable."""


class NotALoopError(CovertwistError):
    """A closed path was required."""


class InvalidRotationError(CovertwistError):
    """Rotation system does not list each out-star exactly once."""


class NotPlanarError(CovertwistError):
    """The rotation system does not give Euler characteristic 2."""


class NotPlanarQuotientError(NotPlanarError):
    """The quotient graph of a cyclic symmetry must embed in the plane."""


# covering

class InternalCosetError(CovertwistError):
    """Coset bookkeeping produced an inconsistent sheet or block
    (internal bug)."""


class NotNormalError(CovertwistError):
    """A normal (Galois) covering was required."""


class NotAbelianError(CovertwistError):
    """An abelian deck group was required."""


class NotASubgroupError(CovertwistError):
    """Provided permutations do not generate a subgroup of the deck group."""


class QuotientConstructionFailedError(CovertwistError):
    """Intermediate quotient graph failed an internal consistency check."""


# algebra

class RegistryMismatchError(CovertwistError):
    """Polynomials over different variable registries were combined."""


class DivisionByZeroPolyError(CovertwistError):
    """Division by the zero polynomial."""


class DivisionFailedError(CovertwistError):
    """An exact divisibility claim failed."""


class NotSquareError(CovertwistError):
    """A square matrix was required."""


class NotSkewSymmetricError(CovertwistError):
    """A skew-symmetric matrix was required."""


class OddDimensionError(CovertwistError):
    """Pfaffian of an odd-dimensional matrix was requested."""


class DomainMismatchError(CovertwistError):
    """Operands live over incompatible scalar domains."""


# operators / weights

class MissingWeightError(CovertwistError):
    """An edge has no assigned weight."""


class MissingConnectionEntryError(CovertwistError):
    """An edge has no assigned connection matrix."""


class WeightsNotSymmetricError(CovertwistError):
    """Symmetric weights were required (w(e) == w(inverse of e))."""


class VoltageNotAntisymmetricError(CovertwistError):
    """Integer voltages must negate under the edge involution."""


class EvenDegreeError(CovertwistError):
    """An odd covering degree was required."""


class IrreducibleCountMismatchError(CovertwistError):
    """Sum of squared degrees of the irreducibles must equal the group order."""


# budgets / io

class BudgetExceededError(CovertwistError):
    """A run needs more work, or a larger size, than its budget allows."""


# The work meter: kernels charge a bound on a step's coefficient operations
# before taking it; in a work_limit block, a charge past what is left raises.
WORK_LIMIT = 100_000_000
_left = None   # units left in the block; None outside one


def charge(units: int, where: str) -> None:
    global _left
    if _left is not None:
        _left -= units
        if _left < 0:
            raise BudgetExceededError(f"work budget exceeded in {where}")


@contextmanager
def work_limit(units: int):
    """Meter the block with units; blocks do not nest."""
    global _left
    _left = units
    try:
        yield
    finally:
        _left = None


class ParseError(CovertwistError):
    """Input document is malformed; carries a 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class SemanticError(CovertwistError):
    """Input document parsed but describes an inconsistent object."""
