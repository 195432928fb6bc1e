"""Exception types shared across the package."""


class CharpowError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(CharpowError):
    """A matrix that must be nonsingular has determinant zero."""


class NotInLatticeError(CharpowError):
    """A vector or column does not lie in the given lattice."""


class NoIntegralSolutionError(CharpowError):
    """An equation that must have an integral solution does not; indicates a bug."""


class GroupTooLargeError(CharpowError):
    """A group construction exceeds the supported order cap."""


class TableTooLargeError(CharpowError):
    """A coefficient table would exceed the supported entry cap."""


class ListingTooLargeError(CharpowError):
    """An enumeration would list more items than the supported cap."""


class NotPPowerTupleError(CharpowError):
    """A tuple contains an element whose order is not a power of p."""


class NotASubgroupError(CharpowError):
    """An element subset is not closed under multiplication."""


class NotAHomomorphismError(CharpowError):
    """A proposed map of groups fails the homomorphism law."""


class LevelMismatchError(CharpowError):
    """Operands live at incompatible working levels, or the level is too small."""


class SectionOutOfRangeError(CharpowError):
    """A section was asked for an isogeny whose kernel exceeds its order bound."""


class NonIntegralCoefficientError(CharpowError):
    """A series expected to be p-integral has a coefficient with p in the denominator."""


class NoUnitCoefficientError(CharpowError):
    """A truncated series has no unit coefficient within its truncation degree."""
