"""Exception hierarchy shared by all hyperwave modules."""


class HyperwaveError(Exception):
    """Base class for all validation errors raised by hyperwave."""


class DimensionMismatch(HyperwaveError):
    """Input sizes are inconsistent with the basis bookkeeping."""


class MaskInconsistent(HyperwaveError):
    """Refinement masks violate the biorthogonality block identities."""


class LevelTooCoarse(HyperwaveError):
    """Evaluation grid is not finer than the requested index level."""


class LevelBelowCoarsest(HyperwaveError):
    """Requested level lies below the coarsest level of the basis."""


class WrongSystem(HyperwaveError):
    """Coefficient vector belongs to the other basis system."""


class UnsupportedDimension(HyperwaveError):
    """Operation is only implemented for a restricted set of dimensions."""


class InvalidExponent(HyperwaveError):
    """Exponent outside the admissible range of the operation."""


class ExponentOutOfRange(HyperwaveError):
    """Integrability exponent outside the range required by the transform-norm check."""


class SizeTooLarge(HyperwaveError):
    """An array too large to build: the Kronecker product of matrix factors
    assembled explicitly, or the dense multiscale grid of a coefficient
    vector whose declared truncation level is too fine to allocate."""


class UnknownKind(HyperwaveError):
    """Unknown test-function generator kind."""


class InsufficientPoints(HyperwaveError):
    """Not enough usable points for a least-squares rate fit."""
