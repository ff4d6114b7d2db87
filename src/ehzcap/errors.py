"""Exception types shared across the package."""


class EhzcapError(Exception):
    """Base class for all package-specific errors."""


class InvalidBodyError(EhzcapError):
    """Input does not describe a bounded, full-dimensional convex polytope."""


class DimensionMismatchError(EhzcapError):
    """Operands live in different ambient dimensions."""


class OriginNotInteriorError(EhzcapError):
    """An operation that needs the origin strictly inside the body was
    called on a body that does not contain it."""


class PointOutsideBodyError(EhzcapError):
    """A point expected inside (or on) a body lies strictly outside it."""


class PointOffBoundaryError(EhzcapError):
    """A curve vertex expected on the body boundary is not there."""


class CurveCollapseError(EhzcapError):
    """Canonicalization removed so many vertices that no closed polygonal
    curve is left."""


class NotABilliardError(EhzcapError):
    """No dual trajectory exists for the given curve."""


class InvalidParameterError(EhzcapError, ValueError):
    """A numeric parameter lies outside its documented range."""


class GridTooCoarseError(EhzcapError):
    """The brute-force grid produced no pinned tuple at all."""


class LpNumericalError(EhzcapError):
    """The LP solver could not certify its answer to the required tolerances."""
