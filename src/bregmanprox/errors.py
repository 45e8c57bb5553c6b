"""Exception types shared across the package."""


class BregmanError(Exception):
    """Base class for all package errors."""


class InfMinusInfError(BregmanError):
    """A function or kernel is NaN at a point that is not NaN: its formula
    formed inf - inf or 0 * inf there, an undefined form or an overflow.
    Raised where f and kappa are evaluated (``kernels._coerce``), naming the
    function and the point."""


class TooFewFiniteError(BregmanError):
    """Fewer than two finite samples were supplied to the hull builder."""


class AllInfiniteError(BregmanError):
    """The objective is +inf at every grid sample."""


class UnboundedBelowError(BregmanError):
    """Refined objective values fell below the configured cap."""


class OutOfRangeError(BregmanError):
    """A point the computation cannot represent: an inversion target outside
    the closure of the map's range, a point where kappa or its tilt
    overflows on the working grid, or a point whose sup over ybar lies at or
    past the window's end of the y grid."""


class DomainEdgeError(BregmanError):
    """A finite-difference stencil left the finite domain."""


class NotLegendreError(BregmanError):
    """Operation requires a Legendre kernel."""


class OutsideInteriorError(BregmanError):
    """A point required to be in the interior of the kernel domain is not."""


class UnknownInstanceError(BregmanError, KeyError):
    """Catalog lookup failed."""


class HypothesesUnmetError(BregmanError):
    """Theorem hypotheses (Legendre, 1-coercive, or a check's gate) do not hold."""


class AllUnboundedError(BregmanError):
    """Every lambda in the scan grid was diagnosed unbounded."""


class GridSizeError(BregmanError, ValueError):
    """``BREGMAN_GRID_N`` is not an integer grid size of at least
    ``numerics.MIN_GRID_N``."""
