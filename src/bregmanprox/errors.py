"""Exception types shared across the package."""


class BregmanError(Exception):
    """Base class for all package errors."""


class InfMinusInfError(BregmanError):
    """Raised when extended-real arithmetic would form inf - inf (or 0 * inf)."""


class TooFewFiniteError(BregmanError):
    """Fewer than two finite samples were supplied to the hull builder."""


class AllInfiniteError(BregmanError):
    """The objective is +inf at every grid sample."""


class UnboundedBelowError(BregmanError):
    """Refined objective values fell below the configured cap."""


class OutOfRangeError(BregmanError):
    """Inversion target lies outside the closure of the map's range."""


class DomainEdgeError(BregmanError):
    """A finite-difference stencil left the finite domain."""


class NotLegendreError(BregmanError):
    """Operation requires a Legendre kernel."""


class OutsideInteriorError(BregmanError):
    """A point required to be in the interior of the kernel domain is not."""


class UnknownInstanceError(BregmanError, KeyError):
    """Catalog lookup failed."""


class HypothesesUnmetError(BregmanError):
    """Theorem hypotheses (Legendre / 1-coercive / threshold) do not hold."""


class RangeAssumptionFailedError(BregmanError):
    """A sampled proximal output landed outside the interior of the kernel domain."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses or []


class AllUnboundedError(BregmanError):
    """Every lambda in the scan grid was diagnosed unbounded."""
