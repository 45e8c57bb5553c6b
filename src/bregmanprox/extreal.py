"""The package's one interval type, ``Interval``, empty included.

It holds the domains of f and kappa and each value of a subdifferential. In
1D a subgradient set is a possibly empty interval, maybe unbounded on one
side; the empty one has NaN ends, which every comparison reads false, so
membership needs no branch for it.

The module keeps its name from the extended-real type it once held because
the benchmark's tracer imports it by that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A real interval with per-side open/closed flags, or the empty set
    (both ends NaN). Infinite and empty sides are open."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not (self.lo <= self.hi or math.isnan(self.lo) and math.isnan(self.hi)):
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if not math.isfinite(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if not math.isfinite(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    @staticmethod
    def reals() -> "Interval":
        return Interval(-math.inf, math.inf, False, False)

    @staticmethod
    def empty() -> "Interval":
        return Interval(math.nan, math.nan, False, False)

    @property
    def is_all_reals(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    @property
    def is_empty(self) -> bool:
        return math.isnan(self.lo)

    def contains(self, x):
        """Membership of a float (a bool) or of each point of an array (a
        bool array). A float stays a pure-Python comparison; NaN lies in no
        interval, and no point in the empty one."""
        return ((self.lo <= x) if self.lo_closed else (self.lo < x)) \
            & ((x <= self.hi) if self.hi_closed else (x < self.hi))

    def interior_contains(self, x, margin: float = 0.0):
        """Membership of a float or an array in (lo + margin, hi - margin)."""
        return (self.lo + margin < x) & (x < self.hi - margin)

    def interior(self) -> "Interval":
        return Interval(self.lo, self.hi, False, False)
