"""1D intervals with open/closed sides.

The paper's functions are extended-real valued: +inf off their domains. The
package holds those values in plain ``float`` (a float gives a float, an
array an array), and keeps NaN out where f and kappa are evaluated
(``kernels._coerce``): a NaN point lies in no domain and reads +inf, and a
NaN value at any other point raises ``InfMinusInfError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A real interval with per-side open/closed flags. Infinite sides are open."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    @staticmethod
    def reals() -> "Interval":
        return Interval(-math.inf, math.inf, False, False)

    @property
    def is_all_reals(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    def contains(self, x):
        """Membership of a float (a bool) or of each point of an array (a
        bool array). A float stays a pure-Python comparison; NaN lies in no
        interval."""
        return ((self.lo <= x) if self.lo_closed else (self.lo < x)) \
            & ((x <= self.hi) if self.hi_closed else (x < self.hi))

    def interior_contains(self, x, margin: float = 0.0):
        """Membership of a float or an array in (lo + margin, hi - margin)."""
        return (self.lo + margin < x) & (x < self.hi - margin)

    def interior(self) -> "Interval":
        return Interval(self.lo, self.hi, False, False)
