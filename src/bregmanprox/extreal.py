"""Extended reals with guarded arithmetic, and 1D intervals with open/closed sides.

``ExtReal`` is a ``float`` subclass, so values flow into numpy arrays and
``math`` functions unchanged.  What the subclass adds is loud failure on the
two operations that silently produce NaN on plain floats: ``inf - inf`` and
``0 * inf``.  Every function in this package that can legitimately take the
value +inf (a point outside a domain, an unbounded conjugate) returns an
``ExtReal`` so that downstream arithmetic stays guarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfMinusInfError

__all__ = ["ExtReal", "POS_INF", "NEG_INF", "Interval"]


class ExtReal(float):
    """An extended real number: finite, +inf, or -inf. Never NaN."""

    __slots__ = ()

    def __new__(cls, value=0.0):
        v = float(value)
        if math.isnan(v):
            raise InfMinusInfError("ExtReal cannot hold NaN")
        return super().__new__(cls, v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self)

    def _combine(self, other, op):
        r = op(float(self), float(other))
        if math.isnan(r):
            raise InfMinusInfError(
                f"undefined extended-real operation: {float(self)!r} with {float(other)!r}"
            )
        return ExtReal(r)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __neg__(self):
        return ExtReal(-float(self))

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._combine(other, lambda a, b: b / a)

    def __repr__(self):
        return f"ExtReal({float(self)!r})"


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


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
