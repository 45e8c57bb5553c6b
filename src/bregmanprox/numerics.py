"""Generic 1D numerical engine: grid minimization with tie detection, lower
convex envelopes, monotone inversion, finite differences, and a grid convexity
test.

All routines are pure functions of their inputs. Objectives are scalar
callables returning extended reals (+inf marks points outside a domain);
the helpers never form inf - inf because only +inf-valued terms are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllInfiniteError,
    DomainEdgeError,
    OutOfRangeError,
    TooFewFiniteError,
    UnboundedBelowError,
)
from .extreal import Interval

__all__ = [
    "Grid",
    "build_grid",
    "sample_inset",
    "GridMin",
    "MinimizerCluster",
    "grid_minimize",
    "golden_section",
    "HullCurve",
    "lower_convex_envelope",
    "monotone_invert",
    "second_difference_convexity_test",
    "finite_diff_grad",
]

# Defaults pinned by the build contract: 1D problems are cheap, so a dense
# grid plus golden-section refinement reaches ~1e-10 on smooth pieces.
DEFAULT_GRID_N = 2001
DEFAULT_REFINE_ITERS = 60
DEFAULT_TOL_TIE = 1e-7
DEFAULT_UNBOUNDED_CAP = 1e12
DEFAULT_BOUNDARY_INSET = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid on [lo, hi]; endpoints already inset for open sides."""

    lo: float
    hi: float
    n: int
    boundary_inset: float = DEFAULT_BOUNDARY_INSET
    points: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("grid requires lo < hi")
        if self.n < 3:
            raise ValueError("grid requires n >= 3")
        if self.points is None:
            object.__setattr__(self, "points", np.linspace(self.lo, self.hi, self.n))

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


def build_grid(interval: Interval, n: int = DEFAULT_GRID_N,
               inset: float = DEFAULT_BOUNDARY_INSET,
               window: tuple[float, float] | None = None) -> Grid:
    """Sample ``interval`` uniformly with ``n`` points.

    Closed sides include their endpoint exactly; open sides are inset by
    ``inset * span`` so essentially smooth kernels are never evaluated where
    their gradient blows up. ``window`` clips unbounded intervals to a finite
    working range.
    """
    lo, hi = interval.lo, interval.hi
    lo_closed, hi_closed = interval.lo_closed, interval.hi_closed
    if window is not None:
        wlo, whi = window
        if wlo > lo:
            lo, lo_closed = wlo, True
        if whi < hi:
            hi, hi_closed = whi, True
    if math.isinf(lo) or math.isinf(hi):
        raise ValueError("cannot sample an unbounded interval without a window")
    span = hi - lo
    if not lo_closed:
        lo += inset * span
    if not hi_closed:
        hi -= inset * span
    return Grid(lo, hi, n, inset)


def sample_inset(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` uniform draws from [lo, hi] kept 1e-3 of the span off each end."""
    return lo + (hi - lo) * (1e-3 + (1 - 2e-3) * rng.random(n))


@dataclass(frozen=True)
class MinimizerCluster:
    """One basin of near-optimal grid cells, refined to a representative point."""

    x: float
    value: float
    x_lo: float  # extent of the tie run on the grid
    x_hi: float


@dataclass(frozen=True)
class GridMin:
    x: float
    value: float
    multiple: bool
    clusters: tuple[MinimizerCluster, ...]

    @property
    def minimizers(self) -> list[float]:
        return [c.x for c in self.clusters]


def golden_section(phi: Callable[[float], float], a: float, b: float,
                   iters: int = DEFAULT_REFINE_ITERS) -> tuple[float, float]:
    """Golden-section minimization on [a, b]; returns the best point seen.

    Tolerates +inf values of ``phi`` inside the bracket (comparisons still
    order correctly), so brackets may straddle the edge of a domain.
    """
    best_x, best_v = a, phi(a)
    vb = phi(b)
    if vb < best_v:
        best_x, best_v = b, vb
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = phi(c), phi(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = phi(c)
            if fc < best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = phi(d)
            if fd < best_v:
                best_x, best_v = d, fd
        if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    return best_x, float(best_v)


def parabolic_polish(phi: Callable[[float], float], x: float, v: float,
                     a: float, b: float, rounds: int = 2) -> tuple[float, float]:
    """Sharpen a smooth interior minimizer by parabolic interpolation.

    Golden section is only sqrt(eps)-accurate in x because it compares nearly
    equal values; one or two parabola fits through a small stencil recover
    near-machine accuracy. Kinks and boundary minimizers are left untouched
    (the step is accepted only when it does not increase the value).
    """
    h = 1e-6 * max(1.0, abs(x))
    for _ in range(rounds):
        x1, x2 = x - h, x + h
        if x1 <= a or x2 >= b:
            break
        v1, v2 = phi(x1), phi(x2)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            break
        denom = v1 - 2.0 * v + v2
        if denom <= 0.0:
            break
        xn = x + 0.5 * (v1 - v2) / denom * h
        xn = min(max(xn, a), b)
        vn = phi(xn)
        # near the minimum the true improvement is below float resolution of
        # the values; accept within rounding
        if vn <= v + 1e-14 * max(1.0, abs(v)):
            x, v = xn, min(float(vn), v)
        h *= 0.3
    return x, v


def _tie_runs(idx: np.ndarray) -> list[tuple[int, int]]:
    """Group sorted indices into maximal runs of consecutive integers."""
    runs = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i == prev + 1:
            prev = i
            continue
        runs.append((start, prev))
        start = prev = i
    runs.append((start, prev))
    return runs


def grid_minimize(phi: Callable[[float], float], grid: Grid,
                  refine_iters: int = DEFAULT_REFINE_ITERS,
                  values: np.ndarray | None = None,
                  tol_tie: float = DEFAULT_TOL_TIE,
                  cap: float = DEFAULT_UNBOUNDED_CAP) -> GridMin:
    """Global minimization of ``phi`` over ``grid`` with set-valued detection.

    The coarse grid locates every cell within ``tol_tie`` of the minimum;
    each contiguous run of such cells is refined by golden section on its
    bracketing interval. ``multiple`` is set when at least two refined basins
    remain within ``tol_tie`` of each other, which is how set-valued proximal
    mappings are observed at grid resolution.

    ``values`` may carry precomputed ``phi`` samples on ``grid.points`` (the
    vectorized fast path used by the envelope cache).

    Raises ``AllInfiniteError`` if no sample is finite, ``UnboundedBelowError``
    if a refined value falls below ``-cap``.
    """
    xs = grid.points
    if values is None:
        values = np.fromiter((phi(x) for x in xs), dtype=float, count=len(xs))
    finite = np.isfinite(values)
    if not finite.any():
        raise AllInfiniteError("objective is +inf at every grid sample")
    vmin = values[finite].min()
    if vmin < -cap:
        raise UnboundedBelowError(f"grid objective reached {vmin:.3e}")
    tie_idx = np.nonzero(values <= vmin + tol_tie)[0]
    clusters = []
    for i0, i1 in _tie_runs(tie_idx):
        a = xs[max(i0 - 1, 0)]
        b = xs[min(i1 + 1, len(xs) - 1)]
        x_ref, v_ref = golden_section(phi, float(a), float(b), refine_iters)
        x_ref, v_ref = parabolic_polish(phi, float(x_ref), v_ref, float(a), float(b))
        if v_ref < -cap:
            raise UnboundedBelowError(f"refined objective reached {v_ref:.3e}")
        clusters.append(MinimizerCluster(float(x_ref), v_ref, float(xs[i0]), float(xs[i1])))
    best = min(c.value for c in clusters)
    clusters = [c for c in clusters if c.value <= best + tol_tie]
    # Distinct grid basins can refine into the same point; merge those.
    merged: list[MinimizerCluster] = []
    for c in sorted(clusters, key=lambda c: c.x):
        if merged and abs(c.x - merged[-1].x) <= 1e-9 * max(1.0, abs(c.x)):
            last = merged[-1]
            keep = c if c.value < last.value else last
            merged[-1] = MinimizerCluster(keep.x, keep.value,
                                          min(last.x_lo, c.x_lo), max(last.x_hi, c.x_hi))
        else:
            merged.append(c)
    winner = min(merged, key=lambda c: c.value)
    return GridMin(winner.x, winner.value, len(merged) > 1, tuple(merged))


@dataclass(frozen=True)
class HullCurve:
    """Lower convex envelope of finite samples: piecewise-linear breakpoints.

    The curve is +inf outside the span of the finite samples. Slopes are
    nondecreasing left to right by construction.
    """

    xs: np.ndarray
    vs: np.ndarray

    @property
    def x_min(self) -> float:
        return float(self.xs[0])

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    def segment_slopes(self) -> np.ndarray:
        return np.diff(self.vs) / np.diff(self.xs)

    def value(self, x):
        """Evaluate the curve (vectorized); +inf outside the finite span."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.vs)
        out = np.where((x < self.xs[0]) | (x > self.xs[-1]), np.inf, out)
        return float(out) if out.ndim == 0 else out

    def slopes_at(self, x: float, x_tol: float = 1e-12) -> tuple[float, float]:
        """(left slope, right slope) of the curve at x; infinite at the span edges."""
        if x < self.xs[0] - x_tol or x > self.xs[-1] + x_tol:
            raise ValueError(f"{x} outside hull span")
        slopes = self.segment_slopes()
        left: float
        right: float
        if x <= self.xs[0] + x_tol:
            left = -math.inf
            right = slopes[0] if len(slopes) else math.inf
            return left, float(right)
        if x >= self.xs[-1] - x_tol:
            left = slopes[-1] if len(slopes) else -math.inf
            return float(left), math.inf
        j = int(np.searchsorted(self.xs, x))
        # xs[j-1] < x <= xs[j] up to tolerance
        if abs(x - self.xs[j]) <= x_tol:        # at breakpoint j
            left = slopes[j - 1]
            right = slopes[j] if j < len(slopes) else math.inf
        elif abs(x - self.xs[j - 1]) <= x_tol:  # at breakpoint j-1
            left = slopes[j - 2] if j >= 2 else -math.inf
            right = slopes[j - 1]
        else:                                   # strictly inside segment j-1
            left = right = slopes[j - 1]
        return float(left), float(right)


def lower_convex_envelope(samples: Sequence[tuple[float, float]]) -> HullCurve:
    """Lower convex envelope of the finite points among ``samples``.

    Monotone-chain construction on points sorted by strictly increasing x.
    Collinear interior points are dropped; the curve still passes through
    every sample it touches.
    """
    xs, vs = [], []
    prev_x = None
    for x, v in samples:
        x = float(x)
        if prev_x is not None and x <= prev_x:
            raise ValueError("sample abscissae must be strictly increasing")
        prev_x = x
        v = float(v)
        if math.isfinite(v):
            xs.append(x)
            vs.append(v)
        elif v == -math.inf:
            raise ValueError("samples must not be -inf")
    if len(xs) < 2:
        raise TooFewFiniteError("need at least two finite samples")
    hull_x: list[float] = []
    hull_v: list[float] = []
    for x, v in zip(xs, vs):
        while len(hull_x) >= 2:
            x0, v0 = hull_x[-2], hull_v[-2]
            x1, v1 = hull_x[-1], hull_v[-1]
            # pop the last hull point while it lies on or above the chord
            # from hull[-2] to the incoming point (slopes must increase)
            if (x1 - x0) * (v - v0) - (x - x0) * (v1 - v0) <= 0.0:
                hull_x.pop()
                hull_v.pop()
            else:
                break
        hull_x.append(x)
        hull_v.append(v)
    return HullCurve(np.array(hull_x), np.array(hull_v))


def monotone_invert(m: Callable[[float], float], target: float,
                    bracket: tuple[float, float],
                    domain: Interval | None = None,
                    tol_inv: float = 1e-12, max_expand: int = 200) -> float:
    """Solve m(x) = target for strictly increasing ``m`` by bisection.

    The bracket auto-expands while it stays inside the open ``domain``
    (geometric steps toward an infinite side, midpointing toward a finite
    open side). Raises ``OutOfRangeError`` when expansion exhausts the domain
    without straddling ``target``.
    """
    if domain is None:
        domain = Interval.reals()
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo > hi:
        lo, hi = hi, lo

    def expand_left(x):
        if math.isinf(domain.lo):
            return x - max(1.0, abs(x)) * 2.0
        return 0.5 * (domain.lo + x)

    def expand_right(x):
        if math.isinf(domain.hi):
            return x + max(1.0, abs(x)) * 2.0
        return 0.5 * (x + domain.hi)

    flo, fhi = m(lo), m(hi)
    for _ in range(max_expand):
        if flo <= target:
            break
        new = expand_left(lo)
        if new == lo:
            raise OutOfRangeError(f"target {target} below range of map")
        lo = new
        flo = m(lo)
    else:
        raise OutOfRangeError(f"target {target} below range of map")
    for _ in range(max_expand):
        if fhi >= target:
            break
        new = expand_right(hi)
        if new == hi:
            raise OutOfRangeError(f"target {target} above range of map")
        hi = new
        fhi = m(hi)
    else:
        raise OutOfRangeError(f"target {target} above range of map")

    for _ in range(400):
        mid = 0.5 * (lo + hi)
        fmid = m(mid)
        if abs(fmid - target) <= tol_inv or (hi - lo) <= 1e-14:
            return mid
        if fmid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def second_difference_convexity_test(values: Sequence[tuple[float, float]],
                                     tol: float = 1e-9):
    """Convexity of uniformly sampled finite data via centered second differences.

    Returns ``(convex, worst_violation, witness)`` where ``worst_violation``
    is the smallest second difference (so ``convex`` iff it is >= -tol) and
    ``witness`` the x-triple attaining it.
    """
    pts = [(float(x), float(v)) for x, v in values]
    if len(pts) < 3:
        raise ValueError("need at least three samples")
    xs = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if not np.isfinite(vs).all():
        raise ValueError("samples must be finite")
    h = np.diff(xs)
    if not np.allclose(h, h[0], rtol=1e-8, atol=1e-12):
        raise ValueError("samples must be uniformly spaced")
    d2 = vs[:-2] - 2.0 * vs[1:-1] + vs[2:]
    k = int(np.argmin(d2))
    worst = float(d2[k])
    witness = (float(xs[k]), float(xs[k + 1]), float(xs[k + 2]))
    return worst >= -tol, worst, witness


def finite_diff_grad(phi: Callable[[float], float], x: float, h: float) -> float:
    """Centered difference (phi(x+h) - phi(x-h)) / (2h) on a finite stencil."""
    vp, vm = float(phi(x + h)), float(phi(x - h))
    if not (math.isfinite(vp) and math.isfinite(vm)):
        raise DomainEdgeError(f"stencil [{x - h}, {x + h}] leaves the finite domain")
    return (vp - vm) / (2.0 * h)
