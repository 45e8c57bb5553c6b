"""Generic 1D numerical engine: grid minimization with tie detection, lower
convex envelopes, monotone inversion, finite differences, a grid convexity
test and a grid conjugate.

All routines are pure functions of their inputs. Objectives are array
functions of x returning extended reals (+inf marks points outside a
domain); the helpers never form inf - inf because only +inf-valued terms are
added. The root finder and the finite difference stay scalar.
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
    "refine",
    "refine_best",
    "HullCurve",
    "lower_convex_envelope",
    "monotone_invert",
    "second_difference_convexity_test",
    "grid_conjugate",
    "finite_diff_grad",
]

# Defaults pinned by the build contract: 1D problems are cheap, so a dense
# grid plus bracket refinement reaches ~1e-10 on smooth pieces.
DEFAULT_GRID_N = 2001
DEFAULT_TOL_TIE = 1e-7
DEFAULT_UNBOUNDED_CAP = 1e12
DEFAULT_BOUNDARY_INSET = 1e-9
# Bracket refinement: samples per bracket per round (each round keeps two of
# 16 cells, shrinking the bracket 8-fold) and the most rounds run.
ZOOM_POINTS = 17
ZOOM_ROUNDS = 14
_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)


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


def refine(phi: Callable, a, b, rows: np.ndarray | None = None):
    """Minimize ``phi`` on every bracket [a_k, b_k] at once; returns the best
    point seen and its value per bracket, as arrays.

    Each round samples ``ZOOM_POINTS`` evenly spaced points in every open
    bracket and keeps the two cells around the best one; a bracket closes
    once it is narrower than 1e-15 relative, and at most ``ZOOM_ROUNDS``
    rounds run. A parabolic polish then sharpens smooth interior minimizers,
    which value comparisons only locate to about sqrt(eps) in x: a step is
    accepted only when it does not increase the value, so kinks and boundary
    minimizers are left in place. +inf values inside a bracket are tolerated,
    so brackets may straddle the edge of a domain.

    ``phi`` is an array function of a 1-D x. With ``rows`` (one row index
    per bracket) it is called as ``phi(x, r)``, where ``r`` gives the row of
    each point of x. Brackets never interact: each one gets the same result
    as when refined alone.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)

    def ev(sel, x):
        """phi on the (brackets, points) array x of the brackets ``sel``."""
        flat = x.ravel()
        v = phi(flat) if rows is None else phi(flat, np.repeat(rows[sel], x.shape[1]))
        return np.asarray(v, dtype=float).reshape(x.shape)

    x_best, v_best = a.copy(), np.full_like(a, np.inf)
    # the open brackets, and their ends and best points
    live, lo, hi = np.arange(a.size), a.copy(), b.copy()
    bx, bv = x_best.copy(), v_best.copy()
    for _ in range(ZOOM_ROUNDS):
        x = lo[:, None] + (hi - lo)[:, None] * _ZOOM_STEPS
        x[:, -1] = hi
        v = ev(live, x)
        j = np.arange(live.size)
        k = v.argmin(axis=1)
        better = v[j, k] < bv
        bx = np.where(better, x[j, k], bx)
        bv = np.where(better, v[j, k], bv)
        x_best[live], v_best[live] = bx, bv
        lo, hi = x[j, np.maximum(k - 1, 0)], x[j, np.minimum(k + 1, ZOOM_POINTS - 1)]
        keep = hi - lo > 1e-15 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        if not keep.all():
            live, lo, hi, bx, bv = live[keep], lo[keep], hi[keep], bx[keep], bv[keep]
            if not live.size:
                break

    # parabolic polish on a shrinking stencil, two rounds
    x, v = x_best, v_best
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    live = np.arange(a.size)
    for _ in range(2):
        live = live[(x[live] - h[live] > a[live]) & (x[live] + h[live] < b[live])]
        if not live.size:
            break
        xl, hl, vl = x[live], h[live], v[live]
        st = ev(live, np.stack([xl - hl, xl + hl], axis=1))
        # a parabola needs finite values and positive curvature
        ok = np.isfinite(st).all(axis=1) & np.isfinite(vl)
        ok[ok] = st[ok, 0] - 2.0 * vl[ok] + st[ok, 1] > 0.0
        live, xl, hl, vl, v1, v2 = live[ok], xl[ok], hl[ok], vl[ok], st[ok, 0], st[ok, 1]
        if not live.size:
            break
        xn = np.clip(xl + 0.5 * (v1 - v2) / (v1 - 2.0 * vl + v2) * hl, a[live], b[live])
        vn = ev(live, xn[:, None])[:, 0]
        # near the minimum the true improvement is below float resolution of
        # the values; accept within rounding
        take = vn <= vl + 1e-14 * np.maximum(1.0, np.abs(vl))
        x[live[take]] = xn[take]
        v[live[take]] = np.minimum(vn, vl)[take]
        h[live] *= 0.3
    return x, v


def refine_best(phi: Callable, xs: np.ndarray, values: np.ndarray):
    """``refine`` on the two cells around the best finite sample of ``phi``
    on ``xs`` (``values``); returns (x, value) as floats."""
    j = int(np.argmin(np.where(np.isfinite(values), values, np.inf)))
    x, v = refine(phi, xs[max(j - 1, 0)], xs[min(j + 1, len(xs) - 1)])
    return float(x[0]), float(v[0])


def grid_minimize(phi: Callable, grid: Grid,
                  values: np.ndarray | None = None,
                  tol_tie: float = DEFAULT_TOL_TIE,
                  cap: float = DEFAULT_UNBOUNDED_CAP):
    """Global minimization of ``phi`` over ``grid`` with set-valued detection.

    The coarse grid locates every cell within ``tol_tie`` of the minimum;
    each contiguous run of such cells is refined on its bracketing interval,
    all runs in one ``refine`` call. ``multiple`` is set when at least two
    refined basins remain within ``tol_tie`` of each other, which is how
    set-valued proximal mappings are observed at grid resolution.

    ``phi`` is an array function of x; ``values`` may carry its samples on
    ``grid.points``. A 2-D ``values`` is a block of objectives, one per row:
    ``phi`` is then called as ``phi(x, rows)`` (see ``refine``) and a list
    with one ``GridMin`` per row is returned.

    Raises ``AllInfiniteError`` if no sample of a row is finite,
    ``UnboundedBelowError`` if a value falls below ``-cap``.
    """
    xs = grid.points
    if values is None:
        values = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    block = np.ndim(values) == 2
    values = np.atleast_2d(values)
    finite = np.isfinite(values)
    if not finite.any(axis=1).all():
        raise AllInfiniteError("objective is +inf at every grid sample")
    vmin = values.min(axis=1, where=finite, initial=np.inf)
    if vmin.min() < -cap:
        raise UnboundedBelowError(f"grid objective reached {vmin.min():.3e}")
    # int8 throughout: a block of rows allocates no float-sized temporaries here
    tie = (values <= (vmin + tol_tie)[:, None]).astype(np.int8)
    edge = np.diff(tie, axis=1, prepend=np.int8(0), append=np.int8(0))
    row, i0 = np.nonzero(edge == 1)
    i1 = np.nonzero(edge == -1)[1] - 1
    a = xs[np.maximum(i0 - 1, 0)]
    b = xs[np.minimum(i1 + 1, len(xs) - 1)]
    x_ref, v_ref = refine(phi, a, b, row if block else None)
    if v_ref.min() < -cap:
        raise UnboundedBelowError(f"refined objective reached {v_ref.min():.3e}")
    out = []
    for r in range(values.shape[0]):
        clusters = [MinimizerCluster(float(x_ref[k]), float(v_ref[k]),
                                     float(xs[i0[k]]), float(xs[i1[k]]))
                    for k in np.nonzero(row == r)[0]]
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
        out.append(GridMin(winner.x, winner.value, len(merged) > 1, tuple(merged)))
    return out if block else out[0]


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


def second_difference_convexity_test(xs: np.ndarray, values: np.ndarray,
                                     tol: float = 1e-9):
    """Convexity of uniformly sampled data via centered second differences.

    Returns ``(convex, worst_violation, witness)``: the smallest second
    difference of the finite samples (``convex`` iff it is >= -tol, an
    absolute tolerance) and the x-triple attaining it. Infinite samples lie
    outside the domain, so a non-contiguous finite set (a non-convex domain)
    gives ``(False, -inf, gap pair)``; fewer than three give ``(True, inf, ())``.
    """
    idx = np.nonzero(np.isfinite(values))[0]
    if idx.size < 3:
        return True, math.inf, ()
    if not (np.diff(idx) == 1).all():
        gap = int(idx[np.nonzero(np.diff(idx) > 1)[0][0]])
        return False, -math.inf, (float(xs[gap]), float(xs[gap + 1]))
    x, v = xs[idx], values[idx]
    h = np.diff(x)
    if not np.allclose(h, h[0], rtol=1e-8, atol=1e-12):
        raise ValueError("samples must be uniformly spaced")
    d2 = v[:-2] - 2.0 * v[1:-1] + v[2:]
    k = int(np.argmin(d2))
    worst = float(d2[k])
    return worst >= -tol, worst, (float(x[k]), float(x[k + 1]), float(x[k + 2]))


def grid_conjugate(g: Callable, grid: Grid, eta: float) -> float:
    """g*(eta) = sup_x eta x - g(x) over ``grid``: the best grid sample,
    refined on the two cells around it."""
    xs = grid.points

    def neg(x):
        return -(float(eta) * x - g(x))

    return -refine_best(neg, xs, neg(xs))[1]


def finite_diff_grad(phi: Callable[[float], float], x: float, h: float) -> float:
    """Centered difference (phi(x+h) - phi(x-h)) / (2h) on a finite stencil."""
    vp, vm = float(phi(x + h)), float(phi(x - h))
    if not (math.isfinite(vp) and math.isfinite(vm)):
        raise DomainEdgeError(f"stencil [{x - h}, {x + h}] leaves the finite domain")
    return (vp - vm) / (2.0 * h)
