"""Generic 1D numerical engine: grid minimization with tie detection, lower
convex envelopes, monotone inversion, finite differences, a grid convexity
test (also as a named ``Condition``) and a grid conjugate.

All routines are pure functions of their inputs. Objectives are array
functions of x returning extended reals (+inf marks points outside a
domain); the helpers never form inf - inf because only +inf-valued terms are
added. The root finder stays scalar; the finite difference takes a float or
an array. Minimizers are resolved in x to ``X_RESOLUTION`` relative: closer
basins merge into one, and bracket refinement stops at that width. A grid
minimization searches each tie run from its best grid cell and returns a
``ProxResult``. Searches that read only a value skip the location polish:
``grid_min_value`` (the same scan, a least value per row) and
``concave_sup``, which stops once concavity bounds the sup within rounding
and aims a round at a parabola's vertex where the samples share one
curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

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
    "ProxResult",
    "ProxBatch",
    "MinimizerCluster",
    "grid_minimize",
    "grid_min_value",
    "zoom",
    "refine",
    "concave_sup",
    "HullCurve",
    "lower_convex_envelope",
    "monotone_invert",
    "second_difference_convexity_test",
    "Condition",
    "convexity_condition",
    "grid_conjugate",
    "finite_diff_grad",
]

# Defaults pinned by the build contract: 1D problems are cheap, so a dense
# grid plus bracket refinement locates a minimizer in x to about X_RESOLUTION
# relative, and to a few X_RESOLUTION where the objective is flat to rounding
# around a smooth minimum (the Shannon prox of |x| at 400 ybar in [4.9, 11.9]:
# up to 3.4e-9 relative, 1.2e-8 absolute).
DEFAULT_GRID_N = 2001
MIN_GRID_N = 3  # the fewest points of a ``Grid``
DEFAULT_TOL_TIE = 1e-7
DEFAULT_UNBOUNDED_CAP = 1e12
BOUNDARY_INSET = 1e-9
TOL_CONV = 1e-8  # second-difference convexity slack (scaled by data size)
# Relative x-resolution: closer refined basins merge, narrower brackets close.
X_RESOLUTION = 1e-9
# Bracket refinement: samples per bracket per round (each round keeps two of
# 16 cells, shrinking the bracket at least 8-fold).
ZOOM_POINTS = 17
_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)
# flat-index steps from a least sample k to the next bracket's ends, k -+ 1 within the bracket
_NEXT_ENDS = np.array([[0] + [-1] * (ZOOM_POINTS - 1), [1] * (ZOOM_POINTS - 1) + [0]])
_STENCIL = np.array([-1.0, 1.0])  # the polish's stencil x -+ h, in units of h
# ``concave_sup`` stops once its upper bound is this many ulps of
# max(1, |best|) above the best sample.
SUP_STOP_ULPS = 8
# ``concave_sup`` aims a round at a parabola's vertex only where the three
# second differences around its best sample agree within this ratio.
CURVATURE_SPREAD = 1.5
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid on [lo, hi]; endpoints already inset for open sides."""

    lo: float
    hi: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("grid requires lo < hi")
        if self.n < MIN_GRID_N:
            raise ValueError(f"grid requires n >= {MIN_GRID_N}")
        object.__setattr__(self, "points", np.linspace(self.lo, self.hi, self.n))

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


def build_grid(interval: Interval, n: int = DEFAULT_GRID_N,
               window: tuple[float, float] | None = None) -> Grid:
    """Sample ``interval`` uniformly with ``n`` points.

    Closed sides include their endpoint exactly; open sides are inset by
    ``BOUNDARY_INSET * span`` so essentially smooth kernels are never
    evaluated where their gradient blows up. ``window`` clips unbounded
    intervals to a finite working range.
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
        lo += BOUNDARY_INSET * span
    if not hi_closed:
        hi -= BOUNDARY_INSET * span
    return Grid(lo, hi, n)


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
class ProxResult:
    """One grid minimization: its basins in increasing x, each refined to
    a minimizer, and the least refined value."""

    value: float
    clusters: tuple[MinimizerCluster, ...]

    @property
    def minimizers(self) -> tuple[float, ...]:
        return tuple(c.x for c in self.clusters)

    @property
    def multiple(self) -> bool:
        return len(self.clusters) > 1


@dataclass(frozen=True, eq=False)
class ProxBatch:
    """The grid minimizations of a batch of rows, as columns: per row its
    least refined value; per minimizer (a row's in increasing x) its point,
    refined value, tie-run extent and row, row r owning minimizers
    ``starts[r]:starts[r + 1]``. ``batch[i]`` is row i's ``ProxResult``,
    built when read; ``batch[rows]``, for an array of row indices, is the
    batch of those rows in that order."""

    value: np.ndarray
    x: np.ndarray
    x_value: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    row: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    @property
    def counts(self) -> np.ndarray:
        """The number of minimizers of each row."""
        return np.diff(self.starts)

    @property
    def first(self) -> np.ndarray:
        """Each row's first (least) minimizer."""
        return self.x[self.starts[:-1]]

    def __getitem__(self, i):
        if np.ndim(i):
            counts = self.counts[i]
            starts = np.concatenate(([0], np.cumsum(counts)))
            take = np.repeat(self.starts[i] - starts[:-1], counts) + np.arange(starts[-1])
            return ProxBatch(self.value[i], self.x[take], self.x_value[take], self.x_lo[take],
                             self.x_hi[take], np.repeat(np.arange(len(counts)), counts), starts)
        i = range(len(self))[i]
        run = slice(self.starts[i], self.starts[i + 1])
        cols = (a[run].tolist() for a in (self.x, self.x_value, self.x_lo, self.x_hi))
        return ProxResult(float(self.value[i]), tuple(map(MinimizerCluster, *cols)))


def _on_brackets(phi: Callable, rows, sel, x):
    """phi on the (brackets, points) array x of the brackets ``sel``: with
    their rows as a column, or at the points of x as one 1-D array."""
    if rows is None:
        return np.asarray(phi(x.ravel()), dtype=float).reshape(x.shape)
    return np.asarray(phi(x, rows[sel, None]), dtype=float)


def zoom(phi: Callable, a, b, rows: np.ndarray | None = None):
    """Minimize ``phi`` on every bracket [a_k, b_k] at once by value
    comparisons alone; returns the best point seen and its value per
    bracket, as arrays.

    Each round samples ``ZOOM_POINTS`` evenly spaced points in every open
    bracket and keeps the two cells around the best one (at least an 8-fold
    shrink); a bracket closes below ``X_RESOLUTION * max(1, |lo|, |hi|)``,
    the width at which ``grid_minimize`` merges basins. +inf values inside a
    bracket are tolerated, so brackets may straddle the edge of a domain.
    The value is final; a smooth interior minimizer is located only to
    about sqrt(eps) in x (``refine`` polishes it).

    ``phi`` is an array function of a 1-D x. With ``rows`` (one row index
    per bracket) it is called as ``phi(x, r)`` on the (brackets, points)
    block x, where the column ``r`` gives the row of each bracket, and
    returns the block of values broadcast against it (f and kappa still see
    1-D points: ``kernels._coerce``). Brackets never interact: each one gets
    the same result as when zoomed alone.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    x_best, v_best = a.copy(), np.full_like(a, np.inf)
    first = ZOOM_POINTS * np.arange(a.size)  # flat index of a round's first sample per bracket
    # the open brackets, their ends and widths, and their best points and values
    live, lo, hi, w, xb, vb = np.arange(a.size), a, b, b - a, a.copy(), v_best.copy()
    while live.size:
        x = lo[:, None] + w[:, None] * _ZOOM_STEPS
        x[:, -1] = hi
        v = _on_brackets(phi, rows, live, x)
        k = v.argmin(axis=1)
        i = k + first[:live.size]
        vk = v.take(i)
        better = vk < vb
        np.copyto(xb, x.take(i), where=better)
        np.copyto(vb, vk, where=better)
        lo, hi = x.take(i + _NEXT_ENDS[:, k])
        w = hi - lo
        # max(|lo|, |hi|) is max(hi, -lo) wherever lo <= hi, so wherever w > 0
        keep = w > X_RESOLUTION * np.maximum(1.0, np.maximum(hi, -lo))
        if np.count_nonzero(keep) < live.size:
            x_best[live[~keep]], v_best[live[~keep]] = xb[~keep], vb[~keep]
            live, lo, hi, w, xb, vb = (c[keep] for c in (live, lo, hi, w, xb, vb))
    return x_best, v_best


def refine(phi: Callable, a, b, rows: np.ndarray | None = None):
    """``zoom`` every bracket, then polish its best point for location;
    returns the point and its value per bracket, as arrays.

    The polish places smooth interior minimizers more finely than the
    sqrt(eps) that value comparisons allow: two rounds of parabolic steps
    on a shrinking stencil, each step accepted only when it does not
    increase the value, so kinks and boundary minimizers are left in place.
    It never raises a value, and on the catalog it lowers one by a few ulps
    at most, so a caller that reads only the value calls ``zoom`` (see
    ``grid_min_value``). Arguments and batching are those of ``zoom``, the
    polish's stencils a block too.
    """
    return _polish(phi, a, b, rows, *zoom(phi, a, b, rows))


def _polish(phi: Callable, a, b, rows, x, v):
    """Two rounds of parabolic polish of the bracket minima (x, v), in place."""
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    live = np.arange(a.size)
    for _ in range(2):
        live = live[(x[live] - h[live] > a[live]) & (x[live] + h[live] < b[live])]
        if not live.size:
            break
        xl, hl, vl = x[live], h[live], v[live]
        v1, v2 = _on_brackets(phi, rows, live, xl[:, None] + hl[:, None] * _STENCIL).T
        # a parabola needs finite values and positive curvature
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(v1) & np.isfinite(v2) & np.isfinite(vl) & (v1 - 2.0 * vl + v2 > 0.0)
        live, xl, hl, vl, v1, v2 = live[ok], xl[ok], hl[ok], vl[ok], v1[ok], v2[ok]
        if not live.size:
            break
        xn = np.clip(xl + 0.5 * (v1 - v2) / (v1 - 2.0 * vl + v2) * hl, a[live], b[live])
        vn = _on_brackets(phi, rows, live, xn[:, None])[:, 0]
        # near the minimum the true improvement is below float resolution of
        # the values; accept within rounding
        take = vn <= vl + 1e-14 * np.maximum(1.0, np.abs(vl))
        x[live[take]] = xn[take]
        v[live[take]] = np.minimum(vn, vl)[take]
        h[live] *= 0.3
    return x, v


def _tie_runs(values: np.ndarray, tol_tie: float):
    """(row, i0, i1, best, low) of every run of grid cells within ``tol_tie``
    of its row's minimum in a 2-D block, with its first least cell and value."""
    vmin = values.min(axis=1)
    if not np.isfinite(vmin).all():  # NaN, -inf or a row of +inf: mask the finite
        vmin = values.min(axis=1, where=np.isfinite(values), initial=np.inf)
        if np.isinf(vmin).any():
            raise AllInfiniteError("objective is +inf at every grid sample")
    # only indices and copies leave: ``values`` may be a buffer the next block overwrites
    n = values.shape[1] + 2
    tie = np.zeros((len(values), n), dtype=bool)  # padded: flat changes alternate start, end
    np.less_equal(values, (vmin + tol_tie)[:, None], out=tie[:, 1:-1])
    flat = tie.ravel()
    edge = np.flatnonzero(flat[1:] != flat[:-1])  # the cell before each change
    row, i0, i1 = edge[::2] // n, edge[::2] % n, edge[1::2] % n - 1
    # each run's first least cell, its cells compared offset by offset
    best, low = i0.copy(), values[row, i0]
    for k in range(1, int((i1 - i0).max()) + 1):
        c = np.minimum(i0 + k, i1)  # a run shorter than k repeats its last cell
        v = values[row, c]
        better = v < low
        best[better], low[better] = c[better], v[better]
    return row, i0, i1, best, low


def _grid_runs(phi: Callable, grid: Grid, values, search: Callable):
    """The shared front of ``grid_minimize`` and ``grid_min_value``: the tie
    runs of ``values`` (see ``grid_minimize``), each bracket searched by
    ``search`` from its run's best grid cell (phi's own sample: no call), all
    in one call, checked against the cap. Returns (single, n_rows, row, i0,
    i1, x, v), runs in row order."""
    xs = grid.points
    if values is None:
        values = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    single = isinstance(values, np.ndarray) and values.ndim == 1
    if isinstance(values, np.ndarray):
        values = [(0, np.atleast_2d(values))]
    scans, n_rows = [], 0
    for start, block in values:
        row, i0, i1, best, low = _tie_runs(block, DEFAULT_TOL_TIE)
        scans.append((row + n_rows, i0 + start, i1 + start, best + start, low))
        n_rows += len(block)
        del block  # free it before the generator builds the next one
    row, i0, i1, best, low = map(np.concatenate, zip(*scans))
    x, v = search(phi, xs[np.maximum(i0 - 1, 0)], xs[np.minimum(i1 + 1, len(xs) - 1)],
                  None if single else row)
    x, v = np.where(low <= v, xs[best], x), np.minimum(v, low)  # a tie keeps the cell
    if v.min() < -DEFAULT_UNBOUNDED_CAP:
        raise UnboundedBelowError(f"refined objective reached {v.min():.3e}")
    return single, n_rows, row, i0, i1, x, v


def grid_minimize(phi: Callable, grid: Grid,
                  values: np.ndarray | Iterable[np.ndarray] | None = None):
    """Global minimization of ``phi`` over ``grid`` with set-valued detection.

    The coarse grid locates every cell within ``DEFAULT_TOL_TIE`` of the
    minimum; each contiguous run of such cells is refined on its bracketing
    interval from its best cell, all runs in one ``refine`` call. The result
    keeps the refined basins within ``DEFAULT_TOL_TIE`` of the best one; two
    or more of them (``multiple``) is how set-valued proximal mappings are
    observed at grid resolution.

    ``phi`` is an array function of x; ``values`` may carry its samples on
    ``grid.points``. A 2-D ``values`` is a block of objectives, one per row,
    and an iterable of ``(start, block)`` pairs, each block on the columns
    from ``start`` on (a window holding every tie cell of its rows), is a
    batch of rows numbered across its blocks: they are scanned one at a time
    and only their tie runs kept (a block may be a buffer that the next one
    overwrites), so one block bounds the scan's memory, and every row is
    refined in the one ``refine`` call. With rows, ``phi`` is called as
    ``phi(x, rows)`` (see ``refine``) and the rows' ``ProxBatch`` returned;
    without, the one ``ProxResult``. A row with one tie run is its refined
    run as it stands; only a row with several is filtered and merged, run by
    run (``_merge_runs``).

    Raises ``AllInfiniteError`` if no sample of a row is finite,
    ``UnboundedBelowError`` if a value falls below ``-DEFAULT_UNBOUNDED_CAP``.
    """
    xs = grid.points
    single, n_rows, row, i0, i1, x_ref, v_ref = _grid_runs(phi, grid, values, refine)
    x_lo, x_hi = xs[i0], xs[i1]
    # runs come row by row: row r owns runs starts[r]:starts[r + 1]
    starts = np.searchsorted(row, np.arange(n_rows + 1))
    if starts[-1] > n_rows:  # a row with several runs
        keep = _merge_runs(x_ref, v_ref, x_hi, starts)
        x_ref, v_ref, x_lo, x_hi, row = (c[keep] for c in (x_ref, v_ref, x_lo, x_hi, row))
        starts = np.searchsorted(row, np.arange(n_rows + 1))
    batch = ProxBatch(np.minimum.reduceat(v_ref, starts[:-1]), x_ref, v_ref, x_lo, x_hi, row,
                      starts)
    return batch[0] if single else batch


def _merge_runs(x, v, hi, starts) -> np.ndarray:
    """Which tie runs stay where a row has several: those within
    ``DEFAULT_TOL_TIE`` of the row's best, less each refined into the point
    of the last run kept, which takes the better point and value and their
    joint extent (x, v and hi change in place). A row's runs come in grid
    order, so in nondecreasing x: a refined point lies in its run's bracket,
    and the brackets of two runs share at most an end."""
    keep = np.ones(x.size, dtype=bool)
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if b - a < 2:
            continue
        best, last = float(v[a:b].min()), None
        for j, xj, vj in zip(range(a, b), x[a:b].tolist(), v[a:b].tolist()):
            if vj > best + DEFAULT_TOL_TIE:
                keep[j] = False
            elif last is not None and abs(xj - x[last]) <= X_RESOLUTION * max(1.0, abs(xj)):
                keep[j] = False
                if vj < v[last]:
                    x[last], v[last] = xj, vj
                hi[last] = hi[j]
            else:
                last = j
    return keep


def grid_min_value(phi: Callable, grid: Grid,
                   values: np.ndarray | Iterable[np.ndarray] | None = None):
    """The least value of ``phi`` over ``grid``: ``grid_minimize``'s scan and
    tie runs, each run searched by ``zoom`` alone, since no location is
    read. A float, or a list of floats for a batch of rows; never below the
    ``grid_minimize`` value of the same row, and above it only by what the
    skipped polish would gain, a few ulps of the objective's largest term.
    Arguments and errors are those of ``grid_minimize``."""
    single, n_rows, row, _, _, _, v = _grid_runs(phi, grid, values, zoom)
    # every row owns at least one run, the runs in row order
    out = np.minimum.reduceat(v, np.searchsorted(row, np.arange(n_rows))).tolist()
    return out[0] if single else out


def concave_sup(phi: Callable, xs: np.ndarray, values: np.ndarray) -> float:
    """The greatest value of ``phi`` that a search finds on the two cells
    around the best finite sample of ``phi`` on ``xs`` (``values``), for a
    ``phi`` concave in the slope s that it returns with its values:
    ``phi(x)`` gives (values, s) at a 1-D x, s increasing in x.

    Each round samples ``ZOOM_POINTS`` evenly spaced points of the bracket
    and keeps the two cells around the best one, as ``zoom`` does. Concavity
    in s bounds the sup from above by the two chord extensions around each
    cell next to the best sample (the sandwich bound); the search stops once
    that bound is within ``SUP_STOP_ULPS`` ulps of max(1, |best|). Where no
    bound exists (the best sample among the two at either end of the
    bracket, samples that are not concave or not finite, or equal chord
    slopes) it goes on to ``zoom``'s width rule. Where a round's best
    sample improves on every earlier round at a bracket end that is not an
    end of ``xs``, the sup may lie past it, and the next bracket, as wide,
    is centred on that sample instead (never past the ends of ``xs``).

    Where the five samples around the best one also share one curvature c
    (``_parabola_bracket``), the next round is aimed instead (Brent's
    guarded parabolic step): its samples are spaced sqrt(tol / c) apart
    around the vertex of the parabola through the best three, tol being the
    stop's ulps, where the bound on a parabola lies tol/4 to tol/2 above the
    best sample and certifies at once. The aimed bracket must lie inside the
    zoom bracket it replaces; where its bound does not certify, the next
    round samples that zoom bracket, so a miss costs one round. Kinks and
    non-finite samples are zoomed round for round. Value only: no location
    is returned.
    """
    j = int(np.argmax(np.where(np.isfinite(values), values, -np.inf)))
    lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, len(xs) - 1)]
    best = -math.inf
    zoomed = None  # the zoom bracket that an aimed round replaced
    while True:
        x = lo + (hi - lo) * _ZOOM_STEPS
        x[-1] = hi
        v, s = (np.asarray(a, dtype=float) for a in phi(x))
        k = int(np.argmax(v))
        vk = float(v[k])
        gain, best = vk > best, max(best, vk)
        tol = SUP_STOP_ULPS * _EPS * max(1.0, abs(vk))
        if _sup_bound(v, s, k) - vk <= tol:
            return best
        if zoomed is not None:
            (lo, hi), zoomed = zoomed, None
            continue
        if gain and ((k == 0 and lo > xs[0]) or (k == ZOOM_POINTS - 1 and hi < xs[-1])):
            # a new best at an end inside xs: the sup may lie past it (the
            # values seeding the search may be coarser than phi), so the
            # next bracket, as wide, is centred on it; only a strictly new
            # best steps, so the steps cannot cycle
            half = 0.5 * (hi - lo)
            lo, hi = max(x[k] - half, xs[0]), min(x[k] + half, xs[-1])
            continue
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, ZOOM_POINTS - 1)]
        if not hi - lo > X_RESOLUTION * max(1.0, abs(lo), abs(hi)):
            return best
        aim = _parabola_bracket(x, v, k, tol)
        if aim is not None and lo < aim[0] and aim[1] < hi:
            zoomed, (lo, hi) = (lo, hi), aim


def _parabola_bracket(x: np.ndarray, v: np.ndarray, k: int, tol: float):
    """(lo, hi) of ``ZOOM_POINTS`` samples at spacing sqrt(tol / c)
    centred on the vertex of the parabola through the samples v[k-1 .. k+1]
    at the evenly spaced x, with v[k] the largest; None unless the five
    samples v[k-2 .. k+2] are finite and their three second differences are
    negative and agree within ``CURVATURE_SPREAD`` (one curvature c)."""
    if not 2 <= k <= len(v) - 3:
        return None
    w = v[k - 2:k + 3]
    if not np.isfinite(w).all():
        return None
    bend = 2.0 * w[1:-1] - w[:-2] - w[2:]  # -h^2 times the second differences
    if not (bend.min() > 0.0 and bend.max() <= CURVATURE_SPREAD * bend.min()):
        return None
    h = x[k + 1] - x[k]
    vertex = x[k] + 0.5 * h * (w[3] - w[1]) / bend[1]
    # c = bend / h^2: the second differences of the aimed samples are tol
    half = 0.5 * (ZOOM_POINTS - 1) * h * math.sqrt(tol / bend[1])
    return vertex - half, vertex + half


def _sup_bound(v: np.ndarray, s: np.ndarray, k: int) -> float:
    """An upper bound on a function concave in s over [s[k-1], s[k+1]],
    from its samples v at s[k-2 .. k+2] with v[k] the largest: on each cell
    next to k, the lower of the two chord extensions that reach over it.
    +inf where the five samples give none."""
    if not 2 <= k <= len(v) - 3:
        return math.inf
    v, s = v[k - 2:k + 3], s[k - 2:k + 3]
    if not (np.isfinite(v).all() and np.isfinite(s).all()):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.diff(s)
        c = np.diff(v) / d  # chord slopes, decreasing if concave
        # where the outer chord's extension meets the inner one's, per side
        t_left = d[1] * (c[0] - c[1]) / (c[0] - c[2])
        t_right = d[2] * (c[2] - c[3]) / (c[1] - c[3])
        bounds = np.array([v[2] - c[2] * t_left, v[2] + c[1] * t_right])
    if c[0] >= c[1] >= c[2] >= c[3] and np.isfinite(bounds).all():
        return float(bounds.max())
    return math.inf


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

    @cached_property
    def _slopes(self) -> np.ndarray:
        # s[k] is the slope between breakpoints k - 1 and k, -inf/+inf past the ends
        s = np.concatenate(([-math.inf], np.diff(self.vs) / np.diff(self.xs), [math.inf]))
        s.flags.writeable = False  # computed once per curve and shared by every call
        return s

    def segment_slopes(self) -> np.ndarray:
        return self._slopes[1:-1]

    def value(self, x):
        """Evaluate the curve (vectorized); +inf outside the finite span."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.vs)
        out = np.where((x < self.xs[0]) | (x > self.xs[-1]), np.inf, out)
        return float(out) if out.ndim == 0 else out

    def slopes_at(self, x, x_tol: float = 1e-12):
        """(left slope, right slope) of the curve at x, as floats for a float
        and arrays for an array; infinite at the span edges. A point within
        ``x_tol`` of a breakpoint (the first one first, then the last) takes
        the slopes on either side of it."""
        x = np.asarray(x, dtype=float)
        xs, m = self.xs, len(self.xs)
        if ((x < xs[0] - x_tol) | (x > xs[-1] + x_tol)).any():
            raise ValueError(f"{x} outside hull span")
        j = np.minimum(np.maximum(np.searchsorted(xs, x), 1), m - 1)  # xs[j-1] < x <= xs[j]
        first = x <= xs[0] + x_tol
        last = ~first & (x >= xs[-1] - x_tol)
        at_j = np.abs(x - xs[j]) <= x_tol
        at_prev = ~at_j & (np.abs(x - xs[j - 1]) <= x_tol)
        left = np.where(first, 0, np.where(last, m - 1, j - at_prev))
        right = left + (first | last | at_j | at_prev)
        if x.ndim == 0:
            return float(self._slopes[left]), float(self._slopes[right])
        return self._slopes[left], self._slopes[right]


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
                    domain: Interval | None = None) -> float:
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
    for _ in range(200):
        if flo <= target:
            break
        new = expand_left(lo)
        if new == lo:
            raise OutOfRangeError(f"target {target} below range of map")
        lo = new
        flo = m(lo)
    else:
        raise OutOfRangeError(f"target {target} below range of map")
    for _ in range(200):
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
        if abs(fmid - target) <= 1e-12 or (hi - lo) <= 1e-14:
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


@dataclass(frozen=True)
class Condition:
    """A named verdict, its worst sampled value and where that was attained."""

    label: str
    holds: bool
    worst: float
    witness: tuple = ()

    def to_dict(self):
        return {"label": self.label, "holds": bool(self.holds),
                "worst": float(self.worst),
                "witness": [float(w) for w in self.witness]}


def convexity_condition(label: str, xs: np.ndarray, vals: np.ndarray) -> Condition:
    """``second_difference_convexity_test`` of possibly partially-infinite
    samples, with ``TOL_CONV`` scaled by the largest finite |value| (at least 1)."""
    scale = float(np.max(np.abs(vals), where=np.isfinite(vals), initial=1.0))
    return Condition(label, *second_difference_convexity_test(xs, vals, TOL_CONV * scale))


def grid_conjugate(g: Callable, grid: Grid, eta: float) -> float:
    """g*(eta) = sup_x eta x - g(x) over ``grid``: minus ``grid_min_value`` of
    g(x) - eta x, with its errors (a sup past the cap, no finite sample)."""
    return -grid_min_value(lambda x: g(x) - float(eta) * x, grid)


def finite_diff_grad(phi: Callable, x, h: float):
    """Centered difference (phi(x+h) - phi(x-h)) / (2h) on a finite stencil,
    a float at a float x and an array at an array of them (``phi`` is then
    an array function). Raises ``DomainEdgeError`` naming the first point
    whose stencil holds a value that is not finite."""
    vp = np.asarray(phi(x + h), dtype=float)
    vm = np.asarray(phi(x - h), dtype=float)
    bad = ~(np.isfinite(vp) & np.isfinite(vm))
    if bad.any():
        at = x if bad.ndim == 0 else np.asarray(x)[bad][0]
        raise DomainEdgeError(f"stencil [{at - h}, {at + h}] leaves the finite domain")
    d = (vp - vm) / (2.0 * h)
    return float(d) if d.ndim == 0 else d
