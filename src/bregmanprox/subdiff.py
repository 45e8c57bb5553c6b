"""Left and right Bregman level proximal subdifferentials.

Two independent computation routes are provided and never allowed to validate
themselves against each other:

* the *definitional certificate*: a global support-type inequality checked on
  the working grid, its least slack found by ``numerics.grid_minimize``, and
* the *hull characterization*: subgradients read off the lower convex
  envelope of lam f + kappa, with per-side slopes refined by one-sided finite
  differences wherever the envelope touches the function (a chord side keeps
  the envelope segment slope).

Both routes take a float or an array of points and answer an array in one
batch, a point getting the same bits in a batch as alone: the hull route in
array arithmetic, the certificates by one ``grid_minimize`` of every slack
row, scanned in the engine's row blocks (the left slack is the left-prox
objective with the slope grad kappa(xbar) + lam u, up to a constant).

The single-valuedness test reads the hull route. The resolvent and
coincidence checks, which read both routes, are theorem reports in
``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .catalog import Instance
from .errors import AllInfiniteError, UnboundedBelowError
from .extreal import Interval
from .proxenv import InstanceEngine, engine

__all__ = [
    "TOL_CERT", "TOL_HULL", "TOL_WIDTH", "is_singleton",
    "left_lpsubdiff_definitional", "left_lpsubdiff_hull",
    "right_lpsubdiff_definitional",
    "single_valuedness_at", "SingleValuedness",
    "frechet_lower_probe", "subdiff_samples", "monotone_related",
]

# Certificate slack, hull-touching gap, and singleton width tolerances: an
# order above grid interpolation error for 2001-point grids on unit domains.
TOL_CERT = 1e-6
TOL_HULL = 1e-6
TOL_WIDTH = 1e-4

_PROBE_AT = 1e3  # least distance from 0 of the probe of an unbounded end

_SPAN_CELLS = 0.5  # points this many grid cells past the hull span count as on its edge


def is_singleton(s: Interval) -> bool:
    """s is nonempty and no wider than ``TOL_WIDTH``."""
    return s.hi - s.lo <= TOL_WIDTH


# ---------------------------------------------------------------------------
# Definitional certificates
# ---------------------------------------------------------------------------

def _rows(a, b):
    """The 1-D float rows of two points or arrays, broadcast together."""
    return map(np.ravel, np.broadcast_arrays(np.asarray(a, dtype=float),
                                             np.asarray(b, dtype=float)))


def _certify(eng: InstanceEngine, a, b, pts, ok, slack, grid: numerics.Grid):
    """(member, worst slack, witness) of the rows ``pts`` of ``a`` and ``b``:
    floats for two points, 1-D arrays otherwise.

    A row that is not ``ok`` gives (False, -inf, its point). The others,
    which ``slack(x, rows)`` numbers among themselves, take their least
    slack over ``grid`` and its first minimizer (``_least_slack``).
    """
    worst, witness = np.full(pts.size, -np.inf), pts.copy()
    if ok.any():
        worst[ok], witness[ok] = _least_slack(eng, slack, grid, int(ok.sum()))
    member = worst >= -TOL_CERT
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return bool(member[0]), float(worst[0]), float(witness[0])
    return member, worst, witness


def _least_slack(eng: InstanceEngine, slack, grid: numerics.Grid, n: int):
    """(least slack, first minimizer) of ``n`` slack rows, as arrays, by one
    ``grid_minimize`` over the engine's row blocks, or row by row if that
    raises: no finite sample gives (inf, nan), a slack past the cap its least
    grid sample, at most -``DEFAULT_UNBOUNDED_CAP``, and that sample's point."""
    blocks = ((0, slack(grid.points, rows)) for rows in eng._row_blocks(n))
    try:
        res = numerics.grid_minimize(slack, grid, values=blocks)
    except (AllInfiniteError, UnboundedBelowError) as exc:
        if n > 1:
            alone = [_least_slack(eng, lambda x, rows, r=r: slack(x, rows + r), grid, 1)
                     for r in range(n)]
            return tuple(map(np.concatenate, zip(*alone)))
        if isinstance(exc, AllInfiniteError):
            return np.array([math.inf]), np.array([math.nan])
        vals = slack(grid.points, np.zeros((1, 1), dtype=np.intp))[0]
        j = int(np.argmin(np.where(np.isfinite(vals), vals, np.inf)))
        return np.array([min(vals[j], -numerics.DEFAULT_UNBOUNDED_CAP)]), grid.points[[j]]
    return np.array([r.value for r in res]), np.array([r.clusters[0].x for r in res])


def left_lpsubdiff_definitional(inst: Instance, xbar, u):
    """Certificate that u is a level proximal subgradient of f at xbar, for
    one (xbar, u) or for arrays of them, broadcast together.

    Tests f(x) >= f(xbar) + u (x - xbar) - D(x, xbar)/lam over the domain
    grid. Returns (member, worst_slack, witness_x), three 1-D arrays for
    arrays: the least slack and the first minimizer that ``grid_minimize``
    keeps (within ``DEFAULT_TOL_TIE`` of it), or past the unbounded cap as
    in ``_least_slack``. Membership requires xbar interior to the kernel
    domain and worst slack >= -TOL_CERT; other points give (False, -inf, xbar).
    """
    eng = engine(inst)
    xb, uu = _rows(xbar, u)
    fxb = eng.fn.eval(xb)
    ok = eng.kernel.domain.interior_contains(xb) & np.isfinite(fxb)
    xb_ok, u_ok, fxb = xb[ok], uu[ok], fxb[ok]
    kxb, gxb = eng.kernel.eval(xb_ok), eng.kernel.grad(xb_ok)

    def slack(x, rows):
        fx, kx = eng.fk(x)
        dx = x - xb_ok[rows]
        return fx - fxb[rows] - u_ok[rows] * dx + (kx - kxb[rows] - gxb[rows] * dx) / eng.lam

    return _certify(eng, xbar, u, xb, ok, slack, eng.x_grid)


def right_lpsubdiff_definitional(inst: Instance, ybar, v):
    """Certificate for the right subdifferential of g at interior ybar, for
    one (ybar, v) or for arrays of them, broadcast together.

    Tests g(y) >= g(ybar) + v (grad kappa(y) - grad kappa(ybar)) - D(ybar, y)/lam
    over the interior grid; (member, worst_slack, witness_y) as on the left.
    """
    eng = engine(inst)
    yb, vv = _rows(ybar, v)
    eng.check_interior(yb)
    gyb = eng.fn.eval(yb)
    ok = np.isfinite(gyb)
    yb_ok, v_ok, gyb = yb[ok], vv[ok], gyb[ok]
    kyb, grad_yb = eng.kernel.eval(yb_ok), eng.kernel.grad(yb_ok)

    def slack(y, rows):
        ky, gy = eng.kg(y)
        d = kyb[rows] - ky - gy * (yb_ok[rows] - y)
        return eng.fn.eval(y) - gyb[rows] - v_ok[rows] * (gy - grad_yb[rows]) + d / eng.lam

    return _certify(eng, ybar, v, yb, ok, slack, eng.y_grid)


# ---------------------------------------------------------------------------
# Hull characterization
# ---------------------------------------------------------------------------

def hull_slopes(inst: Instance, xbar):
    """(left slope, right slope, touching gap) of conv(lam f + kappa) at
    xbar: floats for a float, 1-D arrays for an array.

    Near the span edge a side's slope is unbounded. Otherwise the adjacent
    grid point decides between a *contact* side (envelope touches the
    function, so the second-order one-sided difference of lam f + kappa on
    a finite stencil, of step 1e-6 or else 1e-8, is the slope) and a *chord*
    side (the envelope segment slope is already exact; it is read at xbar
    clipped to the span).
    """
    eng = engine(inst)
    curve = eng.hull_curve()
    x = np.atleast_1d(np.asarray(xbar, dtype=float))
    h, reach = eng.x_grid.h, _SPAN_CELLS * eng.x_grid.h
    # lam f + kappa and its gap above the envelope (NaN where both are +inf)
    # at x, then at the grid neighbours x - h and x + h of the two sides
    pts = np.array([x, x - h, x + h])
    phi, conv = eng.tilted(pts.ravel()).reshape(pts.shape), curve.value(pts)
    gap = np.subtract(phi, conv, out=np.full_like(phi, np.nan),
                      where=~(np.isinf(phi) & np.isinf(conv)))
    # one row per side, left then right
    edge = np.array([x <= curve.x_min + reach, x >= curve.x_max - reach])
    side_gap = gap[1:]
    contact = ~edge & np.isfinite(side_gap) & (
        side_gap <= np.maximum(1e-8 * (1.0 + np.abs(phi[1:])) + 1e-12, TOL_HULL))
    s = np.full((2, x.size), np.nan)
    for step in (1e-6, 1e-8):
        todo = np.flatnonzero(contact & np.isnan(s))
        if not todo.size:
            break
        sg = np.where(todo < x.size, -1.0, 1.0)
        stencil = x[todo % x.size, None] + sg[:, None] * step * np.arange(3.0)
        v = eng.tilted(stencil.ravel()).reshape(-1, 3)
        fin = np.isfinite(v).all(axis=1)
        v, sg = v[fin], sg[fin]
        s.flat[todo[fin]] = sg * (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * step)
    chord = ~edge & ~np.isfinite(s)
    if chord.any():
        read = curve.slopes_at(np.clip(x, curve.x_min, curve.x_max), x_tol=0.25 * h)
        s = np.where(chord, np.stack(read), s)
    s_l, s_r = np.where(edge, np.array([[-math.inf], [math.inf]]), s)
    # refinement jitter can cross; collapse
    cross = np.isfinite(s_l) & np.isfinite(s_r) & (s_l > s_r)
    s_l[cross] = s_r[cross] = 0.5 * (s_l[cross] + s_r[cross])
    if np.ndim(xbar) == 0:
        return float(s_l[0]), float(s_r[0]), float(gap[0, 0])
    return s_l, s_r, gap[0]


def left_lpsubdiff_hull(inst: Instance, xbar) -> Interval | list[Interval]:
    """Subdifferential via the convex-hull characterization, at one point
    (an ``Interval``) or at each of an array of points (a list).

    Empty when the envelope of lam f + kappa lies strictly below the function
    at xbar; otherwise the slope interval of the envelope mapped through
    u = (s - grad kappa(xbar)) / lam.
    """
    sets = _hull_route(inst, np.atleast_1d(np.asarray(xbar, dtype=float)))[0]
    return sets[0] if np.ndim(xbar) == 0 else sets


def _hull_route(inst: Instance, x: np.ndarray):
    """(hull-route sets at the points of the 1-D array x, the ``hull_slopes``
    read there)."""
    eng = engine(inst)
    eng.require()
    curve = eng.hull_curve()
    slopes = s_l, s_r, gap = hull_slopes(inst, x)
    tol = _SPAN_CELLS * eng.x_grid.h
    ok = np.nonzero(eng.kernel.domain.interior_contains(x) & (x >= curve.x_min - tol)
                    & (x <= curve.x_max + tol) & (gap <= TOL_HULL))[0]
    # rows u_lo, u_hi; an unbounded end stays where one certificate batch
    # accepts its probe, and is cut open there otherwise. The probe lies
    # _PROBE_AT out, or twice as far out as the other end if that is
    # further, so it never crosses the other end, however f is scaled
    ends = (np.array([s_l[ok], s_r[ok]]) - eng.kernel.grad(x[ok])) / eng.lam
    cut = np.isinf(ends)
    if cut.any():
        probes = np.array([np.minimum(-_PROBE_AT, 2.0 * ends[1]),
                           np.maximum(_PROBE_AT, 2.0 * ends[0])])
        cut[cut] = ~left_lpsubdiff_definitional(
            inst, np.broadcast_to(x[ok], ends.shape)[cut], probes[cut])[0]
        ends[cut] = probes[cut]
    sets = [Interval.empty()] * x.size
    for i, lo, hi, lo_cut, hi_cut in zip(ok.tolist(), *ends.tolist(), *cut.tolist()):
        sets[i] = Interval(lo, hi, not lo_cut, not hi_cut)
    return sets, slopes


def subdiff_samples(s: Interval) -> list[float]:
    """Representative subgradients of an interval set: endpoints and midpoint.

    Infinite endpoints are replaced by a finite stand-in one unit beyond.
    """
    if s.is_empty:
        return []
    lo = s.lo if math.isfinite(s.lo) else (s.hi if math.isfinite(s.hi) else 0.0) - 1.0
    hi = s.hi if math.isfinite(s.hi) else (s.lo if math.isfinite(s.lo) else 0.0) + 1.0
    if hi - lo <= TOL_WIDTH:
        return [0.5 * (lo + hi)]
    return [lo, 0.5 * (lo + hi), hi]


def frechet_lower_probe(inst: Instance, xbar: float, u: float) -> bool:
    """Local lower-expansion test: f(x) >= f(xbar) + u (x - xbar) - o(|x - xbar|).

    On each shrinking radius the worst local slack must be bounded below by a
    quadratic in the radius (the Bregman term itself is quadratic locally).
    """
    eng = engine(inst)
    fx = eng.fn.eval(xbar)
    if not math.isfinite(fx):
        return False
    h = 1e-5
    vp, v0, vm = map(float, eng.tilted(xbar + h * np.array([1.0, 0.0, -1.0])))
    kdd = abs(vp - 2.0 * v0 + vm) / h ** 2
    c = 10.0 * (1.0 + kdd) / eng.lam
    for r in (1e-2, 1e-3, 1e-4):
        ts = np.linspace(-r, r, 41)
        fv = eng.fn.eval(xbar + ts)
        finite = np.isfinite(fv)
        worst = float((fv[finite] - fx - u * ts[finite]).min()) if finite.any() else math.inf
        if worst < -(c * r * r + 1e-9):
            return False
    return True


def monotone_related(graph_pairs, x: float, u: float) -> bool:
    """(x, u) is monotonically related to every pair in ``graph_pairs``, up
    to 1e-9; a pair at x itself always is, an infinite ui included."""
    return all(x == xi or (x - xi) * (u - ui) >= -1e-9 for xi, ui in graph_pairs)


# ---------------------------------------------------------------------------
# Single-valuedness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleValuedness:
    empty: bool
    single: bool | None
    hull_differentiable: bool
    hull_touches: bool

    @property
    def equivalence_consistent(self) -> bool:
        """singleton <=> (differentiable and touching), vacuous when empty."""
        if self.empty:
            return True
        return self.single == (self.hull_differentiable and self.hull_touches)


def single_valuedness_at(inst: Instance, xbar: float) -> SingleValuedness:
    """Singleton test of the hull-route subdifferential at xbar, from one
    evaluation of ``hull_slopes``."""
    (subdiff,), slopes = _hull_route(inst, np.array([float(xbar)]))
    s_l, s_r, gap = (float(a[0]) for a in slopes)
    touches = gap <= TOL_HULL
    width_u = (s_r - s_l) / inst.lam
    differentiable = math.isfinite(s_l) and math.isfinite(s_r) and width_u <= TOL_WIDTH
    if subdiff.is_empty:
        return SingleValuedness(True, None, differentiable, touches)
    return SingleValuedness(False, is_singleton(subdiff), differentiable, touches)
