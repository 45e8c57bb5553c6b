"""Left and right Bregman level proximal subdifferentials.

Two independent computation routes are provided and never allowed to validate
themselves against each other:

* the *definitional certificate*: a global support-type inequality checked on
  the working grid with local refinement of the worst slack, and
* the *hull characterization*: subgradients read off the lower convex
  envelope of lam f + kappa, with per-side slopes refined by one-sided finite
  differences wherever the envelope touches the function (a chord side keeps
  the envelope segment slope).

The single-valuedness test reads the hull route. The resolvent and
coincidence checks, which read both routes, are theorem reports in
``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Instance
from .extreal import Interval
from .numerics import refine_best
from .proxenv import InstanceEngine, engine

__all__ = [
    "SubdiffSet", "TOL_CERT", "TOL_HULL", "TOL_WIDTH",
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

_PROBE_MEMBER_AT = -1e3  # corroboration probe for an unbounded lower endpoint

_SPAN_CELLS = 0.5  # points this many grid cells past the hull span count as on its edge


@dataclass(frozen=True)
class SubdiffSet:
    """Value of a set-valued subdifferential at a point: empty or an interval."""

    lo: float = math.nan
    hi: float = math.nan
    lo_closed: bool = False
    hi_closed: bool = False
    is_empty: bool = True

    @staticmethod
    def empty() -> "SubdiffSet":
        return SubdiffSet()

    @staticmethod
    def interval(lo: float, hi: float, lo_closed: bool = True,
                 hi_closed: bool = True) -> "SubdiffSet":
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if math.isinf(lo):
            lo_closed = False
        if math.isinf(hi):
            hi_closed = False
        return SubdiffSet(lo, hi, lo_closed, hi_closed, is_empty=False)

    @staticmethod
    def singleton(u: float) -> "SubdiffSet":
        return SubdiffSet.interval(u, u)

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    @property
    def is_singleton(self) -> bool:
        return (not self.is_empty) and self.width <= TOL_WIDTH

    def contains(self, u: float) -> bool:
        return not self.is_empty and \
            Interval(self.lo, self.hi, self.lo_closed, self.hi_closed).contains(u)


# ---------------------------------------------------------------------------
# Definitional certificates
# ---------------------------------------------------------------------------

def _refined_min_slack(slack, xs: np.ndarray) -> tuple[float, float]:
    """(worst slack, witness) of the array function ``slack`` over ``xs``,
    refined around the worst sample."""
    vals = slack(xs)
    finite = np.isfinite(vals)
    if not finite.any():
        return math.inf, math.nan
    x_ref, v_ref = refine_best(slack, xs, vals)
    j = int(np.argmin(np.where(finite, vals, np.inf)))
    if vals[j] < v_ref:
        x_ref, v_ref = float(xs[j]), float(vals[j])
    return v_ref, x_ref


def left_lpsubdiff_definitional(inst: Instance, xbar: float, u: float,
                                tol: float = TOL_CERT):
    """Certificate that u is a level proximal subgradient of f at xbar.

    Tests f(x) >= f(xbar) + u (x - xbar) - D(x, xbar)/lam over the domain
    grid, refining the worst slack. Returns (member, worst_slack, witness_x);
    membership requires xbar interior to the kernel domain and worst slack
    >= -tol. Points outside the interior are non-members by definition.
    """
    eng = engine(inst)
    xbar, u = float(xbar), float(u)
    if not eng.kernel.domain.interior_contains(xbar):
        return False, -math.inf, xbar
    fxbar = float(eng.fn.eval(xbar))
    if not math.isfinite(fxbar):
        return False, -math.inf, xbar
    kxbar = float(eng.kernel.eval(xbar))
    gxbar = eng.kernel.grad(xbar)

    def slack(x):
        fx, kx = eng.fk(x)
        dx = x - xbar
        return fx - fxbar - u * dx + (kx - kxbar - gxbar * dx) / eng.lam

    worst, witness = _refined_min_slack(slack, eng.X)
    return worst >= -tol, worst, witness


def right_lpsubdiff_definitional(inst: Instance, ybar: float, v: float,
                                 tol: float = TOL_CERT):
    """Certificate for the right subdifferential of g at interior ybar.

    Tests g(y) >= g(ybar) + v (grad kappa(y) - grad kappa(ybar)) - D(ybar, y)/lam
    over the interior grid. Returns (member, worst_slack, witness_y).
    """
    eng = engine(inst)
    ybar, v = float(ybar), float(v)
    eng.check_interior(ybar)
    gybar = float(eng.fn.eval(ybar))
    if not math.isfinite(gybar):
        return False, -math.inf, ybar
    kybar = float(eng.kernel.eval(ybar))
    grad_ybar = eng.kernel.grad(ybar)

    def slack(y):
        ky, gy = eng.kg(y)
        d = kybar - ky - gy * (ybar - y)
        return eng.fn.eval(y) - gybar - v * (gy - grad_ybar) + d / eng.lam

    worst, witness = _refined_min_slack(slack, eng.Y)
    return worst >= -tol, worst, witness


# ---------------------------------------------------------------------------
# Hull characterization
# ---------------------------------------------------------------------------

def _one_sided_slope(eng: InstanceEngine, x: float, side: str) -> float:
    """Second-order one-sided derivative of lam f + kappa at x."""
    sgn = -1.0 if side == "left" else 1.0
    for step in (1e-6, 1e-8):
        v0, v1, v2 = map(float, eng.tilted(x + sgn * step * np.arange(3.0)))
        if all(map(math.isfinite, (v0, v1, v2))):
            return sgn * (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * step)
    return math.nan


def _hull_gap(eng: InstanceEngine, x: float) -> float:
    """(lam f + kappa)(x) minus the lower convex envelope at x."""
    return float(eng.tilted(x)) - float(eng.hull_curve().value(x))


def _side_slope(eng: InstanceEngine, curve, xbar: float, side: str) -> float:
    """Refined slope of conv(lam f + kappa) at xbar on one side.

    Near the span edge the slope is unbounded. Otherwise the adjacent grid
    point decides between a *contact* side (envelope touches the function,
    so the exact one-sided derivative of lam f + kappa is the slope) and a
    *chord* side (the envelope segment slope is already exact; it is read at
    xbar clipped to the span).
    """
    h = eng.x_grid.h
    if side == "left" and xbar <= curve.x_min + _SPAN_CELLS * h:
        return -math.inf
    if side == "right" and xbar >= curve.x_max - _SPAN_CELLS * h:
        return math.inf
    probe = xbar - h if side == "left" else xbar + h
    gap = _hull_gap(eng, probe)
    tol_contact = 1e-8 * (1.0 + abs(float(eng.tilted(probe)))) + 1e-12
    if math.isfinite(gap) and gap <= max(tol_contact, TOL_HULL):
        s = _one_sided_slope(eng, xbar, side)
        if math.isfinite(s):
            return s
    sl, sr = curve.slopes_at(min(max(xbar, curve.x_min), curve.x_max), x_tol=0.25 * h)
    return sl if side == "left" else sr


def hull_slopes(inst: Instance, xbar: float) -> tuple[float, float, float]:
    """(left slope, right slope, touching gap) of conv(lam f + kappa) at xbar."""
    eng = engine(inst)
    curve = eng.hull_curve()
    gap = _hull_gap(eng, float(xbar))
    s_l = _side_slope(eng, curve, float(xbar), "left")
    s_r = _side_slope(eng, curve, float(xbar), "right")
    if math.isfinite(s_l) and math.isfinite(s_r) and s_l > s_r:
        mid = 0.5 * (s_l + s_r)  # refinement jitter can cross; collapse
        s_l = s_r = mid
    return s_l, s_r, gap


def left_lpsubdiff_hull(inst: Instance, xbar: float,
                        tol_hull: float = TOL_HULL) -> SubdiffSet:
    """Subdifferential via the convex-hull characterization.

    Empty when the envelope of lam f + kappa lies strictly below the function
    at xbar; otherwise the slope interval of the envelope mapped through
    u = (s - grad kappa(xbar)) / lam.
    """
    return _hull_route(inst, float(xbar), tol_hull)[0]


def _hull_route(inst: Instance, xbar: float, tol_hull: float):
    """(hull-route set at xbar, the ``hull_slopes`` read there or None)."""
    eng = engine(inst)
    eng.require()
    if not eng.kernel.domain.interior_contains(xbar):
        return SubdiffSet.empty(), None
    curve = eng.hull_curve()
    tol = _SPAN_CELLS * eng.x_grid.h
    if xbar < curve.x_min - tol or xbar > curve.x_max + tol:
        return SubdiffSet.empty(), None
    slopes = s_l, s_r, gap = hull_slopes(inst, xbar)
    if not gap <= tol_hull:
        return SubdiffSet.empty(), slopes
    g = eng.kernel.grad(xbar)
    lam = eng.lam
    u_lo, u_hi = (s_l - g) / lam, (s_r - g) / lam
    lo_closed, hi_closed = True, True
    if math.isinf(u_lo):
        member, _, _ = left_lpsubdiff_definitional(inst, xbar, _PROBE_MEMBER_AT)
        if not member:
            u_lo, lo_closed = _PROBE_MEMBER_AT, False
    if math.isinf(u_hi):
        member, _, _ = left_lpsubdiff_definitional(inst, xbar, -_PROBE_MEMBER_AT)
        if not member:
            u_hi, hi_closed = -_PROBE_MEMBER_AT, False
    return SubdiffSet.interval(u_lo, u_hi, lo_closed, hi_closed), slopes


def subdiff_samples(s: SubdiffSet) -> list[float]:
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
    fx = float(eng.fn.eval(xbar))
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
    to 1e-9."""
    return all((x - xi) * (u - ui) >= -1e-9 for xi, ui in graph_pairs)


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
    subdiff, slopes = _hull_route(inst, float(xbar), TOL_HULL)
    s_l, s_r, gap = slopes or hull_slopes(inst, float(xbar))
    touches = gap <= TOL_HULL
    width_u = (s_r - s_l) / inst.lam
    differentiable = math.isfinite(s_l) and math.isfinite(s_r) and width_u <= TOL_WIDTH
    if subdiff.is_empty:
        return SingleValuedness(True, None, differentiable, touches)
    return SingleValuedness(False, subdiff.is_singleton, differentiable, touches)
