"""Left and right Bregman level proximal subdifferentials.

Two independent computation routes are provided and never allowed to validate
themselves against each other:

* the *definitional certificate*: a global support-type inequality checked on
  the working grid with local refinement of the worst slack, and
* the *hull characterization*: subgradients read off the lower convex
  envelope of lam f + kappa, with per-side slopes refined by one-sided finite
  differences wherever the envelope touches the function (a chord side keeps
  the envelope segment slope).

The resolvent check, single-valuedness test, and coincidence report are built
on both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Instance
from .errors import HypothesesUnmetError, RangeAssumptionFailedError
from .numerics import refine_best, sample_inset
from .proxenv import InstanceEngine, engine, range_assumption, require_hypotheses

__all__ = [
    "SubdiffSet", "TOL_CERT", "TOL_HULL", "TOL_WIDTH",
    "left_lpsubdiff_definitional", "left_lpsubdiff_hull",
    "right_lpsubdiff_definitional", "resolvent_check",
    "single_valuedness_at", "SingleValuedness",
    "coincidence_check", "CoincidenceReport",
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

    def contains(self, u: float, tol: float = 0.0) -> bool:
        if self.is_empty:
            return False
        if u < self.lo - tol or u > self.hi + tol:
            return False
        return True


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
        return eng.fn.eval_many(y) - gybar - v * (gy - grad_ybar) + d / eng.lam

    worst, witness = _refined_min_slack(slack, eng.Y)
    return worst >= -tol, worst, witness


# ---------------------------------------------------------------------------
# Hull characterization
# ---------------------------------------------------------------------------

def _one_sided_slope(eng: InstanceEngine, x: float, side: str,
                     h: float = 1e-6) -> float:
    """Second-order one-sided derivative of lam f + kappa at x."""
    sgn = -1.0 if side == "left" else 1.0
    for step in (h, h * 1e-2):
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
    u = (s - grad kappa(xbar)) / lam, intersected with the gradient-range
    constraint when the kernel gradient is not onto.
    """
    require_hypotheses(inst)
    eng = engine(inst)
    xbar = float(xbar)
    if not eng.kernel.domain.interior_contains(xbar):
        return SubdiffSet.empty()
    curve = eng.hull_curve()
    tol = _SPAN_CELLS * eng.x_grid.h
    if xbar < curve.x_min - tol or xbar > curve.x_max + tol:
        return SubdiffSet.empty()
    s_l, s_r, gap = hull_slopes(inst, xbar)
    if not gap <= tol_hull:
        return SubdiffSet.empty()
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
    # gradient-range filter: lam u + grad kappa(xbar) must be attainable
    rng = eng.kernel.grad_range
    if not rng.is_all_reals:
        r_lo, r_hi = (rng.lo - g) / lam, (rng.hi - g) / lam
        if u_lo < r_lo or (u_lo == r_lo and lo_closed and not rng.lo_closed):
            u_lo, lo_closed = r_lo, rng.lo_closed
        if u_hi > r_hi or (u_hi == r_hi and hi_closed and not rng.hi_closed):
            u_hi, hi_closed = r_hi, rng.hi_closed
        if u_lo > u_hi or (u_lo == u_hi and not (lo_closed and hi_closed)):
            return SubdiffSet.empty()
    return SubdiffSet.interval(u_lo, u_hi, lo_closed, hi_closed)


def subdiff_samples(s: SubdiffSet, pad: float = 1.0) -> list[float]:
    """Representative subgradients of an interval set: endpoints and midpoint.

    Infinite endpoints are replaced by a padded finite stand-in.
    """
    if s.is_empty:
        return []
    lo = s.lo if math.isfinite(s.lo) else (s.hi if math.isfinite(s.hi) else 0.0) - pad
    hi = s.hi if math.isfinite(s.hi) else (s.lo if math.isfinite(s.lo) else 0.0) + pad
    if hi - lo <= TOL_WIDTH:
        return [0.5 * (lo + hi)]
    return [lo, 0.5 * (lo + hi), hi]


def frechet_lower_probe(inst: Instance, xbar: float, u: float,
                        radii=(1e-2, 1e-3, 1e-4)) -> bool:
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
    for r in radii:
        ts = np.linspace(-r, r, 41)
        fv = eng.fn.eval_many(xbar + ts)
        finite = np.isfinite(fv)
        worst = float((fv[finite] - fx - u * ts[finite]).min()) if finite.any() else math.inf
        if worst < -(c * r * r + 1e-9):
            return False
    return True


# ---------------------------------------------------------------------------
# Resolvent representation check
# ---------------------------------------------------------------------------

def resolvent_check(inst: Instance, seed: int = 0, n: int = 20,
                    ybar_values=None) -> float:
    """Max violation of the warped-resolvent representation in both directions.

    Forward: every prox output xbar at sampled ybar must carry the certificate
    u = (grad kappa(ybar) - grad kappa(xbar)) / lam. Converse: subgradients
    sampled at xbar must reproduce xbar as a prox output at the warped point
    grad kappa*(lam u + grad kappa(xbar)).

    Raises ``RangeAssumptionFailedError`` when a sampled prox output is not
    strictly interior (the representation's standing assumption).
    """
    eng = engine(inst)
    if ybar_values is None:
        ybar_values = sample_inset(np.random.default_rng(seed),
                                   eng.y_grid.lo, eng.y_grid.hi, n)
    try:
        require_hypotheses(inst)
        hull_available = True
    except HypothesesUnmetError:
        hull_available = False
    ys = np.atleast_1d(np.asarray(ybar_values, dtype=float)).tolist()
    results = eng.prox_many(ys)
    bad = [(y, m) for y, res in zip(ys, results)
           for m, ok in zip(res.minimizers, res.in_interior) if not ok]
    if bad:
        raise RangeAssumptionFailedError(
            f"{inst.name}: prox output left the interior at {len(bad)} samples",
            witnesses=bad)
    # violations in sampling order; a converse term waits for its envelope,
    # and all envelopes are solved as one block
    terms, converse = [], []
    for y, res in zip(ys, results):
        gy = eng.kernel.grad(y)
        for m in res.minimizers:
            u = (gy - eng.kernel.grad(m)) / eng.lam
            member, slack, _ = left_lpsubdiff_definitional(inst, m, u)
            if not member:
                terms.append(-slack)
            us = subdiff_samples(left_lpsubdiff_hull(inst, m)) if hull_available else [u]
            for u2 in us:
                eta = eng.lam * u2 + eng.kernel.grad(m)
                if not eng.kernel.grad_range.contains(eta):
                    continue
                y2 = eng.kernel.grad_conj(eta)
                if not eng.kernel.domain.interior_contains(y2):
                    continue
                d = float(eng.kernel.eval(m)) - float(eng.kernel.eval(y2)) \
                    - eng.kernel.grad(y2) * (m - y2)
                converse.append((len(terms), y2))
                terms.append(float(eng.fn.eval(m)) + d / eng.lam)
    for (k, _), env2 in zip(converse, eng.env_many([y2 for _, y2 in converse]).tolist()):
        terms[k] -= env2
    return max([0.0] + terms)


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
    """Singleton test of the hull-route subdifferential at xbar."""
    require_hypotheses(inst)
    s_l, s_r, gap = hull_slopes(inst, float(xbar))
    touches = gap <= TOL_HULL
    width_u = (s_r - s_l) / inst.lam
    differentiable = math.isfinite(s_l) and math.isfinite(s_r) and width_u <= TOL_WIDTH
    subdiff = left_lpsubdiff_hull(inst, xbar)
    if subdiff.is_empty:
        return SingleValuedness(True, None, differentiable, touches)
    return SingleValuedness(False, subdiff.is_singleton, differentiable, touches)


# ---------------------------------------------------------------------------
# Coincidence report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoincidenceReport:
    env_shift_constant: bool     # (a)
    hull_shift_constant: bool    # (b)
    prox_graphs_equal: bool      # (c)
    subdiff_graphs_equal: bool   # (d)
    env_shift: float
    hull_shift: float
    implications: tuple          # (name, asserted, holds)

    @property
    def violated(self) -> list[str]:
        return [name for name, asserted, holds in self.implications
                if asserted and not holds]


def _critical_etas(eng: InstanceEngine, min_cells: int = 3) -> list[float]:
    """Slopes of long envelope segments: the etas where prox is set-valued."""
    curve = eng.hull_curve()
    h = eng.x_grid.h
    return [float(s) for dx, s in zip(np.diff(curve.xs), curve.segment_slopes())
            if dx > min_cells * h]


def _cluster_sets_equal(a, b, x_tol: float, w_tol: float) -> bool:
    if len(a) != len(b):
        return False
    for ca, cb in zip(a, b):
        if abs(ca.x - cb.x) > x_tol:
            return False
        if abs((ca.x_hi - ca.x_lo) - (cb.x_hi - cb.x_lo)) > w_tol:
            return False
    return True


def coincidence_check(inst_a: Instance, inst_b: Instance, seed: int = 0,
                      n_samples: int = 30, tol: float = 1e-5) -> CoincidenceReport:
    """Compare two instances over the same kernel and lambda.

    Checks whether the envelopes and hulls differ by constants and whether
    the prox and subdifferential graphs agree on sampled points; sampling
    includes the chord slopes of both envelopes, where set-valuedness and
    graph differences concentrate. subdiff-equal => prox-equal is asserted
    when both instances meet their cached ``range_assumption``.
    """
    if inst_a.kernel is not inst_b.kernel or inst_a.lam != inst_b.lam:
        raise ValueError("coincidence requires the same kernel and lambda")
    eng_a, eng_b = engine(inst_a), engine(inst_b)
    kernel, lam = inst_a.kernel, inst_a.lam
    rng = np.random.default_rng(seed)

    lo = max(eng_a.y_grid.lo, eng_b.y_grid.lo)
    hi = min(eng_a.y_grid.hi, eng_b.y_grid.hi)
    ys_env = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 41)
    diff_env = eng_a.env_many(ys_env) - eng_b.env_many(ys_env)
    a_ok = bool(np.ptp(diff_env) <= tol)
    env_shift = float(np.median(diff_env))

    xs = np.linspace(lo, hi, 61)
    ha = np.asarray(eng_a.hull_fn_value(xs), dtype=float)
    hb = np.asarray(eng_b.hull_fn_value(xs), dtype=float)
    both = np.isfinite(ha) & np.isfinite(hb)
    same_dom = bool((np.isfinite(ha) == np.isfinite(hb)).all()) and both.any()
    diff_hull = ha[both] - hb[both]
    b_ok = same_dom and bool(np.ptp(diff_hull) <= tol)
    hull_shift = float(np.median(diff_hull)) if both.any() else math.nan

    ys = list(sample_inset(rng, lo, hi, n_samples))
    if kernel.is_legendre:
        for eng in (eng_a, eng_b):
            for s in _critical_etas(eng):
                if kernel.grad_range.contains(s):
                    y = kernel.grad_conj(s)
                    if kernel.domain.interior_contains(y, 1e-12):
                        ys.append(float(y))
    h = max(eng_a.x_grid.h, eng_b.x_grid.h)
    c_ok = True
    prox_pairs: list[tuple[float, float]] = []
    for y, ra, rb in zip(ys, eng_a.prox_many(ys), eng_b.prox_many(ys)):
        if not _cluster_sets_equal(ra.clusters, rb.clusters, x_tol=1e-5, w_tol=3 * h):
            c_ok = False
        gy = kernel.grad(y)
        for res in (ra, rb):
            for m, interior in zip(res.minimizers, res.in_interior):
                if interior and len(prox_pairs) < 120:
                    prox_pairs.append((m, (gy - kernel.grad(m)) / lam))

    # Probe the graphs where the prox outputs live (membership may differ
    # there even when random abscissae miss the disagreement region) plus
    # random abscissae with hull-derived subgradient candidates.
    d_ok = True
    for x, u in prox_pairs:
        ma, _, _ = left_lpsubdiff_definitional(inst_a, x, u)
        mb, _, _ = left_lpsubdiff_definitional(inst_b, x, u)
        if ma != mb:
            d_ok = False
            break
    xs_probe = list(sample_inset(rng, lo, hi, n_samples))
    for x in xs_probe:
        if not d_ok:
            break
        probes = set()
        for inst in (inst_a, inst_b):
            try:
                s = left_lpsubdiff_hull(inst, x)
            except HypothesesUnmetError:
                s = SubdiffSet.empty()
            for u in subdiff_samples(s):
                probes.add(round(u, 12))
        if not probes:
            probes = {0.0}
        for u in probes:
            ma, _, _ = left_lpsubdiff_definitional(inst_a, x, u)
            mb, _, _ = left_lpsubdiff_definitional(inst_b, x, u)
            if ma != mb:
                d_ok = False
                break

    probe_a, _ = range_assumption(inst_a)
    probe_b, _ = range_assumption(inst_b)
    implications = (
        ("env-const => hull-const", True, (not a_ok) or b_ok),
        ("hull-const => env-const", True, (not b_ok) or a_ok),
        ("prox-equal => subdiff-equal", True, (not c_ok) or d_ok),
        ("subdiff-equal => prox-equal", probe_a and probe_b, (not d_ok) or c_ok),
        ("prox-equal => env-const", kernel.is_legendre, (not c_ok) or a_ok),
    )
    return CoincidenceReport(a_ok, b_ok, c_ok, d_ok, env_shift, hull_shift,
                             implications)


def monotone_related(graph_pairs, x: float, u: float, tol: float = 1e-9) -> bool:
    """(x, u) is monotonically related to every pair in ``graph_pairs``."""
    return all((x - xi) * (u - ui) >= -tol for xi, ui in graph_pairs)
