"""Theorem harness: evaluates each side of the governing equivalence theorems
on catalog instances and asserts their implication structure.

Finite-sample semantics: a violated inequality is a certificate (with a
recorded witness); a passing condition is evidence at the sampled points.
Implications are asserted only when their hypotheses hold; otherwise they are
recorded as skipped with a reason; hypotheses and gates are instance facts
that the engine decides once. Conditions whose truth concentrates on
measure-zero inputs (set-valuedness of the prox, coincidence of graphs) are
additionally sampled at the critical slopes of the convex envelope, where
those events live.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import Instance, ProperFn, get_instance
from .errors import HypothesesUnmetError
from .kernels import bregman_distance, symmetrized_gap
from .numerics import (TOL_CONV, Condition, convexity_condition, finite_diff_grad,
                       sample_inset)
from .proxenv import InstanceEngine, engine, prox_escapes, threshold_scan
from .subdiff import (TOL_CERT, is_singleton, left_lpsubdiff_definitional,
                      left_lpsubdiff_hull, monotone_related, subdiff_samples)

__all__ = [
    "Condition", "Implication", "VerifyReport",
    "check_weak_convexity", "check_dfne", "check_env_convexity",
    "check_bcoco", "check_bsmooth", "check_two_sided",
    "check_strong_convexity_sufficient", "run_suite", "ALL_CHECKS",
    "reports_to_json", "resolvent_check", "coincidence_check", "EXAMPLES", "check_example",
]

# Monotonicity / pair-inequality slack: refined minimizers are only
# sqrt(eps)-accurate in x, so pair products carry ~1e-7 noise on unit windows;
# genuine violations in the catalog are orders of magnitude larger.
TOL_MONO = 1e-6
TOL_LIP = 1e-4       # slack of the sampled prox Lipschitz ratio over 1/L
TOL_HULL_EQ = 1e-5   # largest f - hull gap on the grid that counts as equal
TOL_GRAD = 1e-4      # gradient identity of the dual envelope vs differences
TOL_BOUNDARY = 1e-5  # boundary value of f vs its interior limit
FD_STEP = 1e-6       # finite-difference step, relative to the y-window span
TOL_SHIFT = 1e-5     # spread of a difference that still counts as a constant
N_POINT_SAMPLES = 200
N_PAIR_SAMPLES = 200


@dataclass(frozen=True)
class Implication:
    premises: tuple[str, ...]
    conclusion: str
    asserted: bool
    holds: bool | None
    reason: str = ""

    @property
    def violated(self) -> bool:
        return self.asserted and self.holds is False

    def to_dict(self):
        return {"premises": list(self.premises), "conclusion": self.conclusion,
                "asserted": bool(self.asserted),
                "holds": None if self.holds is None else bool(self.holds),
                "reason": self.reason}


@dataclass
class VerifyReport:
    instance: str
    theorem: str
    status: str = "ok"  # ok | hypotheses-unmet | range-assumption-failed
    hypotheses: dict = field(default_factory=dict)
    conditions: list = field(default_factory=list)
    implications: list = field(default_factory=list)
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def violated(self) -> list[Implication]:
        return [i for i in self.implications if i.violated]

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)

    def to_dict(self):
        return {
            "instance": self.instance,
            "theorem": self.theorem,
            "status": self.status,
            "hypotheses": {k: bool(v) for k, v in sorted(self.hypotheses.items())},
            "conditions": [c.to_dict() for c in self.conditions],
            "implications": [i.to_dict() for i in self.implications],
            "seed": int(self.seed),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "notes": list(self.notes),
        }


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=1)


def _implies(premise: Condition, conclusion: Condition, asserted: bool = True,
             reason: str = "") -> Implication:
    """premise => conclusion, named by the two labels; None when not asserted."""
    holds = ((not premise.holds) or conclusion.holds) if asserted else None
    return Implication((premise.label,), conclusion.label, asserted, holds, reason)


def _equiv(a: Condition, b: Condition):
    return [_implies(a, b), _implies(b, a)]


def _seeded(seed: int, *labels: str) -> np.random.Generator:
    mix = seed & 0xFFFFFFFF
    for lab in labels:
        mix = (mix * 1000003 + zlib.crc32(lab.encode())) & 0xFFFFFFFF
    return np.random.default_rng(mix)


# ---------------------------------------------------------------------------
# Shared condition evaluators
# ---------------------------------------------------------------------------

def _fd_step(eng: InstanceEngine) -> float:
    """The finite-difference step on the y window."""
    return FD_STEP * max(1.0, eng.y_grid.hi - eng.y_grid.lo)


def _critical_etas(eng: InstanceEngine) -> list[float]:
    """Slopes of envelope segments over three cells long: the set-valued etas."""
    curve = eng.hull_curve()
    h = eng.x_grid.h
    return curve.segment_slopes()[np.diff(curve.xs) > 3 * h].tolist()


def _sample_etas(eng: InstanceEngine, rng, n: int, with_critical: bool = True):
    lo, hi = eng.xi_window
    etas = list(lo + (hi - lo) * rng.random(n))
    if with_critical:
        etas += _critical_etas(eng)
    return etas


def _prox_at_etas(eng: InstanceEngine, etas):
    """(eta, prox at grad kappa*(eta)) for the etas whose point is interior."""
    etas = np.asarray(etas, dtype=float)
    ys = eng.kernel.grad_conj(etas)
    inside = eng.kernel.domain.interior_contains(ys)
    return list(zip(etas[inside].tolist(), eng.prox(ys[inside])))


def _selections(eng: InstanceEngine, etas, interior_only: bool):
    """Prox selections (eta, x) at grad kappa*(eta) as two arrays: every
    minimizer, or only those interior to the kernel domain."""
    sels = [(e, m) for e, res in _prox_at_etas(eng, etas) for m in res.minimizers]
    ee, xx = np.array([s[0] for s in sels]), np.array([s[1] for s in sels])
    keep = eng.interior(xx) if interior_only else slice(None)
    return ee[keep], xx[keep]


def _worst_pair(label: str, slack: np.ndarray, witness: tuple) -> Condition:
    """The pair inequality ``slack >= -TOL_MONO`` over a matrix of pair
    slacks, vacuous below two samples; the witness is each array of
    ``witness`` at the worst row, then at the worst column."""
    if len(slack) < 2:
        return Condition(label, True, math.inf)
    i, j = divmod(int(np.argmin(slack)), slack.shape[1])
    worst = float(slack[i, j])
    return Condition(label, worst >= -TOL_MONO, worst,
                     tuple(float(a[i]) for a in witness)
                     + tuple(float(a[j]) for a in witness))


def _pair_slacks(eng: InstanceEngine, ee, xx, lower: bool = True):
    """(lower, upper) slack matrices of the pair sandwich
    DD(x1, x2) <= <x1 - x2, xi1 - xi2> <= DD*(xi1, xi2) over the selections
    (xi, x) of ``ee`` and ``xx``: the middle term less DD, and DD* less it.
    DD needs every x interior to dom kappa; ``lower=False`` skips it (None)."""
    de = np.subtract.outer(ee, ee)
    mid = np.subtract.outer(xx, xx) * de
    gc = eng.kernel.grad_conj(ee)
    upper = np.subtract.outer(gc, gc) * de - mid
    return (mid - symmetrized_gap(eng.kernel, xx[:, None], xx) if lower else None), upper


def _base_report(inst: Instance, theorem: str, seed: int) -> VerifyReport:
    """A report citing the instance's standing hypotheses."""
    return VerifyReport(instance=inst.name, theorem=theorem, seed=seed,
                        hypotheses=engine(inst).hypotheses)


def _start(inst: Instance, theorem: str, seed: int, stream: str, *gates: str):
    """The engine once the standing hypotheses and ``gates`` hold, the report
    citing them, and the check's random stream (named apart from the theorem
    so draws stay fixed)."""
    eng = engine(inst)
    eng.require(*gates)
    rep = _base_report(inst, theorem, seed)
    rep.hypotheses.update(dict.fromkeys(gates, True))
    return eng, rep, _seeded(seed, inst.name, stream)


# ---------------------------------------------------------------------------
# Weak convexity correspondence
# ---------------------------------------------------------------------------

def check_weak_convexity(inst: Instance, seed: int = 0) -> VerifyReport:
    """Conditions: (a) f + kappa/lam convex, (b) f equals its proximal hull,
    (d) prox values convex (no strictly-higher cell between tied basins),
    (f) subdifferential nonempty on the relative interior of conv dom f.

    Asserts (a) <=> (b) <=> (d) => (f), and (f) => (a) when conv dom f stays
    inside the interior of the kernel domain.
    """
    eng, rep, rng = _start(inst, "weak-convexity", seed, "weak")
    rep.tolerances = {"tol_mono": TOL_MONO, "tol_conv": TOL_CONV,
                      "tol_hull_eq": TOL_HULL_EQ}

    a = convexity_condition("a-weakly-convex", eng.X, eng.F + eng.K / eng.lam)

    hull_vals = np.asarray(eng.hull_fn_value(eng.X), dtype=float)
    both = np.isfinite(eng.F) & np.isfinite(hull_vals)
    gap = np.zeros_like(eng.F)
    gap[both] = eng.F[both] - hull_vals[both]
    kb = int(np.argmax(gap))
    b = Condition("b-hull-equals-f", float(gap[kb]) <= TOL_HULL_EQ, float(gap[kb]),
                  (float(eng.X[kb]),))

    etas = _sample_etas(eng, rng, N_POINT_SAMPLES)
    d_holds, d_worst, d_wit = True, 0.0, ()
    for e, res in _prox_at_etas(eng, etas):
        if len(res.clusters) > 1:
            spread = res.clusters[-1].x - res.clusters[0].x
            d_holds, d_worst, d_wit = False, spread, (e,) + tuple(res.minimizers[:2])
            break
    d = Condition("d-prox-convex-valued", d_holds, d_worst, d_wit)

    lo_f, hi_f = eng.f_bounds
    f_wit = next(((p,) for p, s in _hull_sets(inst, eng, rng) if s.is_empty), ()) \
        if hi_f > lo_f else ()
    f = Condition("f-subdiff-nonempty", not f_wit, 0.0, f_wit)

    rep.conditions = [a, b, d, f]
    dom_inside = eng.conv_dom_inside
    rep.hypotheses["conv-dom-inside-interior"] = dom_inside
    rep.implications = (
        _equiv(a, b) + _equiv(b, d)
        + [_implies(d, f),
           _implies(f, a, asserted=dom_inside,
                    reason="" if dom_inside else "relint conv dom f not inside interior")]
    )
    return rep


# ---------------------------------------------------------------------------
# Convexity / firm nonexpansiveness correspondence
# ---------------------------------------------------------------------------

def _hull_sets(inst: Instance, eng: InstanceEngine, rng):
    """(x, hull-route subdifferential at x) for the x among 60 drawn from
    conv dom f, as sampled, that are interior to dom kappa."""
    lo_f, hi_f = eng.f_bounds
    pts = sample_inset(rng, lo_f, hi_f, 60)
    pts = pts[eng.kernel.domain.interior_contains(pts)].tolist()
    return zip(pts, left_lpsubdiff_hull(inst, pts))


def _pairwise_monotone(pairs, label: str) -> Condition:
    xs = np.array([p[0] for p in pairs])
    us = np.array([p[1] for p in pairs])
    prods = np.subtract.outer(xs, xs) * np.subtract.outer(us, us)
    return _worst_pair(label, prods, (xs, us))


def check_dfne(inst: Instance, seed: int = 0) -> VerifyReport:
    """Conditions: (a) f convex, (c) subdifferential monotone, (e) the prox
    composed with grad kappa* is firmly nonexpansive in the kernel metric.

    With the instance's cached range assumption the three are asserted
    equivalent; when it fails the report degrades to monotonicity-only mode
    and a coarse-lattice search for a non-maximality witness runs instead.
    """
    eng, rep, rng = _start(inst, "dfne", seed, "dfne")
    rep.tolerances = {"tol_mono": TOL_MONO, "tol_conv": TOL_CONV}

    probe_ok, witnesses = eng.range_assumption
    rep.hypotheses["range-assumption"] = probe_ok
    if not probe_ok:
        rep.status = "range-assumption-failed"
        rep.notes.append(f"prox left the interior at {len(witnesses)} sampled points")

    a = replace(eng.f_convex, label="a-f-convex")
    graph = [(p, float(u)) for p, s in _hull_sets(inst, eng, rng) for u in subdiff_samples(s)]
    c = _pairwise_monotone(graph, "c-subdiff-monotone")

    ee, xx = _selections(eng, _sample_etas(eng, rng, N_PAIR_SAMPLES), interior_only=True)
    e_cond = _worst_pair("e-dfne", _pair_slacks(eng, ee, xx)[0], (ee, xx))

    rep.conditions = [a, c, e_cond]
    if probe_ok:
        rep.implications = _equiv(a, c) + _equiv(c, e_cond) + _equiv(e_cond, a)
    else:
        reason = "range assumption failed: equivalences not asserted"
        rep.implications = [
            Implication((a.label,), c.label, False, None, reason),
            Implication((c.label,), e_cond.label, False, None, reason),
        ]
        wit = _nonmaximality_witness(inst, eng, graph)
        if wit is not None:
            rep.conditions.append(Condition("nonmax-witness-found", True, 0.0, wit))
            rep.notes.append(
                "monotonically related exterior point: subdifferential is "
                "monotone but not maximally so")
    return rep


def _nonmaximality_witness(inst: Instance, eng: InstanceEngine, graph):
    """Coarse (x, u) lattice search for a point outside the graph that is
    monotonically related to every sampled graph pair."""
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    xs = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 21)
    us = np.linspace(-2.0, 2.0, 17)
    for x in xs.tolist():
        member = left_lpsubdiff_definitional(inst, x, us)[0]
        for u in us[~member].tolist():
            if monotone_related(graph, x, u):
                return (x, u)
    return None


# ---------------------------------------------------------------------------
# Envelope convexity / cocoercivity
# ---------------------------------------------------------------------------

def check_env_convexity(inst: Instance, seed: int = 0) -> VerifyReport:
    """Conditions: (a) h = env o grad kappa* convex on a dual grid, (d) the
    dual upper inequality <x1-x2, xi1-xi2> <= DD*(xi1, xi2) over sampled
    pairs; asserts (a) <=> (d). When (a) holds, the gradient identity
    lam grad h = grad kappa* - prox o grad kappa* is checked against finite
    differences of h. Requires the instance's range assumption.
    """
    eng, rep, rng = _start(inst, "env-convexity", seed, "envcvx", "range-assumption")
    rep.tolerances = {"tol_mono": TOL_MONO, "tol_conv": TOL_CONV,
                      "tol_grad": TOL_GRAD}

    a = replace(eng.h_convex, label="a-h-convex")

    ee, xx = _selections(eng, _sample_etas(eng, rng, 150), interior_only=False)
    d = _worst_pair("d-dual-upper-bound", _pair_slacks(eng, ee, xx, lower=False)[1], (ee, xx))

    rep.conditions = [a, d]
    rep.implications = _equiv(a, d)

    if a.holds:
        xis = np.array(_sample_etas(eng, rng, 40, with_critical=False))
        gcj = eng.kernel.grad_conj
        fds = finite_diff_grad(lambda xi: eng.env(gcj(xi)), xis, 1e-5).tolist()
        ys = gcj(xis)
        worst, wit = 0.0, ()
        for xi, y, fd, res in zip(xis.tolist(), ys.tolist(), fds, eng.prox(ys)):
            ident = (y - res.minimizers[0]) / eng.lam
            err = abs(eng.lam * fd - eng.lam * ident)
            if err > worst:
                worst, wit = err, (xi,)
        g = Condition("grad-identity", worst <= TOL_GRAD, worst, wit)
        rep.conditions.append(g)
        rep.implications.append(_implies(a, g))
    return rep


def check_bcoco(inst: Instance, seed: int = 0) -> VerifyReport:
    """Dual cocoercivity inequality for h on sampled pairs; asserted exactly
    when h is convex. Requires a whole-line kernel domain and the range assumption.
    """
    eng, rep, rng = _start(inst, "bcoco", seed, "bcoco",
                           "whole-line-domain", "range-assumption")
    rep.tolerances = {"tol_mono": TOL_MONO}

    a = replace(eng.h_convex, label="a-h-convex")

    xis = np.array(_sample_etas(eng, rng, 100, with_critical=False))
    gc = eng.kernel.grad_conj(xis)
    proxes = eng.prox(gc)
    h_vals = np.array([res.value for res in proxes])
    prox_pts = np.array([res.minimizers[0] for res in proxes])
    single = not any(res.multiple for res in proxes)
    grad_h = (gc - prox_pts) / eng.lam

    coco = Condition("bcoco-inequality", False, -math.inf)
    if single:
        # D_h(xi, eta) = h(xi) - h(eta) - grad h(eta) (xi - eta), rows xi
        DH = (h_vals[:, None] - h_vals[None, :]
              - grad_h[None, :] * (xis[:, None] - xis[None, :]))
        P = gc[:, None] - eng.lam * (grad_h[:, None] - grad_h[None, :])
        RHS = bregman_distance(eng.kernel, P, gc[:, None])
        coco = _worst_pair("bcoco-inequality", eng.lam * DH - RHS, (xis,))
    rep.conditions = [a, coco]
    rep.implications = [
        _implies(a, coco, asserted=a.holds,
                 reason="" if a.holds else "envelope convexity fails: vacuous")
    ]
    return rep


# ---------------------------------------------------------------------------
# Two-sided smoothness (B-smoothness)
# ---------------------------------------------------------------------------

def _negate_fn(fn: ProperFn) -> ProperFn:
    def ev(x):
        v = fn.eval_arr(x)
        return np.where(np.isfinite(v), -v, np.inf)

    return ProperFn(f"neg_{fn.name}", fn.domain, ev, fn.window)


def check_bsmooth(inst: Instance, seed: int = 0) -> VerifyReport:
    """Two-sided relative smoothness with modulus L = 1 / lambda. It has the
    units of f / kappa (D(., y) / lambda has those of f), so rescaling f or
    kappa together with lambda, which leaves the prox unchanged, leaves
    whether L kappa +/- f is convex unchanged too.

    Conditions: (i) level proximal subdifferentials of +f and -f nonempty at
    every sampled interior point with u equal to the finite-difference
    derivative, certified on the instance's own kernel and lambda, since
    f + D(., x) / lambda is f + D_{L kappa}(., x) at lambda 1; (ii) L kappa
    +/- f convex on the interior; (iii) boundary values of f agree with
    interior limits at closed endpoints. Asserts (i) => (ii) and (ii) and
    (iii) => (i).
    """
    eng, rep, rng = _start(inst, "bsmooth", seed, "bsmooth", "f-real-valued")
    L = 1.0 / inst.lam
    rep.tolerances = {"tol_cert": TOL_CERT, "tol_conv": TOL_CONV,
                      "tol_boundary": TOL_BOUNDARY}

    inst_minus = Instance(f"{inst.name}-f", inst.kernel, _negate_fn(inst.fn), inst.lam)

    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    span = hi - lo
    pts = sorted(set(
        list(sample_inset(rng, lo, hi, 20))
        + [lo + span * q for q in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)]))
    pts = np.array(pts)
    us = finite_diff_grad(eng.fn.eval, pts, _fd_step(eng))
    mp, sp, _ = left_lpsubdiff_definitional(inst, pts, us)
    mm, sm, _ = left_lpsubdiff_definitional(inst_minus, pts, -us)
    # the worst slack up to and including the first point that fails
    fails = ~(mp & mm)
    worst = np.minimum(sp, sm)[:int(np.argmax(fails)) + 1 if fails.any() else None]
    k = int(np.argmin(worst))
    i_worst, i_wit = (float(worst[k]), (float(pts[k]), float(us[k]))) \
        if worst[k] < math.inf else (math.inf, ())
    i_cond = Condition("i-two-sided-subdiff-nonempty", not fails.any(), i_worst, i_wit)

    FY = eng.fn.eval(eng.Y)
    KYL = L * eng.KY
    ii_plus = convexity_condition("ii-plus", eng.Y, KYL + FY)
    ii_minus = convexity_condition("ii-minus", eng.Y, KYL - FY)
    ii = Condition("ii-relative-smooth", ii_plus.holds and ii_minus.holds,
                   min(ii_plus.worst, ii_minus.worst),
                   ii_plus.witness if ii_plus.worst <= ii_minus.worst else ii_minus.witness)

    iii_holds, iii_worst, iii_wit = True, 0.0, ()
    dom = inst.kernel.domain
    ends = [(b, step) for b, closed, step in ((dom.lo, dom.lo_closed, 1e-13),
                                              (dom.hi, dom.hi_closed, -1e-13))
            if closed and math.isfinite(b)]
    # f at each closed end and very close to it, in one call: sqrt-type
    # interior slopes still converge below tolerance at this distance
    vals = eng.fn.eval(np.array([(b, b + step * span) for b, step in ends]).ravel()).tolist()
    for (b, _), fb, lim in zip(ends, vals[::2], vals[1::2]):
        gap = abs(fb - lim)
        if gap > iii_worst:
            iii_worst, iii_wit = gap, (float(b), fb, lim)
        if gap > TOL_BOUNDARY:
            iii_holds = False
    iii = Condition("iii-boundary-limits", iii_holds, iii_worst, iii_wit)

    both = Condition("ii-and-iii", ii.holds and iii.holds,
                     min(ii.worst, -iii.worst))
    rep.conditions = [i_cond, ii, iii]
    rep.implications = [
        _implies(i_cond, ii),
        _implies(both, i_cond),
    ]
    return rep


# ---------------------------------------------------------------------------
# Two-sided bounds and anisotropic strong convexity
# ---------------------------------------------------------------------------

def check_two_sided(inst: Instance, seed: int = 0) -> VerifyReport:
    """Sandwich DD(x1,x2) <= <x1-x2, xi1-xi2> <= DD*(xi1,xi2) over sampled
    pairs, equivalent to f and its dual envelope both being convex; with a
    full-line kernel domain the anisotropic strong-convexity inequality of
    lam f + kappa joins the equivalence. Requires the range assumption.
    """
    eng, rep, rng = _start(inst, "two-sided", seed, "two-sided", "range-assumption")
    rep.tolerances = {"tol_mono": TOL_MONO}

    fcvx, hcvx = eng.f_convex, eng.h_convex
    ab = Condition("f-and-h-convex", fcvx.holds and hcvx.holds,
                   min(fcvx.worst, hcvx.worst))

    ee, xx = _selections(eng, _sample_etas(eng, rng, N_PAIR_SAMPLES), interior_only=True)
    slack_lo, slack_hi = _pair_slacks(eng, ee, xx)
    lower = _worst_pair("lower-bound", slack_lo, (ee,))
    upper = _worst_pair("upper-bound", slack_hi, (ee,))
    two = Condition("two-sided-bounds", lower.holds and upper.holds,
                    min(lower.worst, upper.worst))

    rep.conditions = [fcvx, hcvx, ab, lower, upper, two]
    rep.implications = _equiv(ab, two)

    if eng.holds("whole-line-domain"):
        aniso = _anisotropic_condition(inst, eng, rng)
        c = Condition("b-and-aniso-strongly-convex",
                      fcvx.holds and aniso.holds, aniso.worst, aniso.witness)
        rep.conditions += [aniso, c]
        rep.implications += _equiv(ab, c)
    return rep


def _anisotropic_condition(inst: Instance, eng: InstanceEngine, rng) -> Condition:
    """phi(x) >= phi(xbar) + kappa(x - xbar + grad kappa*(v)) - kappa(grad kappa*(v))
    for sampled gradient pairs (xbar, v) of phi = lam f + kappa."""
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    pts = lo + (hi - lo) * (0.05 + 0.9 * rng.random(25))
    phi_vals = eng.tilted(eng.X)
    grads = finite_diff_grad(eng.tilted, pts, _fd_step(eng))
    refs = eng.kernel.grad_conj(grads)
    worst, wit = math.inf, ()
    # kappa(x - p + ref) one row at a time: 25 rows at once would raise peak memory
    for p, phi_p, ref, k_ref in zip(pts.tolist(), eng.tilted(pts).tolist(),
                                    refs.tolist(), eng.kernel.eval(refs).tolist()):
        shift = eng.kernel.eval(eng.X - p + ref) - k_ref
        slack = phi_vals - phi_p - shift
        finite = np.isfinite(slack)
        if not finite.any():
            continue
        k = int(np.argmin(np.where(finite, slack, np.inf)))
        if slack[k] < worst:
            worst, wit = float(slack[k]), (p, float(eng.X[k]))
    return Condition("aniso-strong-convexity", worst >= -TOL_MONO, worst, wit)


# ---------------------------------------------------------------------------
# Strong convexity sufficiency
# ---------------------------------------------------------------------------

def check_strong_convexity_sufficient(inst: Instance, seed: int = 0) -> VerifyReport:
    """When grad kappa is L-Lipschitz on the line and lam f + kappa is
    L-strongly convex, the dual envelope must be convex and the prox
    single-valued with sampled Lipschitz ratio at most 1/L.
    """
    eng, rep, rng = _start(inst, "strong-convexity", seed, "strong",
                           "grad-lipschitz", "strongly-convex")
    L = inst.kernel.grad_lipschitz
    rep.tolerances = {"tol_lip": TOL_LIP}

    strong = eng.strongly_convex
    hcvx = replace(eng.h_convex, label="env-dual-convex")

    sols = _prox_at_etas(eng, _sample_etas(eng, rng, 120, with_critical=False))
    single = not any(res.multiple for _, res in sols)
    ee = np.array([e for e, _ in sols])
    xx = np.array([float(res.minimizers[0]) for _, res in sols])
    de = np.abs(np.subtract.outer(ee, ee))
    dx = np.abs(np.subtract.outer(xx, xx))
    mask = de > 1e-2  # keep ratio noise (sqrt-eps minimizer error) below tol
    ratio = float((dx[mask] / de[mask]).max()) if mask.any() else 0.0
    lip = Condition("prox-single-and-lipschitz", single and ratio <= 1.0 / L + TOL_LIP,
                    ratio)

    rep.conditions = [strong, hcvx, lip]
    hyp = Condition("hypotheses", True, math.inf)  # the gates passed by ``_start``
    rep.implications = [
        _implies(hyp, hcvx),
        _implies(hyp, lip),
    ]
    return rep


# ---------------------------------------------------------------------------
# Resolvent representation
# ---------------------------------------------------------------------------

def resolvent_check(inst: Instance, seed: int = 0, n: int = 20,
                    ybar_values=None) -> VerifyReport:
    """The warped-resolvent representation at sampled ybar, each direction's
    worst its largest violation. Forward: every prox output xbar carries the
    certificate u = (grad kappa(ybar) - grad kappa(xbar)) / lam. Converse:
    subgradients sampled at xbar reproduce xbar as a prox output at the warped
    point grad kappa*(lam u + grad kappa(xbar)). Both are asserted under the
    range assumption at the sampled points; when it fails, the status says so
    and its condition lists the (ybar, minimizer) witnesses, flattened.
    """
    eng = engine(inst)
    rep = _base_report(inst, "resolvent", seed)
    rep.tolerances = {"tol_cert": TOL_CERT}
    if ybar_values is None:
        ybar_values = sample_inset(np.random.default_rng(seed),
                                   eng.y_grid.lo, eng.y_grid.hi, n)
    ys = np.atleast_1d(np.asarray(ybar_values, dtype=float)).tolist()
    results = eng.prox(ys)
    bad = prox_escapes(eng, ys, results)
    in_range = Condition("range-assumption", not bad, float(len(bad)),
                         tuple(v for pair in bad for v in pair))
    rep.conditions = [in_range]
    if bad:
        rep.status = "range-assumption-failed"
        rep.notes.append(f"prox output left the interior at {len(bad)} samples")
        return rep
    # (violation, witness) per term, each quantity one batched call
    k = eng.kernel
    yy = np.repeat(ys, [len(res.minimizers) for res in results])
    ms = np.array([m for res in results for m in res.minimizers])
    us = (k.grad(yy) - k.grad(ms)) / eng.lam
    members, slacks, _ = left_lpsubdiff_definitional(inst, ms, us)
    forward = [(0.0, ())] + [(-slack, (y, m)) for y, m, member, slack
                             in zip(yy.tolist(), ms.tolist(), members, slacks.tolist())
                             if not member]
    hull = [subdiff_samples(s) for s in left_lpsubdiff_hull(inst, ms)] \
        if all(eng.hypotheses.values()) else [[u] for u in us.tolist()]
    # converse: each sampled subgradient's warped point, where it is interior
    m2 = np.repeat(ms, [len(u2s) for u2s in hull])
    u2 = np.array([u for u2s in hull for u in u2s])
    eta = eng.lam * u2 + k.grad(m2)
    m2, u2, eta = (a[k.grad_range.contains(eta)] for a in (m2, u2, eta))
    y2 = k.grad_conj(eta)
    m2, u2, y2 = (a[k.domain.interior_contains(y2)] for a in (m2, u2, y2))
    gaps = eng.fn.eval(m2) + bregman_distance(k, m2, y2) / eng.lam - eng.env(y2)
    converse = [(0.0, ())] + list(zip(gaps.tolist(), zip(m2.tolist(), u2.tolist())))
    (worst_f, wit_f), (worst_c, wit_c) = max(forward), max(converse)
    fwd = Condition("forward-certificate", worst_f <= TOL_CERT, worst_f, wit_f)
    conv = Condition("converse-prox", worst_c <= TOL_CERT, worst_c, wit_c)
    rep.conditions += [fwd, conv]
    rep.implications = [_implies(in_range, c) for c in (fwd, conv)]
    return rep


# ---------------------------------------------------------------------------
# Coincidence of two instances
# ---------------------------------------------------------------------------

def _cluster_sets_equal(a, b, x_tol: float, w_tol: float) -> bool:
    return len(a) == len(b) and all(
        abs(ca.x - cb.x) <= x_tol and abs((ca.x_hi - ca.x_lo) - (cb.x_hi - cb.x_lo)) <= w_tol
        for ca, cb in zip(a, b))


def coincidence_check(inst_a: Instance, inst_b: Instance, seed: int = 0) -> VerifyReport:
    """Compare two instances over the same kernel and lambda.

    Conditions: envelopes and hulls differ by constants (the witness is the
    median shift), prox and subdifferential graphs agree at sampled points,
    which include the chord slopes of both envelopes, where graph
    differences concentrate. subdiff-equal => prox-equal is asserted under
    both range assumptions, prox-equal => env-const for Legendre kernels.
    """
    if inst_a.kernel is not inst_b.kernel or inst_a.lam != inst_b.lam:
        raise ValueError("coincidence requires the same kernel and lambda")
    eng_a, eng_b = engine(inst_a), engine(inst_b)
    kernel, lam, legendre = inst_a.kernel, inst_a.lam, eng_a.holds("legendre")
    rng = np.random.default_rng(seed)

    lo = max(eng_a.y_grid.lo, eng_b.y_grid.lo)
    hi = min(eng_a.y_grid.hi, eng_b.y_grid.hi)
    ys_env = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 41)
    diff_env = eng_a.env(ys_env) - eng_b.env(ys_env)
    spread = float(np.ptp(diff_env))
    env_c = Condition("env-const", spread <= TOL_SHIFT, spread, (float(np.median(diff_env)),))

    xs = np.linspace(lo, hi, 61)
    ha = np.asarray(eng_a.hull_fn_value(xs), dtype=float)
    hb = np.asarray(eng_b.hull_fn_value(xs), dtype=float)
    both = np.isfinite(ha) & np.isfinite(hb)
    same_dom = bool((np.isfinite(ha) == np.isfinite(hb)).all()) and both.any()
    diff_hull = ha[both] - hb[both]
    spread = float(np.ptp(diff_hull)) if both.any() else math.inf
    hull_c = Condition("hull-const", same_dom and spread <= TOL_SHIFT, spread,
                       (float(np.median(diff_hull)) if both.any() else math.nan,))

    ys = list(sample_inset(rng, lo, hi, 30))
    if legendre:
        etas = np.array(_critical_etas(eng_a) + _critical_etas(eng_b), dtype=float)
        crit = kernel.grad_conj(etas[kernel.grad_range.contains(etas)])
        ys += crit[kernel.domain.interior_contains(crit, 1e-12)].tolist()
    h = max(eng_a.x_grid.h, eng_b.x_grid.h)
    proxes = list(zip(ys, eng_a.prox(ys), eng_b.prox(ys)))
    prox_wit = next(((float(y),) for y, ra, rb in proxes if not _cluster_sets_equal(
        ra.clusters, rb.clusters, x_tol=1e-5, w_tol=3 * h)), ())
    # the first 120 interior outputs (one kernel: one interior test serves
    # both instances), each with its resolvent certificate
    outs = np.array([(y, m) for y, ra, rb in proxes for res in (ra, rb) for m in res.minimizers])
    y1, m1 = outs[np.flatnonzero(eng_a.interior(outs[:, 1]))[:120]].T
    prox_pairs = list(zip(m1.tolist(), ((kernel.grad(y1) - kernel.grad(m1)) / lam).tolist()))
    prox_c = Condition("prox-equal", not prox_wit, 0.0, prox_wit)

    # Probe the graphs where the prox outputs live (membership may differ
    # there even when random abscissae miss the disagreement region) plus
    # random abscissae with hull-derived subgradient candidates.
    def first_difference(pairs):
        """The first (x, u) of ``pairs`` where the two certificates disagree, or ()."""
        xs, us = [x for x, _ in pairs], [u for _, u in pairs]
        differs = (left_lpsubdiff_definitional(inst_a, xs, us)[0]
                   != left_lpsubdiff_definitional(inst_b, xs, us)[0])
        return pairs[int(np.argmax(differs))] if differs.any() else ()

    sub_wit = first_difference(prox_pairs)
    if not sub_wit:
        xs = sample_inset(rng, lo, hi, 30).tolist()
        hulls = [left_lpsubdiff_hull(inst, xs) for inst in (inst_a, inst_b)
                 if all(engine(inst).hypotheses.values())]
        probes = [{round(u, 12) for sets in hulls for u in subdiff_samples(sets[i])} or {0.0}
                  for i in range(len(xs))]
        sub_wit = first_difference([(x, u) for x, us in zip(xs, probes) for u in us])
    sub_c = Condition("subdiff-equal", not sub_wit, 0.0, tuple(map(float, sub_wit)))

    range_ok = eng_a.range_assumption[0] and eng_b.range_assumption[0]
    return VerifyReport(
        instance=f"{inst_a.name}~{inst_b.name}", theorem="coincidence", seed=seed,
        status="ok" if range_ok else "range-assumption-failed",
        hypotheses={"legendre": legendre, "range-assumption": range_ok},
        conditions=[env_c, hull_c, prox_c, sub_c],
        implications=_equiv(env_c, hull_c) + [
            _implies(prox_c, sub_c),
            _implies(sub_c, prox_c, asserted=range_ok,
                     reason="" if range_ok else "range assumption failed"),
            _implies(prox_c, env_c, asserted=legendre,
                     reason="" if legendre else "kernel is not Legendre")],
        tolerances={"tol_shift": TOL_SHIFT})


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    ("weak-convexity", check_weak_convexity),
    ("dfne", check_dfne),
    ("env-convexity", check_env_convexity),
    ("bcoco", check_bcoco),
    ("bsmooth", check_bsmooth),
    ("two-sided", check_two_sided),
    ("strong-convexity", check_strong_convexity_sufficient),
)


def run_suite(names, seed: int = 42) -> list[VerifyReport]:
    """Run every check on every named instance; deterministic given the seed.

    Checks whose hypotheses fail are recorded as skipped reports rather than
    raised, so the suite output always covers the full name x theorem grid.
    """
    reports = []
    for name in names:
        inst = get_instance(name)
        for theorem, fn in ALL_CHECKS:
            child = (seed * 1000003 + zlib.crc32(f"{name}:{theorem}".encode())) & 0x7FFFFFFF
            try:
                rep = fn(inst, seed=child)
            except HypothesesUnmetError as exc:
                rep = _base_report(inst, theorem, child)
                rep.status = "hypotheses-unmet"
                rep.notes.append(str(exc))
            reports.append(rep)
    return reports



# ---------------------------------------------------------------------------
# The paper's worked examples (not in ALL_CHECKS: the suite does not run them)
# ---------------------------------------------------------------------------

TOL_EXAMPLE = 1e-4  # largest gap between a computed value and the example's own


def _example_310(inst: Instance) -> list[Condition]:
    xs = np.linspace(-1.0, 1.0, 201)[1:-1].tolist()
    *sets, s0 = left_lpsubdiff_hull(inst, xs + [0.0])
    left = sum(not is_singleton(s) or abs(0.5 * (s.lo + s.hi) - inst.fn.deriv(x)) > TOL_EXAMPLE
               for x, s in zip(xs, sets) if x < 0)
    right = sum(not s.is_empty for x, s in zip(xs, sets) if x > 0)
    # The hull route reads x = 0 on the closed branch: the certificate (1 - sqrt(1 - x^2))(1 - x)
    # >= 0 accepts u = f'(0) = 1, so the reading {f'(0)} is annotated, and either reading holds.
    gap = 0.0 if s0.is_empty else abs(s0.hi - 1.0)
    at0 = s0.is_empty or is_singleton(s0) and gap <= TOL_EXAMPLE
    return [Condition("singleton-derivative-left", not left, float(left)),
            Condition("empty-right", not right, float(right)),
            Condition("closed-or-empty-at-0", at0, gap, () if s0.is_empty else (s0.lo, s0.hi))]


def _example_411(inst: Instance) -> list[Condition]:
    eng, s = engine(inst), left_lpsubdiff_hull(inst, 0.0)
    ys = -0.999 + 1.998 * np.random.default_rng(0).random(60)
    outs = sorted({round(m, 6) for res in eng.prox(ys) for m in res.minimizers})
    off = max(min(abs(m), abs(m - 1.0)) for m in outs)
    probe_ok, escapes = eng.range_assumption
    xs = np.linspace(0.0, 1.0, 101)
    graph = [(x, u) for x, s1 in zip(xs.tolist(), left_lpsubdiff_hull(inst, xs))
             if not s1.is_empty for u in (s1.lo, s1.hi)]
    related = not left_lpsubdiff_definitional(inst, 0.5, 1.0)[0] \
        and monotone_related(graph, 0.5, 1.0)
    # an empty set has nan ends, which fail both comparisons
    return [Condition("subdiff-hi-at-0", abs(s.hi - 0.5) <= TOL_EXAMPLE, s.hi),
            Condition("subdiff-lo-unbounded", math.isinf(s.lo), s.lo),
            Condition("prox-range-0-1", off <= TOL_EXAMPLE and {round(m) for m in outs} == {0, 1},
                      off, tuple(outs)),
            Condition("range-assumption", probe_ok, float(len(escapes)), sum(escapes, ())),
            Condition("nonmax-witness", related, 0.0, (0.5, 1.0))]


def _dual_envelope(closed_form, *facts: str):
    """The largest gap of env o grad kappa* to ``closed_form`` on [-3, 3], then engine ``facts``."""
    def measure(inst: Instance) -> list[Condition]:
        eng, xis = engine(inst), np.linspace(-3.0, 3.0, 241)
        gap = float(np.abs(eng.env(inst.kernel.grad_conj(xis))
                           - [closed_form(xi) for xi in xis.tolist()]).max())
        return [Condition("h-closed-form", gap <= TOL_EXAMPLE, gap)] + [getattr(eng, f) for f in facts]
    return measure


def _example_ln(inst: Instance) -> list[Condition]:
    lo, hi = threshold_scan(inst.kernel, inst.fn, np.geomspace(0.5, 2.0, 30))
    return [Condition("threshold-bracket", lo <= 1.0 <= hi and hi - lo <= 0.1, hi - lo, (lo, hi))]


def _count(c: Condition) -> str:
    return f"{c.worst:.0f} failures of 99 points"


# id: (instance, its conditions, and per condition the claim, its stated truth and its detail)
EXAMPLES = {
    "3.10": ("ex310", _example_310, (
        ("singleton equal to f'(x) on (-1, 0)", True, _count),
        ("empty on (0, 1)", True, _count),
        ("x = 0 reported per ambiguity note (closed branch value 1 or empty)", True,
         lambda c: "[{:.17g}, {:.17g}]".format(*c.witness) if c.witness else "empty"))),
    "4.11": ("ex411", _example_411, (
        ("subdifferential at 0 has upper endpoint 1/2", True, lambda c: f"hi = {c.worst:.17g}"),
        ("lower endpoint flagged unbounded", True, lambda c: f"lo = {c.worst:.17g}"),
        ("prox range is {0, 1}", True, lambda c: f"outputs {list(c.witness)}"),
        ("range-assumption probe fails", False, None),
        ("non-maximality witness (0.5, 1.0) monotonically related", True, None))),
    "4.19": ("ex419", _dual_envelope(lambda y: -y, "h_convex", "f_convex"), (
        ("dual envelope equals -y", True, lambda c: f"max |h - closed form| = {c.worst:.3e}"),
        ("dual envelope convex", True, None),
        ("f nonconvex", False, None))),
    "4.20": ("ex420", _dual_envelope(
        lambda y: (2.0 / 3.0) * abs(y) ** 1.5 - (2.0 / 3.0) * abs(y - 1.0) ** 1.5,
        "f_convex", "h_convex"), (
        ("dual envelope equals (2/3)|y|^{3/2} - (2/3)|y-1|^{3/2}", True,
         lambda c: f"max |h - closed form| = {c.worst:.3e}"),
        ("f convex", True, None),
        ("dual envelope nonconvex", False, None))),
    "ln": ("ex_ln", _example_ln, (
        ("threshold bracket contains 1.0 with width <= 0.1", True,
         lambda c: "bracket [{:.4f}, {:.4f}]".format(*c.witness)),)),
}


def check_example(example: str) -> VerifyReport:
    """One condition per claim of an ``EXAMPLES`` entry, and one premise-free implication per
    claim, violated when the condition's truth is not the stated one; its reason is the detail."""
    name, measure, claims = EXAMPLES[example]
    conds = measure(get_instance(name))
    return VerifyReport(name, f"example-{example}", conditions=conds, implications=[
        Implication((), text, True, c.holds == stated, detail(c) if detail else "")
        for c, (text, stated, detail) in zip(conds, claims)], tolerances={"tol_example": TOL_EXAMPLE})
