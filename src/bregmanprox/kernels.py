"""Distance-generating kernels and the Bregman distance.

This module is the single home of kappa, its conjugate, their gradients and
gradient inverses, and the primal/dual Bregman distances built from them.
``Kernel.eval``, ``grad``, ``conj_eval`` and ``grad_conj`` each take a float
or an array and evaluate it as one float array, returning a float for a float
and an array for an array. So do ``bregman_distance``, ``dual_distance``,
``symmetrized_gap`` and ``three_point_residual``, at points broadcast
together; the two distances share one array body, ``_distance``. Kappa,
its conjugate and the catalog functions are evaluated in ``_coerce`` alone,
which keeps NaN out of every value: a NaN point lies in no domain and reads
+inf, and a NaN value at any other point (inf - inf or 0 * inf inside a
formula) raises ``InfMinusInfError`` naming the function and the point; f and
kappa at the same points share one pass. Whole-line formulas run unclipped. Each
catalog kernel carries closed forms for the conjugate and the gradient
inverse; the generic fallbacks (grid conjugation, monotone inversion) exist
so tests can cross-check the closed forms against an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfMinusInfError, NotLegendreError, OutsideInteriorError
from .extreal import Interval
from .numerics import build_grid, grid_conjugate, monotone_invert

__all__ = [
    "Kernel",
    "ENERGY", "SHANNON", "BURG", "HELLINGER", "QUARTIC", "CUBIC_ABS",
    "ALL_KERNELS", "LEGENDRE_KERNELS",
    "bregman_distance", "dual_distance", "symmetrized_gap",
    "three_point_residual", "scale_kernel", "conjugate_by_grid",
]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A distance-generating function on an interval domain.

    ``eval_arr``/``grad_arr``/``conj_arr``/``grad_conj_arr`` are vectorized
    over float arrays, returning +inf outside the respective domains; the
    accessors ``eval``/``grad``/``conj_eval``/``grad_conj`` wrap them and
    take a float or an array.
    ``grad_range`` is the range of the gradient, stored explicitly because
    dual constructions require membership tests in it (for non-1-coercive
    kernels it is a strict subset of the reals). The gradient of a Legendre,
    1-coercive kernel maps the interior of its domain onto the reals, and
    construction rejects a ``grad_range`` that says otherwise.
    """

    name: str
    domain: Interval
    eval_arr: Callable[[np.ndarray], np.ndarray]
    grad_arr: Callable[[np.ndarray], np.ndarray]
    conj_arr: Callable[[np.ndarray], np.ndarray]
    grad_conj_arr: Callable[[np.ndarray], np.ndarray]
    is_legendre: bool
    is_one_coercive: bool
    grad_range: Interval
    conj_domain: Interval
    sample_window: tuple[float, float]
    grad_lipschitz: float | None = None

    def __post_init__(self):
        if self.is_legendre and self.is_one_coercive and not self.grad_range.is_all_reals:
            raise ValueError(f"kernel {self.name} is Legendre and 1-coercive, "
                             "so its gradient range must be the reals")

    def eval(self, x) -> float | np.ndarray:
        return _coerce(x, (self.eval_arr, self.name))[0]

    def grad(self, x) -> float | np.ndarray:
        return _interior(self.grad_arr, self.domain, x, self.name)

    def conj_eval(self, eta) -> float | np.ndarray:
        return _coerce(eta, (self.conj_arr, f"{self.name}*"))[0]

    def grad_conj(self, eta):
        """grad kappa* on int dom kappa*, for a float or an array of points."""
        return _interior(self.grad_conj_arr, self.conj_domain, eta, f"{self.name}*")

    def __repr__(self):
        return f"Kernel({self.name})"


def _coerce(xs, *fns) -> list:
    """Each of ``fns``, (formula, name) pairs, at the points of ``xs``, in a
    list: a float for a float, an array for an array (a block reaches the
    formulas as 1-D points). The one NaN rule of kernels and catalog
    functions: a NaN point reads +inf, and a NaN value at any other point
    raises ``InfMinusInfError`` naming the function and the first such
    point. One NaN test on the sum of the values serves every function; only
    where it fires (a NaN, or opposite infinities) does each take the rule."""
    xs = np.asarray(xs, dtype=float)
    pts = xs.ravel() if xs.ndim > 1 else xs
    with np.errstate(all="ignore"):
        vs = [np.asarray(fn(pts), dtype=float) for fn, _ in fns]
        fired = np.count_nonzero(np.isnan(sum(vs[1:], vs[0])))
    for j, (_, name) in enumerate(fns if fired else ()):
        nan = np.isnan(vs[j])
        bad = nan & ~np.isnan(pts)
        if bad.any():
            raise InfMinusInfError(f"{name} is NaN at {float(pts[bad].flat[0])}: its "
                                   "formula formed inf - inf or 0 * inf (an overflow "
                                   "or an undefined form)")
        vs[j] = np.where(nan, np.inf, vs[j])
    return [float(v) if v.ndim == 0 else v.reshape(xs.shape) for v in vs]


def _interior(fn, dom: Interval, x, name: str):
    """``fn`` at points of int ``dom``, as one float array: a float for a
    float, a new array for an array. Raises ``OutsideInteriorError`` naming
    the first point outside."""
    e = np.asarray(x, dtype=float)
    inside = dom.interior_contains(e)
    if not inside.all():
        bad = float(e[~inside].flat[0])
        raise OutsideInteriorError(f"{bad} not in the interior of dom {name}")
    with np.errstate(all="ignore"):
        v = fn(e)
    return float(v) if e.ndim == 0 else np.array(v, dtype=float)


def _masked(domain: Interval, formula):
    """``formula`` on a float array, +inf outside ``domain``."""
    if domain.is_all_reals:  # no clip: it is the identity at finite x; +-inf and NaN read +inf
        return lambda x: np.where(np.isfinite(x), formula(x), np.inf)

    def ev(x):
        # the formula sees clipped points only; inside points are unchanged
        safe = np.minimum(np.maximum(x, domain.lo), domain.hi)
        return np.where(domain.contains(x), formula(safe), np.inf)

    return ev


def _shannon_eval(x):
    v = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), np.inf)
    return np.where(x == 0.0, 0.0, v)  # 0 log 0 = 0


ENERGY = Kernel(
    name="energy",
    domain=Interval.reals(),
    eval_arr=lambda x: 0.5 * np.square(x),
    grad_arr=lambda x: np.asarray(x, dtype=float),
    conj_arr=lambda e: 0.5 * np.square(e),
    grad_conj_arr=lambda e: np.asarray(e, dtype=float),
    is_legendre=True,
    is_one_coercive=True,
    grad_range=Interval.reals(),
    conj_domain=Interval.reals(),
    sample_window=(-8.0, 8.0),
    grad_lipschitz=1.0,
)

SHANNON = Kernel(
    name="shannon",
    domain=Interval(0.0, math.inf, True, False),
    eval_arr=_shannon_eval,
    grad_arr=lambda x: 1.0 + np.log(x),
    conj_arr=lambda e: np.exp(np.asarray(e, dtype=float) - 1.0),
    grad_conj_arr=lambda e: np.exp(np.asarray(e, dtype=float) - 1.0),
    is_legendre=True,
    is_one_coercive=True,
    grad_range=Interval.reals(),
    conj_domain=Interval.reals(),
    sample_window=(0.0, 12.0),
)

BURG = Kernel(
    name="burg",
    domain=Interval(0.0, math.inf, False, False),
    eval_arr=_masked(Interval(0.0, math.inf, False, False), lambda x: -np.log(x)),
    grad_arr=lambda x: -1.0 / np.asarray(x, dtype=float),
    conj_arr=_masked(Interval(-math.inf, 0.0, False, False), lambda e: -1.0 - np.log(-e)),
    grad_conj_arr=lambda e: -1.0 / np.asarray(e, dtype=float),
    is_legendre=True,
    is_one_coercive=False,  # -log x grows sublinearly
    grad_range=Interval(-math.inf, 0.0, False, False),
    conj_domain=Interval(-math.inf, 0.0, False, False),
    sample_window=(0.0, 12.0),
)

HELLINGER = Kernel(
    name="hellinger",
    domain=Interval(-1.0, 1.0, True, True),
    eval_arr=_masked(Interval(-1.0, 1.0), lambda x: -np.sqrt(np.maximum(1.0 - np.square(x), 0.0))),
    grad_arr=lambda x: np.asarray(x, dtype=float) / np.sqrt(1.0 - np.square(x)),
    conj_arr=lambda e: np.sqrt(1.0 + np.square(e)),
    grad_conj_arr=lambda e: np.asarray(e, dtype=float) / np.sqrt(1.0 + np.square(e)),
    is_legendre=True,
    is_one_coercive=True,  # bounded domain: coercivity holds vacuously
    grad_range=Interval.reals(),
    conj_domain=Interval.reals(),
    sample_window=(-1.0, 1.0),
)

QUARTIC = Kernel(
    name="quartic",
    domain=Interval.reals(),
    eval_arr=lambda x: 0.25 * np.square(np.square(x)),
    grad_arr=lambda x: np.square(x) * x,
    conj_arr=lambda e: 0.75 * np.power(np.abs(e), 4.0 / 3.0),
    grad_conj_arr=np.cbrt,
    is_legendre=True,
    is_one_coercive=True,
    grad_range=Interval.reals(),
    conj_domain=Interval.reals(),
    sample_window=(-5.0, 5.0),
)

CUBIC_ABS = Kernel(
    name="cubic_abs",
    domain=Interval.reals(),
    eval_arr=lambda x: np.square(x) * np.abs(x) / 3.0,
    grad_arr=lambda x: np.asarray(x, dtype=float) * np.abs(x),
    conj_arr=lambda e: (2.0 / 3.0) * np.power(np.abs(e), 1.5),
    grad_conj_arr=lambda e: np.sign(e) * np.sqrt(np.abs(e)),
    is_legendre=True,
    is_one_coercive=True,
    grad_range=Interval.reals(),
    conj_domain=Interval.reals(),
    sample_window=(-5.0, 5.0),
)

ALL_KERNELS = (ENERGY, SHANNON, BURG, HELLINGER, QUARTIC, CUBIC_ABS)
LEGENDRE_KERNELS = tuple(k for k in ALL_KERNELS if k.is_legendre)


def bregman_distance(k: Kernel, x, y):
    """D(x, y) = kappa(x) - kappa(y) - <grad kappa(y), x - y>, at floats (a
    float) or at arrays broadcast together (an array).

    Total on pairs: +inf when y is not interior or x lies outside the domain.
    Tiny negative values from roundoff are floored at zero.
    """
    return _distance(k.eval, k.grad_arr, k.domain, x, y)


def dual_distance(k: Kernel, xi, eta):
    """Bregman distance generated by the conjugate kernel, at floats or arrays.

    Satisfies D(x, y) = D*(grad kappa(y), grad kappa(x)) on interior pairs for
    Legendre kernels.
    """
    if not k.is_legendre:
        raise NotLegendreError(f"{k.name} is not Legendre")
    return _distance(k.conj_eval, k.grad_conj_arr, k.conj_domain, xi, eta)


def _distance(ev, grad, dom: Interval, x, y):
    """The Bregman distance of ``ev`` (gradient ``grad`` on int ``dom``) at
    the pairs of ``x`` and ``y`` broadcast together, in one interior test."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    vx = ev(x)
    with np.errstate(all="ignore"):
        d = vx - ev(y) - grad(y) * (x - y)
    d = np.where(dom.interior_contains(y) & np.isfinite(vx), d, math.inf)
    d = np.where((-1e-9 < d) & (d < 0.0), 0.0, d)
    return float(d) if d.ndim == 0 else d


def symmetrized_gap(k: Kernel, x1, x2):
    """(grad kappa(x1) - grad kappa(x2)) * (x1 - x2), nonnegative by
    convexity, at floats or arrays broadcast together. Raises
    ``OutsideInteriorError`` naming the first point off the interior."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    gap = (k.grad(x1) - k.grad(x2)) * (x1 - x2)
    return float(gap) if gap.ndim == 0 else gap


def three_point_residual(k: Kernel, x, y, z):
    """|D(x,z) - D(x,y) - D(y,z) - (x-y)(grad kappa(y) - grad kappa(z))|, at
    floats or arrays broadcast together.

    Zero in exact arithmetic for x in the domain and y, z interior; +inf
    where one of the three distances is.
    """
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    dxz = bregman_distance(k, x, z)
    dxy = bregman_distance(k, x, y)
    dyz = bregman_distance(k, y, z)
    # read only where the three distances are finite, so y and z are interior
    with np.errstate(all="ignore"):
        r = np.abs(dxz - dxy - dyz - (x - y) * (k.grad_arr(y) - k.grad_arr(z)))
    r = np.where(np.isfinite(dxz) & np.isfinite(dxy) & np.isfinite(dyz), r, math.inf)
    return float(r) if r.ndim == 0 else r


def scale_kernel(k: Kernel, L: float) -> Kernel:
    """The kernel L * kappa (same domain); conjugate is L kappa*(eta / L)."""
    if L <= 0:
        raise ValueError("scale must be positive")
    gr = k.grad_range
    return Kernel(
        name=f"{k.name}_x{L:g}",
        domain=k.domain,
        eval_arr=lambda x: L * k.eval_arr(x),
        grad_arr=lambda x: L * k.grad_arr(x),
        conj_arr=lambda e: L * k.conj_arr(e / L),
        grad_conj_arr=lambda e: k.grad_conj_arr(e / L),
        is_legendre=k.is_legendre,
        is_one_coercive=k.is_one_coercive,
        grad_range=Interval(L * gr.lo, L * gr.hi, gr.lo_closed, gr.hi_closed),
        conj_domain=Interval(L * k.conj_domain.lo, L * k.conj_domain.hi,
                             k.conj_domain.lo_closed, k.conj_domain.hi_closed),
        sample_window=k.sample_window,
        grad_lipschitz=None if k.grad_lipschitz is None else L * k.grad_lipschitz,
    )


def conjugate_by_grid(k: Kernel, eta: float) -> float:
    """kappa*(eta) = sup_x eta x - kappa(x) by grid search plus a zoom (``grid_conjugate``).

    Independent of the closed-form conjugates; used to cross-check them.
    Raises ``UnboundedBelowError`` where the sup passes ``DEFAULT_UNBOUNDED_CAP``.
    """
    return grid_conjugate(k.eval, build_grid(k.domain, n=4001, window=k.sample_window), eta)


def grad_conj_by_inversion(k: Kernel, eta: float) -> float:
    """Evaluate (grad kappa)^{-1} by monotone bisection.

    Generic fallback for kernels lacking a closed-form gradient inverse, and
    the independent route for cross-checking the closed forms.
    """
    wlo, whi = k.sample_window
    span = whi - wlo
    return monotone_invert(k.grad, float(eta),
                           (wlo + 1e-6 * span, whi - 1e-6 * span),
                           domain=k.domain.interior())
