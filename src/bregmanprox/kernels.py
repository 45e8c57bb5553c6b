"""Distance-generating kernels and the Bregman distance.

This module is the single home of kappa, its conjugate, their gradients and
gradient inverses, and the primal/dual Bregman distances built from them.
Each catalog kernel carries closed forms for the conjugate and the gradient
inverse; the generic fallbacks (grid conjugation, monotone inversion) exist
so tests can cross-check the closed forms against an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotLegendreError, OutsideInteriorError
from .extreal import ExtReal, Interval
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
    scalar accessors wrap them, and ``grad_conj`` takes arrays too.
    ``grad_range`` is the range of the gradient, stored explicitly because
    dual constructions require membership tests in it (for non-1-coercive
    kernels it is a strict subset of the reals).
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

    def eval(self, x) -> ExtReal:
        return ExtReal(float(_coerce(self.eval_arr, float(x))))

    def grad(self, x) -> float:
        if not self.domain.interior_contains(float(x)):
            raise OutsideInteriorError(f"{x} not in the interior of dom {self.name}")
        with np.errstate(all="ignore"):
            return float(self.grad_arr(np.asarray(float(x))))

    def conj_eval(self, eta) -> ExtReal:
        return ExtReal(float(_coerce(self.conj_arr, float(eta))))

    def grad_conj(self, eta):
        """grad kappa* on int dom kappa*, for a float or an array of points."""
        e = np.asarray(eta, dtype=float)
        inside = (self.conj_domain.lo < e) & (e < self.conj_domain.hi)
        if not inside.all():
            bad = float(e[~inside].flat[0])
            raise OutsideInteriorError(f"{bad} not in the interior of dom {self.name}*")
        with np.errstate(all="ignore"):
            v = self.grad_conj_arr(e)
        return float(v) if e.ndim == 0 else np.asarray(v, dtype=float)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return _coerce(self.eval_arr, xs)

    def grad_many(self, xs: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.asarray(self.grad_arr(np.asarray(xs, dtype=float)), dtype=float)

    def __repr__(self):
        return f"Kernel({self.name})"


def _coerce(fn, xs) -> np.ndarray:
    """``fn`` on a float array, with NaN read as +inf: the one NaN policy of
    kernels and catalog functions."""
    with np.errstate(all="ignore"):
        v = np.asarray(fn(np.asarray(xs, dtype=float)), dtype=float)
    return np.where(np.isnan(v), np.inf, v)


def _masked(domain: Interval, formula):
    """Vectorized evaluation that is +inf outside ``domain``."""

    above = np.greater_equal if domain.lo_closed else np.greater
    below = np.less_equal if domain.hi_closed else np.less

    def ev(x):
        x = np.asarray(x, dtype=float)
        inside = above(x, domain.lo) & below(x, domain.hi)
        # the formula sees clipped points only; inside points are unchanged
        safe = np.minimum(np.maximum(x, domain.lo), domain.hi)
        return np.where(inside, formula(safe), np.inf)

    return ev


def _shannon_eval(x):
    x = np.asarray(x, dtype=float)
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
    eval_arr=lambda x: 0.25 * np.power(x, 4),
    grad_arr=lambda x: np.power(x, 3),
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
    eval_arr=lambda x: np.power(np.abs(x), 3) / 3.0,
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


def bregman_distance(k: Kernel, x: float, y: float) -> ExtReal:
    """D(x, y) = kappa(x) - kappa(y) - <grad kappa(y), x - y>.

    Total on pairs: +inf when y is not interior or x lies outside the domain.
    Tiny negative values from roundoff are floored at zero.
    """
    x, y = float(x), float(y)
    if not k.domain.interior_contains(y):
        return ExtReal(math.inf)
    kx = k.eval(x)
    if not kx.is_finite:
        return ExtReal(math.inf)
    d = float(kx) - float(k.eval(y)) - k.grad(y) * (x - y)
    if -1e-9 < d < 0.0:
        d = 0.0
    return ExtReal(d)


def dual_distance(k: Kernel, xi: float, eta: float) -> ExtReal:
    """Bregman distance generated by the conjugate kernel.

    Satisfies D(x, y) = D*(grad kappa(y), grad kappa(x)) on interior pairs for
    Legendre kernels.
    """
    if not k.is_legendre:
        raise NotLegendreError(f"{k.name} is not Legendre")
    xi, eta = float(xi), float(eta)
    if not k.conj_domain.interior_contains(eta):
        return ExtReal(math.inf)
    cxi = k.conj_eval(xi)
    if not cxi.is_finite:
        return ExtReal(math.inf)
    d = float(cxi) - float(k.conj_eval(eta)) - k.grad_conj(eta) * (xi - eta)
    if -1e-9 < d < 0.0:
        d = 0.0
    return ExtReal(d)


def symmetrized_gap(k: Kernel, x1: float, x2: float) -> float:
    """(grad kappa(x1) - grad kappa(x2)) * (x1 - x2), nonnegative by convexity."""
    if not (k.domain.interior_contains(float(x1)) and k.domain.interior_contains(float(x2))):
        raise OutsideInteriorError("symmetrized gap needs interior points")
    return (k.grad(x1) - k.grad(x2)) * (float(x1) - float(x2))


def three_point_residual(k: Kernel, x: float, y: float, z: float) -> float:
    """|D(x,z) - D(x,y) - D(y,z) - (x-y)(grad kappa(y) - grad kappa(z))|.

    Zero in exact arithmetic for x in the domain and y, z interior.
    """
    dxz = bregman_distance(k, x, z)
    dxy = bregman_distance(k, x, y)
    dyz = bregman_distance(k, y, z)
    if not (dxz.is_finite and dxy.is_finite and dyz.is_finite):
        return math.inf
    cross = (float(x) - float(y)) * (k.grad(y) - k.grad(z))
    return abs(float(dxz) - float(dxy) - float(dyz) - cross)


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
        conj_arr=lambda e: L * k.conj_arr(np.asarray(e, dtype=float) / L),
        grad_conj_arr=lambda e: k.grad_conj_arr(np.asarray(e, dtype=float) / L),
        is_legendre=k.is_legendre,
        is_one_coercive=k.is_one_coercive,
        grad_range=Interval(L * gr.lo, L * gr.hi, gr.lo_closed, gr.hi_closed),
        conj_domain=Interval(L * k.conj_domain.lo, L * k.conj_domain.hi,
                             k.conj_domain.lo_closed, k.conj_domain.hi_closed),
        sample_window=k.sample_window,
        grad_lipschitz=None if k.grad_lipschitz is None else L * k.grad_lipschitz,
    )


def conjugate_by_grid(k: Kernel, eta: float, n: int = 4001) -> float:
    """kappa*(eta) = sup_x eta x - kappa(x) by grid search plus refinement.

    Independent of the closed-form conjugates; used to cross-check them.
    """
    return grid_conjugate(k.eval_many, build_grid(k.domain, n=n, window=k.sample_window), eta)


def grad_conj_by_inversion(k: Kernel, eta: float) -> float:
    """Evaluate (grad kappa)^{-1} by monotone bisection.

    Generic fallback for kernels lacking a closed-form gradient inverse, and
    the independent route for cross-checking the closed forms.
    """
    wlo, whi = k.sample_window
    span = whi - wlo
    interior = Interval(k.domain.lo, k.domain.hi, False, False)
    return monotone_invert(k.grad, float(eta),
                           (wlo + 1e-6 * span, whi - 1e-6 * span),
                           domain=interior)
