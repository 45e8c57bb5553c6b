"""Named test functions and (kernel, function, lambda) instances.

Instance names are the stable identifiers used by the CLI and the harness.
Functions are stored as vectorized closures plus metadata; serialization is
by name only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownInstanceError
from .extreal import Interval
from .kernels import (BURG, CUBIC_ABS, ENERGY, HELLINGER, QUARTIC, SHANNON,
                      Kernel, _coerce, _masked)

__all__ = ["ProperFn", "Instance", "get_instance", "instance_names",
           "shift_scale", "F_ZERO", "F_ABS"]


@dataclass(frozen=True, eq=False)
class ProperFn:
    """An extended-real-valued function on an interval (its ambient domain).

    ``eval_arr`` is vectorized and returns +inf outside the effective domain.
    ``deriv`` is an optional closed-form derivative used as a test oracle,
    and ``pb_threshold`` the prox-boundedness threshold with the catalog
    kernel it is paired with, when known. ``window`` is the finite working
    range for grids.
    """

    name: str
    domain: Interval
    eval_arr: Callable[[np.ndarray], np.ndarray]
    window: tuple[float, float]
    deriv: Callable[[float], float] | None = None
    pb_threshold: float | None = None

    def eval(self, x):
        """f at a float (a float) or at an array of points (an array)."""
        return _coerce(x, (self.eval_arr, self.name))[0]

    def __repr__(self):
        return f"ProperFn({self.name})"


@dataclass(frozen=True, eq=False)
class Instance:
    """A kernel / function / lambda triple."""

    name: str
    kernel: Kernel
    fn: ProperFn
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        t = self.fn.pb_threshold
        if t is not None and not self.lam < t:
            raise ValueError(f"lambda {self.lam} not below threshold {t}")

    def __repr__(self):
        return f"Instance({self.name})"


def _fn(name, domain, formula, window, deriv=None, threshold=None):
    return ProperFn(name, domain, _masked(domain, formula), window, deriv, threshold)


F_ZERO = _fn("zero", Interval.reals(), lambda x: np.zeros_like(x),
             window=(-8.0, 8.0), deriv=lambda x: 0.0, threshold=math.inf)

F_ABS = _fn("abs", Interval.reals(), np.abs, window=(-8.0, 8.0), threshold=math.inf)


def shift_scale(fn: ProperFn, a: float, b: float, c: float) -> ProperFn:
    """x -> b * fn(x - a) + c with the domain translated by a. Requires b > 0."""
    if b <= 0:
        raise ValueError("scale b must be positive")
    dom = Interval(fn.domain.lo + a, fn.domain.hi + a, fn.domain.lo_closed, fn.domain.hi_closed)
    deriv = None if fn.deriv is None else (lambda x: b * fn.deriv(x - a))
    thr = None if fn.pb_threshold is None else fn.pb_threshold / b
    return ProperFn(
        name=f"{fn.name}_shifted",
        domain=dom,
        eval_arr=lambda x: b * fn.eval_arr(x - a) + c,
        window=(fn.window[0] + a, fn.window[1] + a),
        deriv=deriv,
        pb_threshold=thr,
    )


# ---------------------------------------------------------------------------
# Catalog entries.  Windows are the finite ranges where all the action of the
# paired kernel/function lives; bounded kernel domains use the domain itself.
# ---------------------------------------------------------------------------

def _unit(x):
    return np.sqrt(np.maximum(1.0 - np.square(x), 0.0))


_HELL_DOM = Interval(-1.0, 1.0)

_F_EX310 = _fn(
    "tilted_semicircle", _HELL_DOM, lambda x: x * _unit(x), window=(-1.0, 1.0),
    deriv=lambda x: (1.0 - 2.0 * x * x) / math.sqrt(1.0 - x * x), threshold=math.inf,
)

# Upper semicircle of radius 1/2 centered at 1/2, +inf on [-1, 0) so the
# ambient domain matches the Hellinger kernel's.
_F_EX411 = _fn(
    "offset_semicircle", _HELL_DOM,
    lambda x: np.where((x >= 0.0) & (x <= 1.0),
                       np.sqrt(np.maximum(x * (1.0 - x), 0.0)), np.inf),
    window=(-1.0, 1.0), threshold=math.inf,
)

_F_LN = _fn(
    "log", Interval(0.0, math.inf, False, False), np.log, window=(0.0, 12.0),
    deriv=lambda x: 1.0 / x, threshold=1.0,
)

_F_EX419 = _fn(
    "quartic_gap", Interval.reals(),
    lambda x: 0.25 * np.square(np.square(x - 1.0)) - 0.25 * np.square(np.square(x)),
    window=(-8.0, 8.0),
    deriv=lambda x: (x - 1.0) ** 3 - x ** 3, threshold=math.inf,
)

_F_LINEAR = _fn(
    "identity", Interval.reals(), lambda x: np.asarray(x, dtype=float),
    window=(-8.0, 8.0), deriv=lambda x: 1.0, threshold=math.inf,
)


def _bsmooth_eval(x):
    v = np.where(np.abs(x) < 1.0, _unit(x), -1.0)
    return np.where(np.abs(x) > 1.0, np.inf, v)


# Upper unit semicircle on the open interval, but forced to -1 at |x| = 1:
# lsc, yet its boundary values disagree with the interior limits.
_F_BSMOOTH = ProperFn("semicircle_dropped_ends", _HELL_DOM, _bsmooth_eval,
                      window=(-1.0, 1.0), pb_threshold=math.inf)

_F_HALFK = _fn(
    "half_semicircle", _HELL_DOM, lambda x: 0.5 * _unit(x), window=(-1.0, 1.0),
    deriv=lambda x: -0.5 * x / math.sqrt(1.0 - x * x), threshold=math.inf,
)

_F_SQ = _fn("square", Interval.reals(), np.square, window=(-8.0, 8.0),
            deriv=lambda x: 2.0 * x, threshold=math.inf)

_F_ABS_STRONG = _fn(
    "abs_plus_halfsq", Interval.reals(), lambda x: np.abs(x) + 0.5 * np.square(x),
    window=(-8.0, 8.0), threshold=math.inf,
)

_F_ABS_SHIFT1 = _fn(
    "abs_about_one", Interval(0.0, math.inf, True, False),
    lambda x: np.abs(x - 1.0), window=(0.0, 12.0), threshold=math.inf,
)

_CATALOG: dict[str, Instance] = {}


def _register(inst: Instance):
    _CATALOG[inst.name] = inst
    return inst


_register(Instance("ex310", HELLINGER, _F_EX310, 1.0))
_register(Instance("ex411", HELLINGER, _F_EX411, 2.0))
_register(Instance("ex_ln", BURG, _F_LN, 0.5))
_register(Instance("ex419", QUARTIC, _F_EX419, 1.0))
_register(Instance("ex420", CUBIC_ABS, _F_LINEAR, 1.0))
_register(Instance("bsmooth_counter", HELLINGER, _F_BSMOOTH, 1.0))
_register(Instance("euclid_abs", ENERGY, F_ABS, 1.0))
_register(Instance("euclid_zero", ENERGY, F_ZERO, 1.0))
_register(Instance("euclid_sq", ENERGY, _F_SQ, 1.0))
_register(Instance("euclid_abs_strong", ENERGY, _F_ABS_STRONG, 1.0))
_register(Instance("shannon_abs", SHANNON, _F_ABS_SHIFT1, 1.0))
_register(Instance("hell_halfk", HELLINGER, _F_HALFK, 1.0))
_register(Instance("burg_linear", BURG, _F_LINEAR, 1.0))


def get_instance(name: str) -> Instance:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownInstanceError(name) from None


def instance_names() -> list[str]:
    return list(_CATALOG)
