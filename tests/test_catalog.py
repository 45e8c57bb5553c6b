import math

import numpy as np
import pytest

from bregmanprox.catalog import (F_ZERO, Instance, get_instance,
                                 instance_names, shift_scale)
from bregmanprox.errors import UnknownInstanceError
from bregmanprox.kernels import BURG, CUBIC_ABS, ENERGY, HELLINGER, QUARTIC
from bregmanprox.numerics import second_difference_convexity_test
from bregmanprox.proxenv import detect_unbounded


@pytest.mark.parametrize("name", instance_names())
def test_eval_array_equals_scalar_bit_for_bit(name):
    fn = get_instance(name).fn
    lo, hi = fn.window
    span = hi - lo
    # the window, a margin outside it, and the finite domain endpoints
    xs = np.concatenate([np.linspace(lo - 0.1 * span, hi + 0.1 * span, 2000),
                         [b for b in (fn.domain.lo, fn.domain.hi) if math.isfinite(b)]])
    arr = fn.eval(xs)
    assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
    scalar = [fn.eval(float(x)) for x in xs]
    assert all(type(v) is float for v in scalar)
    assert [float(v).hex() for v in arr] == [v.hex() for v in scalar]


def test_ex310_entry():
    inst = get_instance("ex310")
    assert inst.kernel is HELLINGER and inst.lam == 1.0
    assert float(inst.fn.eval(0.5)) == pytest.approx(0.5 * math.sqrt(0.75))
    assert float(inst.fn.eval(1.0)) == pytest.approx(0.0)


def test_ex411_entry():
    inst = get_instance("ex411")
    assert inst.kernel is HELLINGER and inst.lam == 2.0
    assert float(inst.fn.eval(0.5)) == pytest.approx(0.5)
    # ambient domain matches the kernel: +inf on [-1, 0), defined at -1
    assert float(inst.fn.eval(-0.5)) == math.inf
    assert float(inst.fn.eval(-1.0)) == math.inf
    assert float(inst.fn.eval(0.0)) == 0.0


def test_ex_ln_entry():
    inst = get_instance("ex_ln")
    assert inst.kernel is BURG
    assert inst.lam == 0.5
    assert inst.fn.pb_threshold == 1.0


def test_ex419_entry():
    inst = get_instance("ex419")
    assert inst.kernel is QUARTIC
    x = 1.7
    assert float(inst.fn.eval(x)) == pytest.approx(0.25 * (x - 1) ** 4 - 0.25 * x ** 4)
    # the products agree with the np.power form; its two terms cancel (by up
    # to 5 ulps of |f| near x = -7.3), so the bound is 4 ulps of their sum
    xs = np.concatenate([np.linspace(-8.0, 8.0, 4001), [0.0, 1.0]])  # the window is [-8, 8]
    a, b = 0.25 * np.power(xs - 1.0, 4), 0.25 * np.power(xs, 4)
    gap = np.abs(inst.fn.eval(xs) - (a - b))
    assert (gap <= 4 * np.finfo(float).eps * np.maximum(1.0, a + b)).all()
    assert (inst.fn.eval(np.array([-math.inf, math.inf, math.nan])) == math.inf).all()
    assert inst.fn.eval(math.nan) == math.inf


def test_ex420_entry():
    inst = get_instance("ex420")
    assert inst.kernel is CUBIC_ABS
    assert float(inst.fn.eval(-2.5)) == -2.5


def test_bsmooth_counter_boundary_values():
    inst = get_instance("bsmooth_counter")
    assert float(inst.fn.eval(1.0)) == -1.0
    assert float(inst.fn.eval(-1.0)) == -1.0
    assert float(inst.fn.eval(0.999)) == pytest.approx(math.sqrt(1 - 0.999 ** 2))


def test_euclid_abs_entry():
    inst = get_instance("euclid_abs")
    assert inst.kernel is ENERGY
    assert float(inst.fn.eval(-3.0)) == 3.0


def test_unknown_instance():
    with pytest.raises(UnknownInstanceError):
        get_instance("nosuch")


def test_lambda_above_threshold_rejected():
    fn = get_instance("ex_ln").fn
    with pytest.raises(ValueError):
        Instance("bad", BURG, fn, 1.5)


# -- properness and lower semicontinuity spot checks --------------------------

@pytest.mark.parametrize("name", instance_names())
def test_proper_on_window(name):
    inst = get_instance(name)
    lo, hi = inst.fn.window
    xs = np.linspace(lo + 1e-9 * (hi - lo), hi, 501)
    vals = inst.fn.eval(xs)
    assert np.isfinite(vals).any()
    assert not (vals == -math.inf).any()


@pytest.mark.parametrize("name", instance_names())
def test_lsc_spot_checks(name):
    # liminf check: the value may not jump above nearby values; the tolerance
    # self-calibrates on the observed ring variation (local slope scale)
    inst = get_instance(name)
    lo, hi = inst.fn.window
    span = hi - lo
    rng = np.random.default_rng(11)
    pts = lo + span * rng.random(50)
    delta = 1e-6 * span
    offs = delta * (0.5 + 0.5 * np.arange(1, 21) / 20)
    for x0 in map(float, pts):
        f0 = float(inst.fn.eval(x0))
        ring = inst.fn.eval(np.concatenate([x0 - offs, x0 + offs]))
        finite = ring[np.isfinite(ring)]
        if math.isinf(f0):
            assert finite.size == 0
        elif finite.size:
            spread = float(finite.max() - finite.min())
            assert f0 <= float(finite.min()) + 2 * spread + 1e-9 * max(1.0, abs(f0))


# Whether f is convex on its window: the paper's examples and the closed forms.
F_CONVEX = {
    "ex310": False, "ex411": False, "ex_ln": False, "ex419": False, "ex420": True,
    "bsmooth_counter": False, "euclid_abs": True, "euclid_zero": True,
    "euclid_sq": True, "euclid_abs_strong": True, "shannon_abs": True,
    "hell_halfk": False, "burg_linear": True,
}


@pytest.mark.parametrize("name", instance_names())
def test_convexity_annotations(name):
    inst = get_instance(name)
    lo, hi = inst.fn.window
    xs = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 201)
    vals = inst.fn.eval(xs)
    finite = np.isfinite(vals)
    idx = np.nonzero(finite)[0]
    if (np.diff(idx) > 1).any():
        assert F_CONVEX[name] is False
        return
    ok, _, _ = second_difference_convexity_test(
        xs[idx], vals[idx], tol=1e-7)
    assert ok == F_CONVEX[name]


def test_ex_ln_threshold_behavior():
    fn = get_instance("ex_ln").fn
    assert not detect_unbounded(BURG, fn, 0.9, 1.0)
    assert detect_unbounded(BURG, fn, 1.1, 1.0)


# -- shift and scale -----------------------------------------------------------

def test_shift_scale_constant():
    g = shift_scale(F_ZERO, 0.0, 1.0, 5.0)
    assert float(g.eval(0.3)) == 5.0


def test_shift_scale_abs():
    from bregmanprox.catalog import F_ABS
    g = shift_scale(F_ABS, 0.3, 1.0, 0.0)
    assert float(g.eval(0.3)) == 0.0
    assert float(g.eval(1.3)) == pytest.approx(1.0)


def test_shift_scale_log():
    fn = get_instance("ex_ln").fn
    g = shift_scale(fn, 0.0, 1.0, 2.0)
    assert float(g.eval(1.0)) == pytest.approx(2.0)
    # domain translated: still undefined at 0
    assert float(g.eval(0.0)) == math.inf


def test_shift_scale_threshold_scales():
    fn = get_instance("ex_ln").fn
    g = shift_scale(fn, 0.0, 2.0, 0.0)
    assert g.pb_threshold == pytest.approx(0.5)


def test_shift_scale_requires_positive_scale():
    with pytest.raises(ValueError):
        shift_scale(F_ZERO, 0.0, -1.0, 0.0)
