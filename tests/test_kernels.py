import math

import numpy as np
import pytest

from bregmanprox.errors import NotLegendreError, OutsideInteriorError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import (ALL_KERNELS, BURG, CUBIC_ABS, ENERGY,
                                 HELLINGER, LEGENDRE_KERNELS, QUARTIC, SHANNON,
                                 Kernel, bregman_distance, conjugate_by_grid,
                                 dual_distance, scale_kernel, symmetrized_gap,
                                 three_point_residual)
from bregmanprox.numerics import finite_diff_grad, second_difference_convexity_test


def interior_samples(k, n, rng, inset=1e-3):
    lo, hi = k.sample_window
    span = hi - lo
    return lo + inset * span + (1 - 2 * inset) * span * rng.random(n)


def dual_interior_samples(k, n, rng):
    """n points of int dom kappa*, spread over several orders of magnitude."""
    mag = 10.0 ** rng.uniform(-6.0, 2.0, n)
    if k.conj_domain.hi == 0.0:
        return -mag
    return mag * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_grad_conj_array_equals_scalar_bit_for_bit(k):
    etas = dual_interior_samples(k, 2000, np.random.default_rng(8))
    arr = k.grad_conj(etas)
    assert isinstance(arr, np.ndarray) and arr.shape == etas.shape
    scalar = [k.grad_conj(float(e)) for e in etas]
    assert all(type(v) is float for v in scalar)
    assert [float(v).hex() for v in arr] == [v.hex() for v in scalar]


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_grad_conj_array_names_the_non_interior_eta(k):
    bad = k.conj_domain.hi  # 0 for Burg, +inf for the whole-line conjugates
    etas = np.concatenate([dual_interior_samples(k, 5, np.random.default_rng(2)),
                           [bad], dual_interior_samples(k, 5, np.random.default_rng(3))])
    with pytest.raises(OutsideInteriorError, match=f"^{bad} not in the interior"):
        k.grad_conj(etas)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_grad_matches_finite_differences(k):
    rng = np.random.default_rng(1)
    for x in interior_samples(k, 30, rng, inset=2e-2):
        x = float(x)
        fd = finite_diff_grad(lambda t: float(k.eval(t)), x, 1e-6)
        assert abs(k.grad(x) - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("k", LEGENDRE_KERNELS, ids=lambda k: k.name)
def test_grad_conj_inverts_grad(k):
    rng = np.random.default_rng(2)
    for x in interior_samples(k, 50, rng, inset=5e-3):
        x = float(x)
        assert abs(k.grad_conj(k.grad(x)) - x) <= 1e-8 * max(1.0, abs(x))


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_conjugate_closed_form_vs_grid(k):
    # independent route: numerical sup of eta x - kappa(x)
    rng = np.random.default_rng(3)
    for _ in range(12):
        x = float(interior_samples(k, 1, rng, inset=0.1)[0])
        eta = k.grad(x)  # guarantees the sup is attained inside the window
        closed = float(k.conj_eval(eta))
        grid = conjugate_by_grid(k, eta)
        assert abs(closed - grid) <= 1e-6 * max(1.0, abs(closed))


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_eval_convex_on_samples(k):
    lo, hi = k.sample_window
    span = hi - lo
    lo_s = lo + (1e-6 * span if not k.domain.contains(lo) else 0.0)
    xs = np.linspace(lo_s, hi, 201)
    vals = k.eval_many(xs)
    finite = np.isfinite(vals)
    ok, worst, _ = second_difference_convexity_test(
        xs[finite], vals[finite], tol=1e-9)
    assert ok, f"{k.name} second difference {worst}"


# -- Bregman distance --------------------------------------------------------

def test_distance_energy():
    assert float(bregman_distance(ENERGY, 3.0, 1.0)) == pytest.approx(2.0)


def test_distance_burg_hand_value():
    # -ln x + ln y + (x - y)/y at (2, 1) = 1 - ln 2
    d = float(bregman_distance(BURG, 2.0, 1.0))
    assert d == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_distance_zero_at_diagonal(k):
    x = 0.5 if k.domain.contains(0.5) else 0.5
    assert float(bregman_distance(k, x, x)) == 0.0


def test_distance_infinite_outside():
    assert float(bregman_distance(HELLINGER, 0.5, 1.0)) == math.inf  # y boundary
    assert float(bregman_distance(HELLINGER, 2.0, 0.0)) == math.inf  # x outside
    assert float(bregman_distance(BURG, 1.0, -1.0)) == math.inf


@pytest.mark.parametrize("k", LEGENDRE_KERNELS, ids=lambda k: k.name)
def test_distance_nonnegative_zero_iff_equal(k):
    rng = np.random.default_rng(4)
    xs = interior_samples(k, 40, rng)
    ys = interior_samples(k, 40, rng)
    for x, y in zip(xs, ys):
        d = float(bregman_distance(k, float(x), float(y)))
        assert d >= 0.0
        if abs(x - y) > 1e-4:
            assert d > 0.0


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_distance_convex_in_first_slot(k):
    rng = np.random.default_rng(5)
    lo, hi = k.sample_window
    span = hi - lo
    lo_s = lo + (1e-4 * span if not k.domain.contains(lo) else 0.0)
    xs = np.linspace(lo_s, hi, 81)
    kx = k.eval_many(xs)
    for y in interior_samples(k, 200, rng, inset=1e-2):
        y = float(y)
        vals = kx - float(k.eval(y)) - k.grad(y) * (xs - y)
        finite = np.isfinite(vals)
        ok, worst, _ = second_difference_convexity_test(
            xs[finite], vals[finite], tol=1e-8)
        assert ok, f"{k.name} at y={y}: {worst}"


# -- dual distance ------------------------------------------------------------

def test_dual_energy_self_dual():
    assert float(dual_distance(ENERGY, 3.0, 1.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("k,x,y", [
    (HELLINGER, 0.3, -0.2),
    (SHANNON, 2.0, 1.0),
    (QUARTIC, 1.3, 0.4),
])
def test_dual_identity_spot(k, x, y):
    lhs = float(bregman_distance(k, x, y))
    rhs = float(dual_distance(k, k.grad(y), k.grad(x)))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


@pytest.mark.parametrize("k", LEGENDRE_KERNELS, ids=lambda k: k.name)
def test_dual_identity_random_pairs(k):
    rng = np.random.default_rng(6)
    xs = interior_samples(k, 200, rng)
    ys = interior_samples(k, 200, rng)
    for x, y in zip(xs, ys):
        lhs = float(bregman_distance(k, float(x), float(y)))
        rhs = float(dual_distance(k, k.grad(float(y)), k.grad(float(x))))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_dual_requires_legendre():
    flat = Kernel(
        name="flat", domain=Interval.reals(),
        eval_arr=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        grad_arr=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        conj_arr=lambda e: np.where(np.asarray(e, dtype=float) == 0.0, 0.0, np.inf),
        grad_conj_arr=lambda e: np.zeros_like(np.asarray(e, dtype=float)),
        is_legendre=False, is_one_coercive=False,
        grad_range=Interval(0.0, 0.0), conj_domain=Interval(0.0, 0.0),
        sample_window=(-1.0, 1.0))
    with pytest.raises(NotLegendreError):
        dual_distance(flat, 0.0, 0.0)


# -- symmetrized gap ----------------------------------------------------------

def test_gap_energy():
    assert symmetrized_gap(ENERGY, 1.0, 0.0) == pytest.approx(1.0)


def test_gap_quartic_hand_value():
    assert symmetrized_gap(QUARTIC, 2.0, 1.0) == pytest.approx(7.0)


def test_gap_zero_at_diagonal():
    for k in ALL_KERNELS:
        assert symmetrized_gap(k, 0.5, 0.5) == 0.0


def test_gap_outside_interior():
    with pytest.raises(OutsideInteriorError):
        symmetrized_gap(HELLINGER, 1.0, 0.0)


# -- three point identity -----------------------------------------------------

def test_three_point_energy_exact():
    assert three_point_residual(ENERGY, 1.0, 2.0, 3.0) == 0.0


@pytest.mark.parametrize("k,x,y,z", [
    (SHANNON, 2.0, 1.0, 0.5),
    (HELLINGER, 0.9, 0.1, -0.5),
])
def test_three_point_spot(k, x, y, z):
    assert three_point_residual(k, x, y, z) <= 1e-10


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_three_point_random(k):
    rng = np.random.default_rng(8)
    xs = interior_samples(k, 200, rng)
    ys = interior_samples(k, 200, rng)
    zs = interior_samples(k, 200, rng)
    for x, y, z in zip(xs, ys, zs):
        assert three_point_residual(k, float(x), float(y), float(z)) <= 1e-10


# -- scaling -------------------------------------------------------------------

def test_scale_kernel_roundtrip():
    k2 = scale_kernel(HELLINGER, 2.0)
    for x in (-0.7, 0.0, 0.4):
        assert float(k2.eval(x)) == pytest.approx(2.0 * float(HELLINGER.eval(x)))
        assert k2.grad(x) == pytest.approx(2.0 * HELLINGER.grad(x))
        assert abs(k2.grad_conj(k2.grad(x)) - x) < 1e-9


def test_scale_kernel_conjugate_vs_grid():
    k3 = scale_kernel(QUARTIC, 3.0)
    for eta in (-2.0, 0.5, 4.0):
        assert float(k3.conj_eval(eta)) == pytest.approx(
            conjugate_by_grid(k3, eta), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("k", LEGENDRE_KERNELS, ids=lambda k: k.name)
def test_grad_conj_closed_form_vs_inversion(k):
    from bregmanprox.kernels import grad_conj_by_inversion
    rng = np.random.default_rng(9)
    for x in interior_samples(k, 8, rng, inset=0.05):
        eta = k.grad(float(x))
        assert grad_conj_by_inversion(k, eta) == pytest.approx(
            k.grad_conj(eta), abs=1e-8)
