import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bregmanprox.catalog import ProperFn, get_instance, instance_names
from bregmanprox.errors import InfMinusInfError, NotLegendreError, OutsideInteriorError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import (ALL_KERNELS, BURG, CUBIC_ABS, ENERGY,
                                 HELLINGER, LEGENDRE_KERNELS, QUARTIC, SHANNON,
                                 Kernel, _coerce, bregman_distance, conjugate_by_grid,
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
    """eval, grad, conj_eval and grad_conj: an array gives the bits of one
    float call per point, and each float call gives a plain ``float``."""
    lo, hi = k.sample_window
    span = hi - lo
    around = np.concatenate([np.linspace(lo - span, hi + span, 2000),  # +inf outside
                             [0.0, -math.inf, math.inf, math.nan]])
    primal = interior_samples(k, 2000, np.random.default_rng(8))
    etas = dual_interior_samples(k, 2000, np.random.default_rng(8))
    for method, pts in (("eval", around), ("grad", primal),
                        ("conj_eval", around), ("grad_conj", etas)):
        fn = getattr(k, method)
        arr = fn(pts)
        assert isinstance(arr, np.ndarray) and arr.shape == pts.shape, method
        scalar = [fn(float(p)) for p in pts]
        assert all(type(v) is float for v in scalar), method
        assert [float(v).hex() for v in arr] == [float(v).hex() for v in scalar], method


@pytest.mark.parametrize("k, method, pow_form", [
    (QUARTIC, "eval", lambda x: 0.25 * np.power(x, 4)),
    (QUARTIC, "grad", lambda x: np.power(x, 3)),
    (CUBIC_ABS, "eval", lambda x: np.power(np.abs(x), 3) / 3.0),
], ids=["quartic-eval", "quartic-grad", "cubic_abs-eval"])
def test_integral_powers_agree_with_the_pow_forms(k, method, pow_form):
    """The closed forms write integral powers as products; they stay within
    4 ulps * max(1, |v|) of np.power, infinities included, and NaN still
    reads as +inf."""
    mags = 10.0 ** np.linspace(-8.0, 8.0, 161)
    xs = np.concatenate([np.linspace(-8.0, 8.0, 4001), mags, -mags,
                         [0.0, -math.inf, math.inf]])
    ref, v = pow_form(xs), getattr(k, f"{method}_arr")(xs)
    inf = np.isinf(ref)
    assert (v[inf] == ref[inf]).all()
    gap = np.abs(v[~inf] - ref[~inf])
    assert (gap <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref[~inf]))).all()
    if method == "eval":
        assert k.eval(math.nan) == math.inf


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_grad_conj_array_names_the_non_interior_eta(k):
    bad = k.conj_domain.hi  # 0 for Burg, +inf for the whole-line conjugates
    etas = np.concatenate([dual_interior_samples(k, 5, np.random.default_rng(2)),
                           [bad], dual_interior_samples(k, 5, np.random.default_rng(3))])
    with pytest.raises(OutsideInteriorError, match=f"^{bad} not in the interior"):
        k.grad_conj(etas)
    bad = k.domain.lo  # closed for Shannon, so in the domain but not interior
    xs = np.concatenate([interior_samples(k, 5, np.random.default_rng(2)),
                         [bad], interior_samples(k, 5, np.random.default_rng(3))])
    with pytest.raises(OutsideInteriorError, match=f"^{bad} not in the interior"):
        k.grad(xs)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_gradients_of_an_array_are_a_new_array(k):
    for method, pts in (("grad", interior_samples(k, 50, np.random.default_rng(4))),
                        ("grad_conj", dual_interior_samples(k, 50, np.random.default_rng(4)))):
        keep = pts.copy()
        out = getattr(k, method)(pts)
        assert out is not pts, method
        out[:] = 0.0
        assert (pts == keep).all(), method


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
    vals = k.eval(xs)
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
    assert float(dual_distance(BURG, -1.0, 0.5)) == math.inf  # eta outside (-inf, 0)
    assert three_point_residual(HELLINGER, 0.1, 1.0, 0.3) == math.inf  # y on the boundary
    assert three_point_residual(HELLINGER, 0.1, 0.2, -1.0) == math.inf  # z on the boundary


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
    kx = k.eval(xs)
    for y in interior_samples(k, 200, rng, inset=1e-2):
        y = float(y)
        vals = kx - float(k.eval(y)) - k.grad(y) * (xs - y)
        finite = np.isfinite(vals)
        ok, worst, _ = second_difference_convexity_test(
            xs[finite], vals[finite], tol=1e-8)
        assert ok, f"{k.name} at y={y}: {worst}"


def _count_interior_checks(monkeypatch):
    calls = []
    real = Interval.interior_contains

    def counted(self, x, *args, **kwargs):
        calls.append(x)
        return real(self, x, *args, **kwargs)

    monkeypatch.setattr(Interval, "interior_contains", counted)
    return calls


@pytest.mark.parametrize("helper, args, checks", [
    (bregman_distance, (0.2, 0.3), 1),
    (dual_distance, (0.1, 0.2), 1),
    (three_point_residual, (0.1, 0.2, 0.3), 3),
], ids=lambda v: getattr(v, "__name__", None))
def test_distance_helpers_check_each_point_once(monkeypatch, helper, args, checks):
    k = HELLINGER
    # the same formulas through the checked accessors, which test once more
    if helper is bregman_distance:
        x, y = args
        expected = float(k.eval(x)) - float(k.eval(y)) - k.grad(y) * (x - y)
    elif helper is dual_distance:
        xi, eta = args
        expected = (float(k.conj_eval(xi)) - float(k.conj_eval(eta))
                    - k.grad_conj(eta) * (xi - eta))
    else:
        x, y, z = args
        expected = abs(float(bregman_distance(k, x, z)) - float(bregman_distance(k, x, y))
                       - float(bregman_distance(k, y, z)) - (x - y) * (k.grad(y) - k.grad(z)))
    calls = _count_interior_checks(monkeypatch)
    assert float(helper(k, *args)).hex() == expected.hex()
    assert len(calls) == checks
    # any number of points: still one test per distance call
    calls.clear()
    out = helper(k, *(np.full(7, a) for a in args))
    assert [v.hex() for v in out.tolist()] == [expected.hex()] * 7
    assert len(calls) == checks


def _with_edges(dom: Interval, inner: np.ndarray) -> np.ndarray:
    """``inner``, then each finite end of ``dom`` and a point past it, the
    infinities and NaN: points on the boundary and outside the domain."""
    edges = []
    if math.isfinite(dom.lo):
        edges += [dom.lo, dom.lo - 0.5]
    if math.isfinite(dom.hi):
        edges += [dom.hi, dom.hi + 0.5]
    return np.concatenate([inner, edges, [-math.inf, math.inf, math.nan]])


def _same_bits_as_float_calls(helper, k, *args):
    """``helper(k, *args)`` on arrays broadcast together is an array of the
    broadcast shape holding the bits of one float call per point, and each
    float call gives a plain ``float``."""
    out = helper(k, *args)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    assert isinstance(out, np.ndarray) and out.shape == shape
    points = zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in args))
    floats = [helper(k, *p) for p in points]
    assert all(type(v) is float for v in floats)
    assert [v.hex() for v in out.ravel().tolist()] == [v.hex() for v in floats]
    return out


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_distance_helpers_on_arrays_equal_the_float_calls_bit_for_bit(k):
    """The distances and the three-point residual at every (n, 1) x (n,)
    pair of points inside, on and outside the domain, and the symmetrized
    gap at interior pairs: the bits of the float calls, +inf where a first
    point lies outside the domain or a second one off its interior."""
    rng = np.random.default_rng(11)
    inner = interior_samples(k, 10, rng)
    xs = _with_edges(k.domain, inner)
    d = _same_bits_as_float_calls(bregman_distance, k, xs[:, None], xs)
    off = ~k.domain.contains(xs)[:, None] | ~k.domain.interior_contains(xs)
    assert (np.isposinf(d) == off).all()
    assert (d[~off] >= 0.0).all()
    etas = _with_edges(k.conj_domain, dual_interior_samples(k, 10, rng))
    dd = _same_bits_as_float_calls(dual_distance, k, etas[:, None], etas)
    assert (np.isposinf(dd) == (~k.conj_domain.contains(etas)[:, None]
                                | ~k.conj_domain.interior_contains(etas))).all()
    r = _same_bits_as_float_calls(three_point_residual, k, xs[:, None], xs, rng.permutation(xs))
    assert (r[np.isfinite(r)] <= 1e-10).all()
    gap = _same_bits_as_float_calls(symmetrized_gap, k, inner[:, None], inner)
    assert (gap >= 0.0).all()
    with pytest.raises(OutsideInteriorError, match="not in the interior"):
        symmetrized_gap(k, inner[:, None], xs)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_gradient_of_nan_names_the_point(k):
    with pytest.raises(OutsideInteriorError, match="^nan not in the interior"):
        k.grad(math.nan)
    with pytest.raises(OutsideInteriorError, match="^nan not in the interior"):
        k.grad_conj(math.nan)


def test_a_nan_value_at_a_point_raises_naming_it():
    """log x - log x on [0, inf) is -inf - -inf at x = 0, inside the domain:
    a function value, kernel value or conjugate value that is NaN at a point
    that is not NaN raises, naming the function and the point, for a float
    and inside an array. A NaN point lies in no domain and still reads +inf."""
    def loglog(x):
        return np.log(x) - np.log(x)

    dom = Interval(0.0, math.inf, True, False)
    fn = ProperFn("loglog", dom, loglog, (0.0, 8.0))
    k = dataclasses.replace(SHANNON, name="loglog", eval_arr=loglog, conj_arr=loglog)
    for ev, name in ((fn.eval, "loglog"), (k.eval, "loglog"), (k.conj_eval, "loglog*")):
        assert ev(2.0) == 0.0
        for x in (0.0, np.array([1.0, math.nan, 0.0, 0.0])):
            with pytest.raises(InfMinusInfError, match=rf"^{re.escape(name)} is NaN at 0\.0[ :,]"):
                ev(x)
        assert ev(math.nan) == math.inf
        assert ev(np.array([2.0, math.nan])).tolist() == [0.0, math.inf]


def _made_up(value_at_one):
    """x, except ``value_at_one`` at x = 1."""
    return lambda x: np.where(x == 1.0, value_at_one, x)


def test_f_and_kappa_share_one_nan_rule_and_keep_their_own_errors():
    """One pass evaluates f and kappa together at the same points with one
    NaN test on the sum of their values; where it fires each value takes its
    own function's rule. A NaN value raises naming its function, a NaN point
    reads +inf in both, opposite infinities pass as they are (the sum's NaN
    is no value's), a float gives floats, and a 2-D block reaches the
    formulas as 1-D points."""
    xs = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InfMinusInfError, match=r"^f_made_up is NaN at 1\.0:"):
        _coerce(xs, (_made_up(np.nan), "f_made_up"), (_made_up(0.0), "kappa_made_up"))
    with pytest.raises(InfMinusInfError, match=r"^kappa_made_up is NaN at 1\.0:"):
        _coerce(xs, (_made_up(0.0), "f_made_up"), (_made_up(np.nan), "kappa_made_up"))
    fx, kx = _coerce(np.array([2.0, math.nan]), (np.square, "f"), (np.negative, "kappa"))
    assert fx.tolist() == [4.0, math.inf] and kx.tolist() == [-2.0, math.inf]
    fx, kx = _coerce(xs, (_made_up(math.inf), "f"), (_made_up(-math.inf), "kappa"))
    assert fx.tolist() == [0.0, math.inf, 2.0] and kx.tolist() == [0.0, -math.inf, 2.0]
    for x, want in ((1.0, [math.inf, -math.inf]), (0.5, [0.5, 0.5]), (math.nan, [math.inf] * 2)):
        got = _coerce(x, (_made_up(math.inf), "f"), (_made_up(-math.inf), "kappa"))
        assert [type(v) for v in got] == [float, float] and got == want

    def flat_only(x):
        assert x.ndim == 1
        return 2.0 * x

    fx, kx = _coerce(np.arange(6.0).reshape(2, 3), (flat_only, "f"), (np.square, "kappa"))
    assert fx.shape == kx.shape == (2, 3)
    assert fx.tolist() == [[0.0, 2.0, 4.0], [6.0, 8.0, 10.0]]
    assert kx.tolist() == [[0.0, 1.0, 4.0], [9.0, 16.0, 25.0]]


_WHOLE_LINE = list({id(inst.fn): inst.fn for inst in map(get_instance, instance_names())
                    if inst.fn.domain.is_all_reals}.values())


def test_six_catalog_functions_live_on_the_whole_line():
    assert sorted(fn.name for fn in _WHOLE_LINE) == [
        "abs", "abs_plus_halfsq", "identity", "quartic_gap", "square", "zero"]


_POINTS = arrays(float, st.integers(1, 24), elements=st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan])))


@pytest.mark.parametrize("fn", _WHOLE_LINE, ids=lambda fn: fn.name)
@settings(max_examples=60, deadline=None)
@given(xs=_POINTS)
def test_a_whole_line_function_reads_its_formula_without_the_clip(fn, xs):
    """On the whole line the mask reads the formula at finite points and
    +inf at +-inf and NaN: the same bits as the formula at the points
    clipped to the domain, masked by membership."""
    formula = inspect.getclosurevars(fn.eval_arr).nonlocals["formula"]
    dom = fn.domain
    with np.errstate(all="ignore"):
        clipped = np.where(dom.contains(xs), formula(np.minimum(np.maximum(xs, dom.lo), dom.hi)),
                           np.inf)
        assert np.asarray(fn.eval_arr(xs)).tobytes() == np.asarray(clipped).tobytes()


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
    """D(x, y) = D*(grad kappa(y), grad kappa(x)) at every pair of 60 interior
    points, as arrays (Bauschke-Borwein, J. Convex Anal. 4, 1997)."""
    xs = interior_samples(k, 60, np.random.default_rng(6))
    gx = k.grad(xs)
    lhs = bregman_distance(k, xs[:, None], xs)
    rhs = dual_distance(k, gx, gx[:, None])
    assert (np.abs(lhs - rhs) <= 1e-8 * np.maximum(1.0, np.abs(lhs))).all()


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


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: k.name)
def test_legendre_one_coercive_gradients_are_onto(k):
    """grad kappa maps int dom kappa onto the reals for a Legendre,
    1-coercive kernel; construction rejects a grad_range that says otherwise."""
    for kk in (k, scale_kernel(k, 0.5), scale_kernel(k, 3.0)):
        assert kk.grad_range.is_all_reals or not (kk.is_legendre and kk.is_one_coercive)
    half_line = Interval(-math.inf, 0.0, False, False)
    if k.is_legendre and k.is_one_coercive:
        with pytest.raises(ValueError, match="gradient range must be the reals"):
            dataclasses.replace(k, name="bad", grad_range=half_line)
    else:
        assert dataclasses.replace(k, name="ok", grad_range=half_line).grad_range == half_line


@pytest.mark.parametrize("k", LEGENDRE_KERNELS, ids=lambda k: k.name)
def test_grad_conj_closed_form_vs_inversion(k):
    from bregmanprox.kernels import grad_conj_by_inversion
    rng = np.random.default_rng(9)
    for x in interior_samples(k, 8, rng, inset=0.05):
        eta = k.grad(float(x))
        assert grad_conj_by_inversion(k, eta) == pytest.approx(
            k.grad_conj(eta), abs=1e-8)
