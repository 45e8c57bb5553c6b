import gc
import math

import numpy as np
import pytest

from bregmanprox import proxenv
from bregmanprox.catalog import F_ZERO, Instance, get_instance
from bregmanprox.errors import OutsideInteriorError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import BURG, ENERGY, SHANNON, bregman_distance
from bregmanprox.proxenv import (engine, env_conjugate_crosscheck,
                                 euclid_crosscheck, hull_instance, left_env,
                                 left_prox, prox_hull, right_prox,
                                 threshold_scan)


def make_fn(name, formula, domain=None, window=(-8.0, 8.0), threshold=math.inf):
    from bregmanprox.catalog import _fn
    return _fn(name, domain or Interval.reals(), formula, window,
               threshold=threshold)


def soft_threshold(y, lam=1.0):
    return math.copysign(max(abs(y) - lam, 0.0), y)


def huber(y, lam=1.0):
    return y * y / (2 * lam) if abs(y) <= lam else abs(y) - lam / 2


# -- left prox -----------------------------------------------------------------

def test_prox_of_zero_is_identity():
    res = left_prox(get_instance("euclid_zero"), 0.4)
    assert res.minimizers == pytest.approx((0.4,), abs=1e-7)
    assert float(res.value) == pytest.approx(0.0, abs=1e-12)


def test_prox_burg_linear_closed_form():
    # stationarity of alpha x - (ln x)'/lam terms: x = y / (1 + lam alpha y)
    inst = get_instance("burg_linear")
    for y in (0.5, 1.0, 3.0, 8.0):
        res = left_prox(inst, y)
        assert len(res.minimizers) == 1
        assert res.minimizers[0] == pytest.approx(y / (1 + y), abs=1e-7)


def test_prox_ex411_boundary_tie():
    # the two-point prox value set appears where the envelope chord is active
    inst = get_instance("ex411")
    tie_y = 2.0 ** -0.5  # grad kappa(y) = 1, the chord slope
    res = left_prox(inst, tie_y)
    assert res.multiple
    assert res.minimizers[0] == pytest.approx(0.0, abs=1e-4)
    assert res.minimizers[1] == pytest.approx(1.0, abs=1e-4)
    assert left_prox(inst, 0.5).minimizers == pytest.approx((0.0,), abs=1e-4)
    assert left_prox(inst, 0.9).minimizers == pytest.approx((1.0,), abs=1e-4)


def test_prox_requires_interior():
    with pytest.raises(OutsideInteriorError):
        left_prox(get_instance("ex310"), 1.0)


def test_prox_euclidean_soft_threshold():
    inst = get_instance("euclid_abs")
    for y in (-2.3, -0.4, 0.0, 0.7, 3.1):
        res = left_prox(inst, y)
        assert res.minimizers[0] == pytest.approx(soft_threshold(y), abs=1e-8)


# -- right prox ----------------------------------------------------------------

def test_right_prox_of_zero_energy():
    inst = Instance("zero_e", ENERGY, F_ZERO, 1.0)
    res = right_prox(inst, 0.4)
    assert res.minimizers[0] == pytest.approx(0.4, abs=1e-7)


def test_right_prox_of_zero_shannon():
    inst = Instance("zero_s", SHANNON,
                    make_fn("zero_pos", lambda x: np.zeros_like(x),
                            Interval(0.0, math.inf, False, False), (0.0, 12.0)),
                    1.0)
    for x in (0.5, 2.0, 7.0):
        res = right_prox(inst, x)
        assert res.minimizers[0] == pytest.approx(x, abs=1e-6)


def test_right_prox_abs_soft_threshold():
    res = right_prox(get_instance("euclid_abs"), 2.0)
    assert res.minimizers[0] == pytest.approx(1.0, abs=1e-7)


# -- envelopes -----------------------------------------------------------------

def test_env_ex419_closed_form():
    inst = get_instance("ex419")
    for xi in (-3.0, -1.0, 0.3, 2.0):
        y = inst.kernel.grad_conj(xi)
        assert float(left_env(inst, y)) == pytest.approx(-xi, abs=1e-4)


def test_env_ex420_closed_form():
    inst = get_instance("ex420")
    for xi in (-2.5, 0.0, 0.7, 2.9):
        y = inst.kernel.grad_conj(xi)
        expect = (2 / 3) * abs(xi) ** 1.5 - (2 / 3) * abs(xi - 1) ** 1.5
        assert float(left_env(inst, y)) == pytest.approx(expect, abs=1e-4)


def test_env_of_zero_is_zero():
    assert float(left_env(get_instance("euclid_zero"), 1.3)) == pytest.approx(0.0, abs=1e-12)


def test_env_is_infimum_bound():
    inst = get_instance("euclid_abs")
    eng = engine(inst)
    for y in (-1.7, 0.2, 2.4):
        e = eng.env(y)
        vals = eng.left_values(y)
        assert (vals >= e - 1e-9).all()


def test_env_memo_is_bounded_by_grid_size():
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=65)
    ys = np.linspace(-7.0, 7.0, 200)
    first = eng.env(float(ys[3]))
    for y in ys:
        eng.env(float(y))
    assert len(eng._env_memo) <= 65
    assert eng.env(float(ys[3])) == first


@pytest.mark.parametrize("name, ys", [
    ("ex419", (-1.3, -0.2, 0.5, 1.1)),
    ("ex411", (0.3, 2.0 ** -0.5, 0.9)),  # prox {0, 1} at 1/sqrt(2)
])
def test_batched_env_equals_env_bit_for_bit(name, ys):
    eng = engine(get_instance(name))
    batched = eng.env_many(np.array(ys))
    assert [float(v) for v in batched] == [eng.env(y) for y in ys]
    if name == "ex411":
        assert eng.prox(2.0 ** -0.5).multiple


def _bits(res):
    """Every float of a ProxResult, as exact hex strings."""
    floats = (res.minimizers + (float(res.value),)
              + tuple(v for c in res.clusters for v in (c.x, c.value, c.x_lo, c.x_hi)))
    return tuple(float(v).hex() for v in floats), res.in_interior


@pytest.mark.parametrize("name, ys", [
    ("ex419", np.linspace(-1.3, 1.3, 40)),
    ("ex411", np.append(np.linspace(-0.95, 0.95, 39), 2.0 ** -0.5)),
])
def test_prox_many_equals_prox_bit_for_bit(name, ys):
    # 40 points at N = 2001 make three blocks (17 + 17 + 6 rows)
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=2001)
    many = eng.prox_many(ys)
    assert [_bits(r) for r in many] == [_bits(eng.prox(float(y))) for y in ys]
    if name == "ex411":
        assert many[-1].multiple  # prox {0, 1} at 1/sqrt(2)


def _count_grid_minimize(monkeypatch):
    calls = []
    real = proxenv.grid_minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(proxenv, "grid_minimize", counted)
    return calls


def test_range_probe_solves_in_blocks(monkeypatch):
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    inst = get_instance("hell_halfk")
    calls = _count_grid_minimize(monkeypatch)
    proxenv.range_probe(inst, n=250, seed=3)
    assert len(calls) <= 15  # ceil(250 / 17) blocks


def test_prox_many_memory_is_bounded_by_blocks():
    import tracemalloc
    eng = proxenv.InstanceEngine(get_instance("ex419"), grid_n=2001)
    ys = np.linspace(-1.3, 1.3, 250)
    eng.prox(0.1)  # warm the lazily built parts
    tracemalloc.start()
    try:
        eng.prox_many(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked 250-row block needs 4 MB for each objective array
    assert peak <= 2 * 2 ** 20


def test_env_many_reads_and_fills_the_memo():
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=2001)
    first = eng.env_many([0.5, -1.0, 0.5])
    assert first[0] == first[2] and len(eng._env_memo) == 2
    assert eng.env_many([-1.0, 2.0]).tolist() == [first[1], eng.env(2.0)]
    assert len(eng._env_memo) == 3


def test_repeated_prox_hull_reads_the_memo(monkeypatch):
    inst = get_instance("ex310")
    engine(inst)._env_memo.clear()
    first = prox_hull(inst, -0.4)
    calls = _count_grid_minimize(monkeypatch)
    assert prox_hull(inst, -0.4) == first
    assert not calls


def test_env_decreases_in_lambda():
    f = get_instance("euclid_abs").fn
    a = Instance("abs_l1", ENERGY, f, 1.0)
    b = Instance("abs_l2", ENERGY, f, 2.0)
    for y in (-2.0, 0.3, 1.1):
        assert engine(b).env(y) <= engine(a).env(y) + 1e-9


def test_env_huber():
    inst = get_instance("euclid_abs")
    for y in (-3.0, -0.5, 0.0, 0.9, 2.2):
        assert engine(inst).env(y) == pytest.approx(huber(y), abs=1e-9)


# -- proximal hull --------------------------------------------------------------

def test_hull_of_weakly_convex_equals_f():
    inst = get_instance("euclid_abs")
    for x in (-2.0, -0.3, 0.0, 1.4):
        assert float(prox_hull(inst, x)) == pytest.approx(abs(x), abs=1e-6)


def test_hull_gap_on_ex310():
    inst = get_instance("ex310")
    assert float(prox_hull(inst, 0.5)) < float(inst.fn.eval(0.5)) - 1e-2


def test_hull_of_constant():
    inst = Instance("const5", ENERGY,
                    make_fn("five", lambda x: np.full_like(x, 5.0)), 1.0)
    assert float(prox_hull(inst, 0.7)) == pytest.approx(5.0, abs=1e-8)


def test_hull_below_f_pointwise():
    for name in ("ex310", "ex411", "euclid_abs", "ex419"):
        eng = engine(get_instance(name))
        hv = np.asarray(eng.hull_fn_value(eng.X), dtype=float)
        both = np.isfinite(hv) & np.isfinite(eng.F)
        assert (hv[both] <= eng.F[both] + 1e-8).all()


def test_hull_fn_value_outside_kernel_domain_is_inf_without_warning():
    # runs under the suite's error::RuntimeWarning filter: forming
    # inf - inf outside dom kappa would fail here
    eng = engine(get_instance("ex411"))
    assert eng.hull_fn_value(-1.2) == math.inf
    out = eng.hull_fn_value([0.5, 1.2])
    assert out[1] == math.inf
    assert math.isfinite(out[0]) and out[0] == eng.hull_fn_value(0.5)


def test_env_of_hull_equals_env():
    inst = get_instance("ex310")
    hinst = hull_instance(inst)
    rng = np.random.default_rng(0)
    for y in -0.999 + 1.998 * rng.random(20):
        assert engine(hinst).env(float(y)) == pytest.approx(
            engine(inst).env(float(y)), abs=1e-5)


def test_hull_routes_agree():
    # definitional sup route vs geometric envelope route; compared on the
    # inner 80% of the window, since near an artificial window edge of an
    # unbounded domain the sup's optimal point falls outside the window
    for name in ("ex310", "euclid_abs", "ex419"):
        inst = get_instance(name)
        eng = engine(inst)
        rng = np.random.default_rng(1)
        lo, hi = eng.x_grid.lo, eng.x_grid.hi
        span = hi - lo
        for x in lo + 0.1 * span + 0.8 * span * rng.random(10):
            x = float(x)
            sup_route = float(prox_hull(inst, x))
            geo_route = float(eng.hull_fn_value(x))
            if math.isfinite(sup_route) and math.isfinite(geo_route):
                assert abs(sup_route - geo_route) <= 1e-5


# -- threshold scanning ----------------------------------------------------------

def test_threshold_ex_ln_bracket():
    lo, hi = threshold_scan(BURG, get_instance("ex_ln").fn,
                            np.geomspace(0.5, 2.0, 30))
    assert lo <= 1.0 <= hi
    assert hi - lo <= 0.1


def test_threshold_all_finite():
    lo, hi = threshold_scan(ENERGY, F_ZERO, np.geomspace(0.1, 10.0, 10))
    assert hi == math.inf


def test_threshold_negative_square():
    # -x^2 + x^2/(2 lam) bounded below iff lam <= 1/2
    fn = make_fn("neg_sq", lambda x: -np.square(x))
    lo, hi = threshold_scan(ENERGY, fn, np.geomspace(0.2, 2.0, 40))
    assert lo <= 0.5 <= hi


def test_threshold_all_unbounded():
    from bregmanprox.errors import AllUnboundedError
    fn = make_fn("neg_quartic", lambda x: -np.power(x, 4))
    with pytest.raises(AllUnboundedError):
        threshold_scan(ENERGY, fn, np.geomspace(0.5, 2.0, 5))


def test_right_env_matches_right_prox_value():
    from bregmanprox.proxenv import right_env
    inst = get_instance("euclid_abs")
    assert float(right_env(inst, 2.0)) == pytest.approx(
        1.0 + 0.5 * 1.0, abs=1e-8)  # |1| + (2-1)^2/2


# -- identity cross-checks --------------------------------------------------------

def test_euclid_crosscheck_energy_trivial():
    inst = get_instance("euclid_abs")
    for y in (-1.2, 0.4, 2.0):
        assert euclid_crosscheck(inst, y) <= 1e-8


@pytest.mark.parametrize("name", ["ex310", "ex419"])
def test_euclid_crosscheck_20_points(name):
    inst = get_instance(name)
    eng = engine(inst)
    rng = np.random.default_rng(2)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    for y in lo + (hi - lo) * (1e-3 + (1 - 2e-3) * rng.random(20)):
        assert euclid_crosscheck(inst, float(y)) <= 1e-5


def test_env_conjugate_crosscheck_zero():
    assert env_conjugate_crosscheck(get_instance("euclid_zero"), 0.7) <= 1e-8


@pytest.mark.parametrize("name", ["ex420", "ex_ln"])
def test_env_conjugate_crosscheck_20_points(name):
    inst = get_instance(name)
    eng = engine(inst)
    rng = np.random.default_rng(3)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    for y in lo + (hi - lo) * (1e-3 + (1 - 2e-3) * rng.random(20)):
        assert env_conjugate_crosscheck(inst, float(y)) <= 1e-4


# -- prox result structure ---------------------------------------------------------

def test_prox_value_is_minimum_over_minimizers():
    inst = get_instance("ex411")
    res = left_prox(inst, 2.0 ** -0.5)
    for m in res.minimizers:
        obj = float(inst.fn.eval(m)) + float(
            bregman_distance(inst.kernel, m, 2.0 ** -0.5)) / inst.lam
        assert obj <= float(res.value) + 1e-6


def test_prox_interior_flags():
    res = left_prox(get_instance("ex411"), 0.9)
    assert res.minimizers[0] == pytest.approx(1.0, abs=1e-6)
    assert res.in_interior == (False,)


# -- engine registry ------------------------------------------------------------

def test_engine_registry_drops_engines_of_dead_instances():
    from bregmanprox.verify import check_bsmooth
    inst = get_instance("hell_halfk")
    check_bsmooth(inst, seed=0)  # the instance's own engine now exists
    gc.collect()
    before = len(proxenv._ENGINES)
    # each call builds engines for two throwaway +f / -f instances
    for seed in range(20):
        check_bsmooth(inst, seed=seed)
    gc.collect()
    assert len(proxenv._ENGINES) == before
