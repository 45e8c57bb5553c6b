import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregmanprox import catalog, kernels, numerics, proxenv
from bregmanprox.catalog import (F_ZERO, Instance, get_instance, instance_names,
                                 shift_scale)
from bregmanprox.errors import (AllInfiniteError, OutOfRangeError,
                                OutsideInteriorError, UnboundedBelowError)
from bregmanprox.extreal import Interval
from bregmanprox.kernels import BURG, ENERGY, SHANNON, Kernel, bregman_distance
from bregmanprox.proxenv import (engine, env_conjugate_crosscheck,
                                 euclid_crosscheck, hull_instance, left_env,
                                 left_prox, prox_hull, right_env, right_prox,
                                 threshold_scan)
from bregmanprox.subdiff import left_lpsubdiff_definitional, right_lpsubdiff_definitional
from bregmanprox.verify import run_suite


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
    with pytest.raises(OutsideInteriorError):  # NaN lies in no domain
        right_prox(get_instance("ex310"), math.nan)


def test_env_conjugate_crosscheck_names_a_non_interior_ybar():
    with pytest.raises(OutsideInteriorError, match="^1.0 not interior to dom hellinger$"):
        env_conjugate_crosscheck(get_instance("hell_halfk"), 1.0)
    with pytest.raises(OutsideInteriorError, match="^nan not interior to dom hellinger$"):
        env_conjugate_crosscheck(get_instance("hell_halfk"), math.nan)


def test_a_block_names_its_first_non_interior_ybar():
    eng = proxenv.InstanceEngine(get_instance("ex310"), grid_n=2001)
    ys = np.concatenate([np.linspace(-0.9, 0.9, 20), [math.nan, 1.5], np.linspace(-0.5, 0.5, 20)])
    with pytest.raises(OutsideInteriorError, match="^nan not interior to dom hellinger$"):
        eng.prox(ys)
    with pytest.raises(OutsideInteriorError, match="^1.5 not interior to dom hellinger$"):
        eng.env(ys[21:])


@pytest.mark.parametrize("name, ys, bad", [
    ("euclid_abs", 1e155, 1e155),  # kappa(ybar) overflows
    ("euclid_abs", [1.0, 2e155, 1e155], 2e155),  # the first in the caller's order
    ("shannon_abs", [1.0, 2.555e305], 2.555e305),  # kappa(ybar) is finite, the tilt is not
    ("ex419", [0.5, 1e155], 1e155),  # grad kappa(ybar) overflows too
])
def test_a_ybar_whose_objective_overflows_is_out_of_range(name, ys, bad):
    """Past some ybar, kappa(ybar) or the tilt grad kappa(ybar)(x - ybar) at
    an end of the x grid is not a float, and so is every grid sample of
    f + D(., ybar)/lam: the query names the first such ybar instead of
    finding the objective +inf everywhere."""
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=1001)
    for query in (eng.prox, eng.env):
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(bad))} "):
            query(ys)


_OVERFLOWING_XBAR = [
    ("euclid_abs", 1e155),  # kappa(xbar) overflows
    ("ex419", 1e155),
    ("shannon_abs", 1e308),
    ("burg_linear", 1.7e308),  # kappa(xbar) is finite, the tilt at the first y is not
]


@pytest.mark.parametrize("name, xbar", _OVERFLOWING_XBAR)
def test_an_xbar_whose_objective_overflows_is_out_of_range(name, xbar):
    """The right prox names an xbar whose kappa(xbar), or tilt
    grad kappa(y)(xbar - y) at an end of the y grid, is not a float, as the
    left rows name such a ybar."""
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=1001)
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(xbar))} out of range "):
        eng.right_prox(xbar)


@pytest.mark.parametrize("name, xbar", _OVERFLOWING_XBAR)
def test_prox_hull_names_an_overflowing_xbar(name, xbar):
    """The definitional hull has the right prox's D(xbar, y) on the y grid,
    and the same entry check: an xbar in dom kappa whose objective overflows
    is out of range, not outside the domain."""
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(xbar))} out of range "):
        prox_hull(get_instance(name), xbar)


def test_a_tilt_window_bound_that_overflows_scans_the_whole_grid():
    """Two rows whose window bound overflows, though each passes the range
    check: each row is scanned on every column, without a warning (Tier-1
    turns RuntimeWarnings into errors), and each row gets its one-row bits."""
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=1001)
    ys = [1.2e154, 1.25e154]
    batched = eng.env(np.array(ys)).tolist()
    alone = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=1001)
    assert [v.hex() for v in batched] == [alone.env(y).hex() for y in ys]


def test_an_envelope_cache_below_the_cap_raises():
    fn = make_fn("abs_low", lambda x: np.abs(x) - 2e12)
    eng = proxenv.InstanceEngine(Instance("abs_low", ENERGY, fn, 1.0), grid_n=201)
    with pytest.raises(UnboundedBelowError, match="envelope cache fell below the cap"):
        eng.env_coarse()


def test_right_prox_and_right_env_name_an_overflowing_xbar():
    with pytest.raises(OutOfRangeError, match=r"^1e\+155 "):
        right_prox(get_instance("euclid_abs"), 1e155)
    with pytest.raises(OutOfRangeError, match=r"^1e\+155 "):
        right_env(get_instance("ex419"), 1e155)


def test_env_just_below_the_overflow_is_solved():
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=1001)
    assert eng.env(1e154) == pytest.approx(5e307)


def test_warm_queries_check_no_point_the_engine_made(monkeypatch):
    """Refinement points of the right prox, the definitional hull and the
    right certificate lie inside the interior y grid: they reach grad kappa
    unchecked, so Kernel.grad runs only on the caller's own point."""
    inst = get_instance("euclid_abs")
    right_prox(inst, 0.3)
    prox_hull(inst, 0.3)  # builds the envelope cache on the y grid
    calls = []
    real = Kernel.grad

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(Kernel, "grad", counted)
    right_prox(inst, 2.0)
    assert calls == []
    prox_hull(inst, 0.7)
    assert calls == []
    right_lpsubdiff_definitional(inst, 0.4, 1.0)
    assert calls == [0.4]


def test_prox_euclidean_soft_threshold():
    inst = get_instance("euclid_abs")
    for y in (-2.3, -0.4, 0.0, 0.7, 3.1):
        res = left_prox(inst, y)
        assert res.minimizers[0] == pytest.approx(soft_threshold(y), abs=1e-8)


def _two_wells(x):
    """min((x + 1.3)^2, 0.5 (x - 1.7)^2 + 0.1), elementwise."""
    return np.minimum(np.square(x + 1.3), 0.5 * np.square(x - 1.7) + 0.1)


# The two pieces' left objectives at lam = 0.4 tie at this ybar: their
# minimizers (2.5 y - 2.6) / 4.5 and (1.7 + 2.5 y) / 3.5, whose values
# differ by 5.6e-16 in exact arithmetic.
_TIE_Y = 0.0722965085707815
_TIE_MINIMIZERS = (-0.5376130508, 0.5373546490)


def test_the_two_wells_function_is_elementwise():
    xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    f = make_fn("two_wells", _two_wells)
    assert f.eval(xs).tolist() == [[float(_two_wells(float(x))) for x in row] for row in xs]
    assert [f.eval(0.3), f.eval(-1.3)] == [_two_wells(0.3), 0.0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1 step 2: a tie off the grid is missed, because "
                          "one basin's grid error exceeds the tie tolerance")
def test_an_off_grid_tie_returns_both_minimizers():
    """Two basins tie at ybar = _TIE_Y, neither on a grid point: the grid
    stage keeps one basin, and the prox reads single-valued (0.5373546)."""
    inst = Instance("two_wells", ENERGY, make_fn("two_wells", _two_wells), 0.4)
    res = engine(inst).prox(_TIE_Y)
    for m in _TIE_MINIMIZERS:
        assert min(abs(np.array(res.minimizers) - m)) <= 1e-6


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


def test_env_memo_evicts_only_the_oldest_values(monkeypatch):
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=65)
    rows = _count_env_solves(monkeypatch, eng)
    eng.env(eng.Y)
    eng.env([0.01, 0.02, 0.03])  # three points off the grid
    assert len(eng._env_memo) == 65
    rows.clear()
    eng.env(eng.Y)
    assert sum(rows) <= 3


@pytest.mark.parametrize("name, ys", [
    ("ex419", (-1.3, -0.2, 0.5, 1.1)),
    ("ex411", (0.3, 2.0 ** -0.5, 0.9)),  # prox {0, 1} at 1/sqrt(2)
])
def test_batched_env_equals_env_bit_for_bit(name, ys):
    eng = engine(get_instance(name))
    batched = eng.env(np.array(ys))
    assert [float(v) for v in batched] == [eng.env(y) for y in ys]
    if name == "ex411":
        assert eng.prox(2.0 ** -0.5).multiple


@pytest.mark.parametrize("name", instance_names())
def test_value_only_env_is_the_unpolished_prox_value(monkeypatch, name):
    """env searches by value alone: never below the prox value, which the
    polish can only lower, and within 16 ulps of it, at 1,000 points across
    the y grid. The ulps are those of max(1, |v|, |kappa(ybar)| / lam), the
    largest term the objective rounds: ex420 near the window's end reads
    22 ulps of |v| = 7.9 there, 2 of kappa(ybar) / lam = 166."""
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=2001)
    ys = numerics.sample_inset(np.random.default_rng(0), eng.y_grid.lo, eng.y_grid.hi, 1000)
    polished = []
    real = numerics._polish

    def counted(*args):
        polished.append(1)
        return real(*args)

    monkeypatch.setattr(numerics, "_polish", counted)
    env = eng.env(ys)
    assert not polished
    v = np.array([res.value for res in eng.prox(ys)])
    scale = np.maximum(np.maximum(1.0, np.abs(v)), np.abs(eng.kernel.eval(ys)) / eng.lam)
    assert (env >= v).all()
    assert (env - v <= 16 * np.spacing(scale)).all()


def test_tilted_on_the_x_grid_is_cached_with_the_same_bits():
    eng = proxenv.InstanceEngine(get_instance("ex419"), grid_n=2001)
    g = eng.tilted(eng.X)
    assert g is eng.tilted(eng.X) and not g.flags.writeable
    assert g.tobytes() == eng.tilted(eng.X.copy()).tobytes()
    lf = eng.lam * eng.F
    a = np.abs(lf) + np.abs(eng.K)
    assert eng._tilt[1] == np.max(a, where=np.isfinite(a), initial=0.0)


def _bits(eng, res):
    """Every float of a ProxResult, as exact hex strings, and whether each
    minimizer is interior."""
    floats = (res.minimizers + (float(res.value),)
              + tuple(v for c in res.clusters for v in (c.x, c.value, c.x_lo, c.x_hi)))
    return tuple(float(v).hex() for v in floats), eng.interior(res.minimizers).tolist()


_SET_VALUED = 2.0 ** -0.5  # the prox of ex411 is {0, 1} there


@pytest.mark.parametrize("name, ys", [
    ("ex419", np.linspace(-1.3, 1.3, 40)),
    ("ex411", np.append(np.linspace(-0.95, 0.95, 39), _SET_VALUED)),
    # unsorted rows: the caller's order comes back through the gather
    ("ex419", np.linspace(-1.3, 1.3, 40)[np.random.default_rng(5).permutation(40)]),
    # duplicated rows, the set-valued one among them, in no order
    ("ex411", [0.3, _SET_VALUED, -0.6, 0.3, 0.9, _SET_VALUED, -0.95, 0.3] * 3),
    # the set-valued row alone, and first in a batch
    ("ex411", [_SET_VALUED]),
    ("ex411", np.append(_SET_VALUED, np.linspace(0.95, -0.95, 20))),
])
def test_prox_many_equals_prox_bit_for_bit(name, ys):
    # 40 points at N = 2001, each scanned on its own window, in one chunk
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=2001)
    many = eng.prox(ys)
    assert len(many) == len(ys)
    assert [_bits(eng, r) for r in many] == [_bits(eng, eng.prox(float(y))) for y in ys]
    assert [many[i].multiple for i in range(-len(ys), 0)] == [y == _SET_VALUED for y in ys]


def test_a_batch_builds_no_row_object_until_a_row_is_read(results_built):
    """A work gate that does not depend on the machine: a 170-row prox on
    euclid_sq answers in columns, building no ``ProxResult`` or
    ``MinimizerCluster``; reading a row builds that row's objects alone
    (a list of results built 170 of each, one per row)."""
    eng = proxenv.InstanceEngine(get_instance("euclid_sq"), grid_n=2001)
    ys = np.linspace(-7.5, 7.5, 170)
    batch = eng.prox(ys)
    assert len(batch) == 170 and batch.counts.tolist() == [1] * 170
    assert results_built == {"results": [], "clusters": 0}
    res = batch[-1]
    assert results_built == {"results": [1], "clusters": 1}
    assert res.minimizers == (batch.x[-1],) and res.value == batch.value[-1]


def _count_grid_minimize(monkeypatch):
    calls = []
    real = proxenv.grid_minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(proxenv, "grid_minimize", counted)
    return calls


def test_range_probe_solves_in_blocks(monkeypatch, zoom_brackets):
    """250 rows scan their windows and search their brackets in one zoom
    call."""
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    inst = get_instance("hell_halfk")
    calls = _count_grid_minimize(monkeypatch)
    proxenv.range_probe(inst, n=250)
    assert len(calls) == len(zoom_brackets) == 1
    assert zoom_brackets[0] >= 250


def test_empty_batches_solve_nothing():
    eng = proxenv.InstanceEngine(get_instance("ex310"), grid_n=2001)
    assert list(eng.prox([])) == []
    assert eng.env([]).tolist() == []
    assert list(eng.prox(np.array([]))) == []


def _faulty_engine(monkeypatch, build="_left_rows"):
    """An ex310 engine whose objective row (of the row builder ``build``) is
    +inf at the point 0.5 and falls below the unboundedness cap at -0.5;
    1.5 is outside its domain."""
    eng = proxenv.InstanceEngine(get_instance("ex310"), grid_n=2001)
    real = getattr(eng, build)

    def faulty_rows(ys, *args):
        (phi, grid, windows), ys = real(ys, *args), np.asarray(ys, dtype=float)

        def faulty(x, rows, *buf):
            y = ys[rows]
            out = phi(x, rows, *buf)
            return np.where(y == 0.5, np.inf, np.where(y == -0.5, out - 2e12, out))

        return faulty, grid, windows

    monkeypatch.setattr(eng, build, faulty_rows)
    return eng


@pytest.mark.parametrize("bad", [
    [0.5, -0.5, 1.5], [-0.5, 0.5, 1.5], [1.5, 0.5, -0.5], [-0.5, 1.5], [-0.5, 0.5]])
def test_a_batch_raises_what_its_first_failing_row_raises_alone(monkeypatch, bad):
    """The first failing row, row 20, comes after 20 clean rows (and after
    two 17-row blocks of the former sorted block rule). Without 1.5 the batch
    scan itself fails: the chunk holding 0.5 raises ``AllInfiniteError``
    while -0.5 alone raises ``UnboundedBelowError``."""
    eng = _faulty_engine(monkeypatch)
    clean = np.linspace(-0.95, -0.55, 20).tolist()
    assert np.sort(clean + bad + clean).tolist().index(bad[0]) >= 2 * 17
    with pytest.raises((OutsideInteriorError, AllInfiniteError,
                        UnboundedBelowError)) as alone:
        eng.prox(bad[0])
    expected = (type(alone.value), f"^{re.escape(str(alone.value))}$")
    for query in (eng.prox, eng.env):
        with pytest.raises(expected[0], match=expected[1]):
            query(np.array(clean + bad + clean))
    assert len(eng.prox(np.array(clean + clean))) == 40


@pytest.mark.parametrize("bad", [
    [0.5, -0.5, 1.5], [-0.5, 0.5, 1.5], [1.5, 0.5, -0.5], [-0.5, 1.5], [-0.5, 0.5]])
def test_a_right_prox_batch_raises_what_its_first_failing_row_raises_alone(monkeypatch, bad):
    """The right rows fail as the left rows do in
    ``test_a_batch_raises_what_its_first_failing_row_raises_alone``: 1.5 is
    outside dom kappa, 0.5 has an all-+inf row and -0.5 a row below the cap."""
    eng = _faulty_engine(monkeypatch, "_right_rows")
    clean = np.linspace(-0.95, -0.55, 20).tolist()
    with pytest.raises((OutsideInteriorError, AllInfiniteError,
                        UnboundedBelowError)) as alone:
        eng.right_prox(bad[0])
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        eng.right_prox(np.array(clean + bad + clean))
    assert len(eng.right_prox(np.array(clean + clean))) == 40


@pytest.mark.parametrize("name", instance_names())
def test_a_right_prox_batch_is_each_point_alone(name):
    """``right_prox`` at an array equals its single calls bit for bit, or
    raises what the first failing one raises: 40 points across the y grid
    and the closed ends of dom kappa, unsorted, with repeats, in three
    chunks of the whole-grid scan at N = 2001."""
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=2001)
    dom = eng.kernel.domain
    ends = [e for e in (dom.lo, dom.hi) if math.isfinite(e) and dom.contains(e)]
    xs = np.roll(np.linspace(eng.y_grid.lo, eng.y_grid.hi, 36 - len(ends)), 11).tolist()
    xs += ends + xs[:4]
    assert len(xs) == 40
    want = _outcome(lambda e, pts: [e.right_prox(x) for x in pts], eng, xs)
    assert _outcome(lambda e, pts: e.right_prox(np.array(pts)), eng, xs) == want


def test_prox_many_memory_is_bounded_by_blocks():
    import tracemalloc
    eng = proxenv.InstanceEngine(get_instance("ex419"), grid_n=2001)
    ys = np.linspace(-1.3, 1.3, 250)
    eng.prox(0.1)  # warm the lazily built parts
    tracemalloc.start()
    try:
        eng.prox(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked 250-row block needs 4 MB for each objective array
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("n, step", [(1001, 32), (2001, 17)])
@pytest.mark.parametrize("name", instance_names())
def test_env_coarse_equals_row_minima_bit_for_bit(name, n, step):
    """The windowed cache holds each row's minimum of left_values (which
    holds no NaN), at the rows on either side of every multiple of ``step``
    (the bounds of the blocks of a former rule) and at the last row."""
    eng = proxenv.InstanceEngine(get_instance(name), grid_n=n)
    size = eng.Y.size
    assert max(numerics.ZOOM_POINTS, proxenv.BLOCK_SAMPLES // n) == step
    assert size % step
    rows = {i for b in range(step, size, step) for i in (b - 1, b)} | {size - 1}
    env = eng.env_coarse()
    for i in sorted(rows):
        vals = eng.left_values(float(eng.Y[i]))
        assert not np.isnan(vals).any(), i
        assert env[i].hex() == vals.min().hex(), i


def test_env_coarse_memory_is_bounded_by_blocks():
    import tracemalloc
    eng = proxenv.InstanceEngine(get_instance("hell_halfk"), grid_n=4001)
    tracemalloc.start()
    try:
        eng.env_coarse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one N x N objective matrix and its temporary take 244 MB at N = 4001
    assert peak < 8 * 2 ** 20


# -- the windowed scan against a whole-grid scan -------------------------------

def _whole_grid_solve(eng, ys, finish=numerics.grid_minimize):
    """The left scan without windows: every row on all N columns, rows in the
    caller's order, with the same first-failing-row fallback."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    try:
        eng.check_interior(ys)
        phi = eng._left_rows(ys)[0]
        values = phi(eng.X, np.arange(ys.size)[:, None])
        return finish(phi, eng.x_grid, values=values)
    except (OutsideInteriorError, OutOfRangeError, AllInfiniteError, UnboundedBelowError):
        for j in range(ys.size - 1):
            _whole_grid_solve(eng, ys[j:j + 1], finish)
        raise


def _outcome(solve, eng, ys):
    """The bits of every ``ProxResult`` of ``solve``, or its exception and message."""
    try:
        results = solve(eng, ys)
    except (OutsideInteriorError, AllInfiniteError, UnboundedBelowError) as exc:
        return type(exc), str(exc)
    return [([m.hex() for m in res.minimizers], res.value.hex(), res.multiple,
             [tuple(v.hex() for v in (c.x, c.value, c.x_lo, c.x_hi)) for c in res.clusters])
            for res in results]


def _env_outcome(solve, eng, ys):
    """The bits of the ``env`` rows (``grid_min_value``) of ``solve``, or its
    exception and message."""
    try:
        return [v.hex() for v in solve(eng, ys, numerics.grid_min_value)]
    except (OutsideInteriorError, AllInfiniteError, UnboundedBelowError) as exc:
        return type(exc), str(exc)


def _assert_windowed_scan_is_exact(eng, ys):
    """prox and ``env`` rows at ys on their windows against the whole grid."""
    want = _outcome(_whole_grid_solve, eng, ys)
    assert _outcome(lambda e, y: e._solve(y, numerics.grid_minimize), eng, ys) == want
    want = _env_outcome(_whole_grid_solve, eng, ys)
    assert _env_outcome(lambda e, y, f: e._solve(y, f), eng, ys) == want


# (a, b, c) of x -> b f(x - a) + c: a domain shift that leaves +inf cells on
# bounded kernels, a rescale, and offsets large enough that rounding decides ties
_VARIANTS = [None, (0.0, 1.0, 1e9), (0.1, 1.5, -3.0), (-0.2, 0.6, 1e6)]
_WINDOW_ENGINES = {}


def _window_engine(name, variant):
    key = (name, variant)
    if key not in _WINDOW_ENGINES:
        inst = get_instance(name)
        if variant is not None:
            inst = Instance(f"{name}_shifted", inst.kernel, shift_scale(inst.fn, *variant), inst.lam)
        _WINDOW_ENGINES[key] = inst, proxenv.InstanceEngine(inst, grid_n=2001)
    return _WINDOW_ENGINES[key][1]


# the y-grid ends, points a hair inside them, one past each end, and where
# grad kappa = 0 (0, or 1/e for Shannon): rows on both sides of it
_SPECIAL = [0.0, 1.0, 1e-12, 1.0 - 1e-12, -0.01, 1.01]


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(instance_names()), variant=st.sampled_from(_VARIANTS),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
       special=st.lists(st.sampled_from(_SPECIAL + ["zero"]), max_size=4),
       repeats=st.lists(st.integers(0, 59), max_size=10), data=st.data())
@example(name="ex411", variant=None, where=[0.2, 0.9], special=["zero"], repeats=[0, 0],
         data=None)
def test_the_windowed_scan_matches_a_whole_grid_scan(name, variant, where, special,
                                                    repeats, data):
    """Bit-identical ``ProxResult``s, or the same exception and message, for
    unsorted batches with duplicates on every catalog instance and shifted
    and rescaled variants of them."""
    eng = _window_engine(name, variant)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    zero = {"shannon": 1.0 / math.e}.get(eng.kernel.name, 0.0)
    ts = where + [(zero - lo) / (hi - lo) if t == "zero" else t for t in special]
    ys = [lo + (hi - lo) * t for t in ts]
    ys += [ys[i % len(ys)] for i in repeats]
    if data is not None:
        ys = data.draw(st.permutations(ys))
    _assert_windowed_scan_is_exact(eng, ys)


@pytest.mark.parametrize("name, variant, ys", [
    # a two-basin tie at 1/sqrt(2), between rows tilted either way
    ("ex411", None, [2 ** -0.5] * 3 + [0.70, 0.71, 2 ** -0.5 - 1e-9, 2 ** -0.5 + 1e-9, -0.3]),
    # minimizers on the edge of the +inf cells of ex411 (f = +inf below 0)
    ("ex411", None, np.linspace(-0.99, 0.2, 40)),
    ("euclid_abs", None, np.linspace(-8.0, 8.0, 35)[::-1]),
    ("shannon_abs", None, [12.0, 1e-8 + 3e-9, 1.0 / math.e, 1.0 / math.e, 5.0] * 5),
    # two equal rows where an offset of 1e9 leaves ties to rounding: a window
    # without its margin drops a tie cell at its end
    ("ex310", (0.0, 1.0, 1e9), [0.422818791100671] * 2),
    ("hell_halfk", (0.0, 1.0, 1e9), [-0.2885906034496645] * 2),
])
def test_the_windowed_scan_is_exact_on_ties_and_infinite_cells(name, variant, ys):
    _assert_windowed_scan_is_exact(_window_engine(name, variant), ys)


def _hard_rows(eng, extra=()):
    """ybar of rows that stress a window, in no order: each critical slope
    (a tie over a hull segment over three cells long) and rows either side
    that tilt the segment so that their ties cover part of it, the y-grid
    ends, 31 rows across the y grid and ``extra``."""
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    crit = eng.kernel.grad_conj(np.array(eng.critical_etas, dtype=float))
    near = [y + d * max(1.0, abs(y)) for y in crit.tolist()
            for d in (-1e-5, -1e-7, -1e-9, -1e-14, 0.0, 1e-14, 1e-9, 1e-7, 1e-5)]
    ys = np.array(near + np.linspace(lo, hi, 31).tolist() + list(extra))
    return np.roll(ys[eng.kernel.domain.interior_contains(ys)], 7)


def _whole_grid_coarse(eng):
    """The row minima of ``left_values`` on the interior grid, 100 rows at a time."""
    phi = eng._left_rows(eng.Y)[0]
    return np.concatenate([phi(eng.X, rows[:, None]).min(axis=1)
                           for rows in np.array_split(np.arange(eng.Y.size), eng.Y.size // 100)])


def _assert_every_row_kind_is_exact(inst, ys):
    """prox and ``env`` rows at ys, ``env_coarse`` and left-certificate rows
    with the slopes of ys at three points, on the windows of the instance's
    engine against the whole grid: the same bits, or the same exception and
    message (a certificate row alone is scanned on the whole grid)."""
    eng = engine(inst)
    _assert_windowed_scan_is_exact(eng, ys)
    assert eng.env_coarse().tobytes() == _whole_grid_coarse(eng).tobytes()
    xb = eng.Y[np.linspace(1, eng.Y.size - 2, 3).astype(int)]
    xb, s = (a.ravel() for a in np.meshgrid(xb, eng.kernel.grad(np.asarray(ys))))
    u = (s - eng.kernel.grad(xb)) / eng.lam
    batch = zip(*(a.tolist() for a in left_lpsubdiff_definitional(inst, xb, u)))
    alone = [left_lpsubdiff_definitional(inst, p, v) for p, v in zip(xb, u)]
    assert [_cert_bits(c) for c in batch] == [_cert_bits(c) for c in alone]


def _cert_bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


# (instance, form, extra rows): long hull segments at the critical slopes
# (ex310, ex411, bsmooth_counter; -f of euclid_sq and euclid_abs_strong,
# whose curve is one segment), +inf columns (hell_halfk, shannon_abs, ex411),
# ex419's flat quartic minimum, two rows whose window bound overflows among
# rows whose bound does not, f + 1e9, where rounding decides the ties, and
# "flat": lam f + kappa is 0 on [-1, 1], so that ties cover part of a segment
_HARD = [("ex310", "f", ()), ("ex411", "f", ()), ("bsmooth_counter", "f", ()),
         ("euclid_sq", "-f", ()), ("euclid_abs_strong", "-f", ()), ("hell_halfk", "f", ()),
         ("shannon_abs", "f", ()), ("ex419", "f", np.linspace(-0.3, 0.3, 25)),
         ("euclid_abs", "f", (1.2e154, 1.25e154)), ("ex310", "f + 1e9", ()),
         ("ex419", "f + 1e9", np.linspace(-0.3, 0.3, 25)), ("euclid_zero", "flat", ()),
         ("euclid_zero", "flat + 1e9", ())]
_FLAT = Instance("flat", ENERGY, make_fn(
    "flat", lambda x: np.where(np.abs(x) <= 1.0, -0.5 * x * x, np.square(np.abs(x) - 1.0) - 0.5)),
    1.0)


@pytest.mark.parametrize("n", [1001, 2001, 4001])
@pytest.mark.parametrize("name, form, extra", _HARD)
def test_the_windowed_scan_matches_a_whole_grid_scan_at_the_hard_rows(monkeypatch, name, form,
                                                                      extra, n):
    """Every kind of left row on its window equals the whole-grid scan bit
    for bit at the rows where a window is hardest to bound."""
    monkeypatch.setenv("BREGMAN_GRID_N", str(n))
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    inst = _FLAT if form.startswith("flat") else get_instance(name)
    if form == "-f":
        inst = engine(inst).negated
    elif form.endswith("+ 1e9"):
        inst = Instance(f"{name}_offset", inst.kernel, shift_scale(inst.fn, 0.0, 1.0, 1e9),
                        inst.lam)
    _assert_every_row_kind_is_exact(inst, _hard_rows(engine(inst), extra))


def _mutated_curve(kind):
    """``hull_curve`` with one fault at the vertex k a third of the way
    along: the 40 vertices around it dropped, so that the chord over them
    lies above G ("dropped");
    pushed above G by a quarter of what keeps the slopes nondecreasing
    ("above") or by 1 ("far above"); its two neighbours lowered by 1, so
    that the slopes decrease ("decreasing"); or the whole curve tilted and
    lowered, 1 to 2 below G ("below")."""
    real = proxenv.InstanceEngine.hull_curve

    def curve(self):
        xs, vs = real(self).xs.copy(), real(self).vs.copy()
        k = xs.size // 3
        gaps = np.diff(np.diff(vs[k - 2:k + 3]) / np.diff(xs[k - 2:k + 3]))
        room = gaps.min() * min(xs[k] - xs[k - 1], xs[k + 1] - xs[k]) / 2
        if kind == "dropped":
            return numerics.HullCurve(np.delete(xs, range(k - 20, k + 20)),
                                      np.delete(vs, range(k - 20, k + 20)))
        if kind == "below":
            return numerics.HullCurve(xs, vs - 1.0 - (xs - xs[0]) / (xs[-1] - xs[0]))
        vs[[k - 1, k + 1] if kind == "decreasing" else k] += {
            "above": room / 4, "far above": 1.0, "decreasing": -1.0}[kind]
        return numerics.HullCurve(xs, vs)

    return curve


@pytest.mark.parametrize("kind, delta", [
    ("dropped", "finite"), ("above", math.inf), ("far above", math.inf),
    ("decreasing", math.inf), ("below", math.inf)])
@pytest.mark.parametrize("name", ["hell_halfk", "ex310", "ex419"])
def test_a_wrong_envelope_only_widens_the_windows(monkeypatch, name, kind, delta):
    """The windows read the lower convex envelope of G = lam f + kappa (the
    geometric route) only to choose columns: under a curve that is wrong,
    above G, not convex or with vertices off G, every kind of left row
    still equals the whole-grid scan bit for bit, with rows at the slopes
    around the faulty vertex. The check of the curve sees each fault: a
    chord above G widens every window by its excess delta, and any other
    fault makes every window the whole grid."""
    monkeypatch.setattr(proxenv.InstanceEngine, "hull_curve", _mutated_curve(kind))
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    eng = engine(get_instance(name))
    curve = numerics.lower_convex_envelope(zip(eng.X, eng.tilted(eng.X)))
    xs, vs, k = curve.xs, curve.vs, curve.xs.size // 3
    etas = np.diff(vs[k - 22:k + 23]) / np.diff(xs[k - 22:k + 23])
    ys = np.concatenate((eng.kernel.grad_conj(np.sort(np.append(etas, etas[1:3].mean()))),
                         np.linspace(eng.y_grid.lo, eng.y_grid.hi, 20)))
    ys = ys[eng.kernel.domain.interior_contains(ys)]
    _assert_every_row_kind_is_exact(get_instance(name), ys)
    got = eng._envelope[-1]
    assert 0.0 < got < math.inf if delta == "finite" else got == delta


@pytest.mark.parametrize("bad", [[0.5], [-0.5], [0.5, -0.5], [-0.5, 0.5]])
def test_the_windowed_scan_fails_as_a_whole_grid_scan(monkeypatch, bad):
    """An all-+inf row (0.5) and a row shifted below the cap (-0.5), among
    clean rows before, with and after them, and as the last row."""
    eng = _faulty_engine(monkeypatch)
    clean = np.linspace(-0.9, 0.9, 40).tolist()
    for ys in (clean + bad, bad + clean, clean[:30] + bad + clean[30:], bad):
        _assert_windowed_scan_is_exact(eng, ys)


def _scanned_cells(monkeypatch):
    """The grid cells ``InstanceEngine._scan`` evaluates, summed over its
    chunks: those of prox and envelope rows in ``cells[0]``, those of left
    certificate rows (scanned under ``InstanceEngine._least_slack``) in
    ``cells[1]``; and the [cells, chunks] of each scan, in ``scans``."""
    cells, scans, certifying = [0, 0], [], []
    real, real_least = proxenv.InstanceEngine._scan, proxenv.InstanceEngine._least_slack

    def counted(self, *args):
        scans.append([0, 0])
        for chunk in real(self, *args):
            cells[bool(certifying)] += chunk[-1].size
            scans[-1][0] += chunk[-1].size
            scans[-1][1] += 1
            yield chunk

    def least(*args):
        certifying.append(True)
        try:
            return real_least(*args)
        finally:
            certifying.pop()

    monkeypatch.setattr(proxenv.InstanceEngine, "_scan", counted)
    monkeypatch.setattr(proxenv.InstanceEngine, "_least_slack", least)
    return cells, scans


def test_the_scan_work_is_pinned(monkeypatch):
    """A work gate that does not depend on the machine. At N = 2001,
    ``env_coarse`` of euclid_abs evaluates 6,003 of its N**2 = 4,004,001
    cells (388,541 on the windows of 17-row blocks), and a seed-42 suite on
    ex419 and euclid_abs 8,676 in prox and envelope rows (827,830 on block
    windows), against 6,167,082 when every row is scanned on the whole grid.
    The suite's 108 left certificate rows (27 points, each sign, on two
    instances) scan 574 (149,884 on block windows, 216,108 on the whole
    grid). A scan whose cells fit ``BLOCK_SAMPLES`` is one chunk."""
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    cells, scans = _scanned_cells(monkeypatch)
    proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=2001).env_coarse()
    assert cells == [6_003, 0] and scans == [[6_003, 1]]
    cells[0] = 0
    run_suite(["ex419", "euclid_abs"], seed=42)
    assert cells[0] <= 9_000
    assert cells[1] <= 600
    assert all(chunks == 1 for size, chunks in scans if size <= proxenv.BLOCK_SAMPLES)


def test_prox_batch_memory_at_4001_points():
    """One 250-row batch on a warm ex419 engine at N = 4001 peaks below
    1.12 MiB, the peak of per-chunk temporaries freed after their chunk."""
    import tracemalloc
    eng = proxenv.InstanceEngine(get_instance("ex419"), grid_n=4001)
    eng.prox(0.1)
    tracemalloc.start()
    try:
        eng.prox(np.linspace(-1.3, 1.3, 250))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.12 * 2 ** 20


def test_env_many_reads_and_fills_the_memo():
    eng = proxenv.InstanceEngine(get_instance("euclid_abs"), grid_n=2001)
    first = eng.env([0.5, -1.0, 0.5])
    assert first[0] == first[2] and len(eng._env_memo) == 2
    assert eng.env([-1.0, 2.0]).tolist() == [first[1], eng.env(2.0)]
    assert len(eng._env_memo) == 3


def _count_env_solves(monkeypatch, eng):
    """The number of rows of each batch of envelope solves ``eng`` makes."""
    rows = []
    solve = eng._solve

    def counted(ys, finish):
        assert finish is proxenv.grid_min_value
        rows.append(len(ys))
        return solve(ys, finish)

    monkeypatch.setattr(eng, "_solve", counted)
    return rows


def test_repeated_prox_hull_reads_the_memo(monkeypatch):
    inst = get_instance("ex310")
    engine(inst)._env_memo.clear()
    first = prox_hull(inst, -0.4)
    solves = _count_env_solves(monkeypatch, engine(inst))
    assert prox_hull(inst, -0.4) == first
    assert not solves


def _warm(name: str) -> Instance:
    """A copy of the catalog instance ``name`` (an engine with an empty
    memo) whose grid-resolution envelope is built, at the default grid."""
    base = get_instance(name)
    inst = Instance(base.name, base.kernel, base.fn, base.lam)
    engine(inst).env_coarse()
    return inst


def test_warm_prox_hull_refinement_work_is_pinned(monkeypatch):
    """The definitional hull nests the envelope's zoom inside its own sup;
    wrapping ``numerics.zoom``, ``_polish`` and ``concave_sup`` counts every
    objective point that one warm prox_hull refines: 4,165 (8,857 when every
    round of the sup zoomed, about 12,800 when each envelope was polished
    and the sup ran to the width rule)."""
    monkeypatch.delenv("BREGMAN_GRID_N", raising=False)
    inst = _warm("hell_halfk")
    points = []

    def counting(real):
        def counted(phi, *args):
            def phi_counted(x, *r):
                points.append(np.size(x))
                return phi(x, *r)
            return real(phi_counted, *args)
        return counted

    for name in ("zoom", "_polish", "concave_sup"):
        monkeypatch.setattr(numerics, name, counting(getattr(numerics, name)))
    monkeypatch.setattr(proxenv, "concave_sup", numerics.concave_sup)
    prox_hull(inst, 0.3)
    assert sum(points) <= 4_300


# the most envelope batches a warm prox_hull makes, per (instance, x)
_WARM_SOLVES = {
    ("hell_halfk", 0.3): 2, ("hell_halfk", -0.6): 2, ("hell_halfk", 0.85): 2,
    ("ex310", -0.4): 3, ("ex310", 0.5): 7, ("euclid_abs", -2.0): 2, ("euclid_abs", 0.7): 2,
}


@pytest.mark.parametrize("name, x", list(_WARM_SOLVES))
def test_warm_prox_hull_envelope_solves_are_pinned(monkeypatch, name, x):
    """One batch of envelope solves per round of the sup, which stops once
    its samples bound the sup to within rounding. A smooth sup takes two:
    the zoom of the two grid cells, then a round aimed at the parabola's
    vertex. At ex310 -0.4 the sup lies past the two grid cells around the
    best grid sample, so the first round's best sample is its bracket's end
    and the next bracket is centred on it (three rounds; six when the search
    zoomed into that end to the width rule); at 0.5 the sup sits on a kink
    and the search runs to the width rule. Zooming every round took 5-7,
    polishing each sup 10-12."""
    monkeypatch.delenv("BREGMAN_GRID_N", raising=False)
    inst = _warm(name)
    solves = _count_env_solves(monkeypatch, engine(inst))
    prox_hull(inst, x)
    assert 1 <= len(solves) <= _WARM_SOLVES[name, x]


def test_warm_prox_hull_mean_envelope_batches_are_pinned(monkeypatch):
    """The mean number of envelope batches per warm prox_hull at fixed
    points of the ranges the queries benchmark draws from: 2.08 (2.17 when
    a best sample at a bracket end was zoomed into, 5.40 when every round
    of the sup zoomed)."""
    monkeypatch.delenv("BREGMAN_GRID_N", raising=False)
    batches = []
    for name, lo, hi in (("euclid_abs", -3.0, 3.0), ("ex310", -0.9, -0.05),
                         ("hell_halfk", -0.9, 0.9)):
        inst = _warm(name)
        solves = _count_env_solves(monkeypatch, engine(inst))
        for x in np.linspace(lo, hi, 21).tolist():
            before = len(solves)
            prox_hull(inst, x)
            batches.append(len(solves) - before)
    assert np.mean(batches) <= 2.1


# NaN-rule passes (``kernels._coerce``) of one single-point call on a warm
# engine; 25, 17, 26, 26 and 23, 15, 24, 24 when f and kappa took one each
_NAN_RULE_PASSES = {
    ("euclid_sq", 0.7): {"left_prox": 13, "left_env": 9, "right_prox": 13, "certificate": 14},
    ("ex310", -0.4): {"left_prox": 12, "left_env": 8, "right_prox": 12, "certificate": 13},
}
# the passes of each call's entry checks: kappa at its point, and f there for
# the certificate
_ENTRY_PASSES = {"left_prox": 1, "left_env": 1, "right_prox": 1, "certificate": 2}


@pytest.mark.parametrize("name, y", list(_NAN_RULE_PASSES))
def test_one_nan_rule_pass_per_objective_evaluation(monkeypatch, name, y):
    """f and kappa share one pass of the NaN rule at each evaluation of an
    objective in the refinement (counted by wrapping ``numerics._on_brackets``),
    and the grid scans read the engine's caches: a call's passes are its
    evaluations plus its entry checks. A machine-independent gate on the
    work of a single-point solve."""
    monkeypatch.delenv("BREGMAN_GRID_N", raising=False)
    inst = _warm(name)
    calls = {"left_prox": lambda: left_prox(inst, y), "left_env": lambda: left_env(inst, y),
             "right_prox": lambda: right_prox(inst, y),
             "certificate": lambda: left_lpsubdiff_definitional(inst, y, 0.3)}
    for call in calls.values():  # warm: the right objectives cache f on the y grid
        call()
    engine(inst)._env_memo.clear()
    passes, evals = [], []
    real_coerce, real_on_brackets = kernels._coerce, numerics._on_brackets

    def coerce(*args):
        passes.append(1)
        return real_coerce(*args)

    def on_brackets(*args):
        evals.append(1)
        return real_on_brackets(*args)

    for mod in (kernels, catalog, proxenv):
        if getattr(mod, "_coerce", None) is real_coerce:
            monkeypatch.setattr(mod, "_coerce", coerce)
    monkeypatch.setattr(numerics, "_on_brackets", on_brackets)
    got = {}
    for label, call in calls.items():
        passes.clear()
        evals.clear()
        call()
        assert len(passes) == len(evals) + _ENTRY_PASSES[label], label
        got[label] = len(passes)
    assert got == _NAN_RULE_PASSES[name, y]


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


@pytest.mark.parametrize("x", [7.5, 7.9, 9.0, 20.0, -7.5, -20.0])
def test_prox_hull_past_the_window_end_is_out_of_range(x):
    """f = |x| is its own hull on euclid_abs, and the sup over ybar is at
    ybar = x + sign(x), past the window's end of the y grid (+-8) for
    |x| > 7. The best y-grid sample is then that cut end, and the value read
    from it falls below f (7.495 at x = 7.9, -64.5 at 20), so such an x is
    out of range."""
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(str(x))} out of range "):
        prox_hull(get_instance("euclid_abs"), x)


@pytest.mark.parametrize("name, x", [("euclid_abs", 6.5), ("euclid_abs", -6.5),
                                     ("hell_halfk", 1.0), ("hell_halfk", -1.0),
                                     ("shannon_abs", 1e-9)])
def test_prox_hull_at_a_domain_end_or_inside_the_window_is_read(name, x):
    """Only a y-grid end that the window cut is out of range: a best sample
    inside the window, or at a y-grid end that is a domain end (the last
    three cases), is read. At a domain end the y grid stops an inset short
    of it, hence the wider tolerance."""
    inst = get_instance(name)
    assert prox_hull(inst, x) == pytest.approx(float(engine(inst).hull_fn_value(x)), abs=1e-4)


@pytest.mark.parametrize("x", [-0.5, -0.01, -1e-9])
def test_prox_hull_outside_conv_dom_f_is_inf_without_a_solve(monkeypatch, x):
    """ex411's f is finite on [0, 1] only, inside dom kappa = [-1, 1], so
    its hull is +inf at x < 0. The sup over ybar there runs toward the open
    end of int dom kappa, where the y grid cut it short to a finite value
    (3952.78 at x = -0.5, 79.06 at -0.01). Past an end of dom f that the x
    grid samples, the value is read from f's samples before any solve."""
    inst = get_instance("ex411")
    eng = engine(inst)
    solves = _count_env_solves(monkeypatch, eng)
    assert prox_hull(inst, x) == math.inf
    assert not solves
    assert eng.hull_fn_value(x) == math.inf


def test_prox_hull_off_the_contact_set_agrees_with_the_geometric_route():
    """On (0.05, 0.9) ex310's hull lies below f, its sup over ybar near the
    kink of lam f + kappa's conjugate; a round aimed at a vertex there that
    did not fall back would lose the sup. At 30 fixed x the definitional
    route reads within 1e-7 of the geometric one (3.0e-10 at worst)."""
    inst = get_instance("ex310")
    eng = engine(inst)
    for x in np.linspace(0.05, 0.9, 32)[1:-1].tolist():
        assert abs(prox_hull(inst, x) - eng.hull_fn_value(x)) <= 1e-7


def test_prox_hull_on_the_contact_set_reads_f():
    """On (-1, 0) ex310's hull is f. Where the sup over ybar lies past the
    two grid cells around the best sample of the grid-resolution envelope,
    a search that zoomed into the bracket end read up to 8.2e-8 below f (6
    of these 169 points more than 1e-9 below, the worst at x = -0.561);
    stepping the bracket outward reaches the sup."""
    inst = get_instance("ex310")
    eng = engine(inst)
    for x in np.linspace(-0.9, -0.05, 169).tolist():
        assert abs(prox_hull(inst, x) - eng.hull_fn_value(x)) <= 1e-9


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
    for name in ("ex310", "euclid_abs", "ex419", "hell_halfk", "ex420"):
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


def test_tail_points_follow_the_written_out_sequences():
    tail = proxenv._tail_points
    window = (-2.0, 3.0)  # span 5
    closed = Interval(-4.0, 6.0, True, True)
    assert tail("lo", closed, window) == [] and tail("hi", closed, window) == []
    line = Interval.reals()
    assert tail("lo", line, window) == [-2.0 - 5.0 * 4.0 ** k for k in range(1, 100)]
    assert tail("hi", line, window) == [3.0 + 5.0 * 4.0 ** k for k in range(1, 100)]
    # an open finite side outside the window: from the window's edge
    wide = Interval(-4.0, 6.0, False, False)
    assert tail("lo", wide, window) == [-4.0 + 2.0 * 0.01 ** k for k in range(1, 150)]
    assert tail("hi", wide, window) == [6.0 - 3.0 * 0.01 ** k for k in range(1, 150)]
    # the window reaches the open end: from 1e-3 of the span inside it
    tight = Interval(-2.0, 3.0, False, False)
    x_lo, x_hi = -2.0 + 5.0 * 1e-3, 3.0 - 5.0 * 1e-3
    assert tail("lo", tight, window) == [-2.0 + (x_lo + 2.0) * 0.01 ** k
                                         for k in range(1, 150)]
    assert tail("hi", tight, window) == [3.0 - (3.0 - x_hi) * 0.01 ** k
                                         for k in range(1, 150)]


def test_values_are_plain_floats():
    """Every value accessor returns a float for a float, +inf included, and
    an array for an array."""
    inst = get_instance("euclid_abs")
    values = [left_env(inst, 0.5), right_env(inst, 0.5), left_prox(inst, 0.5).value,
              prox_hull(inst, 0.5), prox_hull(get_instance("hell_halfk"), 2.0),
              bregman_distance(ENERGY, 1.0, 2.0), bregman_distance(BURG, 1.0, -1.0)]
    assert [type(v) for v in values] == [float] * len(values)
    assert values[-1] == values[-3] == math.inf
    env = left_env(inst, np.array([0.5, 1.0]))
    assert isinstance(env, np.ndarray) and env.tolist() == [values[0], left_env(inst, 1.0)]


def test_right_env_matches_right_prox_value():
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ex419's left objective is flat to fourth order at its minimizer 1 + ybar (lam f + kappa "
    "is the quartic (x - 1)^4/4 up to a linear term): its value moves about 1e-18 over 4e-5 "
    "in x, below the rounding of its terms, so neither route locates the minimizer better "
    "than about 1e-4"))
def test_euclid_crosscheck_on_the_flat_quartic_minimum_of_ex419():
    """The ``queries`` benchmark checks this gap against 1e-5; at this ybar
    the Bregman prox reads 1.0 and the 3001-point Euclidean route 1.0000573."""
    assert euclid_crosscheck(get_instance("ex419"), 1.78718717402937e-05) <= 1e-5


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
    inst = get_instance("ex411")
    res = left_prox(inst, 0.9)
    assert res.minimizers[0] == pytest.approx(1.0, abs=1e-6)
    assert engine(inst).interior(res.minimizers).tolist() == [False]


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
