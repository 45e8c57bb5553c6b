import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregmanprox.errors import (AllInfiniteError, DomainEdgeError,
                                OutOfRangeError, TooFewFiniteError,
                                UnboundedBelowError)
from bregmanprox.extreal import Interval
from bregmanprox import numerics
from bregmanprox.catalog import Instance, get_instance, shift_scale
from bregmanprox.numerics import (X_RESOLUTION, Grid, build_grid,
                                  concave_sup, finite_diff_grad, grid_conjugate,
                                  grid_min_value, grid_minimize,
                                  lower_convex_envelope, monotone_invert, refine,
                                  second_difference_convexity_test, zoom)
from bregmanprox.proxenv import engine, left_env, left_prox
from bregmanprox.subdiff import left_lpsubdiff_definitional


def unit_grid(n=1001, lo=-1.0, hi=1.0):
    return Grid(lo, hi, n)


# -- grid_minimize -----------------------------------------------------------

def test_minimize_parabola():
    res = grid_minimize(lambda x: x * x, unit_grid())
    (x,) = res.minimizers
    assert abs(x) < 1e-9
    assert abs(res.value) < 1e-15
    assert not res.multiple


def test_minimize_abs_kink_against_scan_oracle():
    # oracle: exhaustive scan on the same grid locates the kink cell
    g = unit_grid()
    vals = np.abs(g.points - 0.3)
    oracle_x = g.points[np.argmin(vals)]
    res = grid_minimize(lambda x: abs(x - 0.3), g)
    assert abs(oracle_x - 0.3) < g.h
    (x,) = res.minimizers
    assert abs(x - 0.3) < 1e-9
    assert res.value < 1e-9


def test_minimize_two_basins_tie():
    # symmetric double well: both minima detected as a set-valued result
    res = grid_minimize(lambda x: (x * x - 0.25) ** 2, Grid(-1.0, 1.0, 2001))
    assert res.multiple
    assert len(res.minimizers) == 2
    assert abs(res.minimizers[0] + 0.5) < 1e-7
    assert abs(res.minimizers[1] - 0.5) < 1e-7


def test_double_well_refinement_work_is_pinned():
    # both tie runs are refined in the same calls, however many basins
    # there are: zoom rounds until each bracket is narrower than
    # X_RESOLUTION (7 from a 2-cell bracket on this grid) plus two rounds
    # of parabolic polish (2 calls each)
    g = Grid(-1.0, 1.0, 2001)
    calls = []

    def phi(x):
        calls.append(np.shape(x))
        return (x * x - 0.25) ** 2

    res = grid_minimize(phi, g, values=(g.points ** 2 - 0.25) ** 2)
    assert len(res.minimizers) == 2
    assert len(calls) <= 11


def test_refinement_locates_an_off_grid_kink_to_the_x_resolution():
    c = 0.3 + 1e-4 * math.sqrt(2)
    res = grid_minimize(lambda x: np.abs(x - c), build_grid(Interval(-1.0, 1.0), 2001))
    (x,) = res.minimizers
    assert abs(x - c) <= X_RESOLUTION
    assert res.value <= 1e-9


@pytest.mark.parametrize("c", [3.7 + 1e-3 * math.sqrt(2), 100.3 + 1e-3 * math.sqrt(3)])
def test_zoom_closes_a_bracket_and_its_mirror_image_alike(c):
    """The width rule reads max(1, |lo|, |hi|), so a bracket around a kink
    at c and its mirror image around -c take the same rounds. At c = 100
    the scale is 100 on both sides; a rule that read max(1, lo, hi) would
    zoom the negative side two rounds more."""
    rounds = {}
    for sign in (1.0, -1.0):
        calls = []

        def phi(x):
            calls.append(1)
            return np.abs(x - sign * c)

        lo, hi = sorted([sign * (c - 0.3), sign * (c + 0.7)])
        x, _ = zoom(phi, lo, hi)
        assert abs(x[0] - sign * c) <= X_RESOLUTION * abs(c)
        rounds[sign] = len(calls)
    assert rounds[1.0] == rounds[-1.0]


def test_a_bracket_that_is_infinite_throughout_still_closes():
    calls = []

    def phi(x):
        calls.append(x.size)
        return np.full_like(x, np.inf)

    a, b = 0.3, 0.302
    x, v = refine(phi, a, b)
    assert np.isinf(v).all() and a <= x[0] <= b
    # each round shrinks the bracket at least 8-fold; the scale is 1 here
    assert len(calls) <= math.ceil(math.log((b - a) / X_RESOLUTION, 8)) + 1


def _row_objective(params):
    """An array function ``phi(x, rows)``: a kinked, curved objective per
    row, +inf right of the row's domain edge."""
    c, s, d, e = (np.array(p, dtype=float) for p in zip(*params))

    def phi(x, rows):
        r = np.broadcast_to(rows, np.shape(x))
        out = s[r] * np.abs(x - c[r]) + np.square(x - d[r])
        return np.where(x > e[r], np.inf, out)

    return phi


_coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(params=st.lists(st.tuples(_coord, st.floats(0.0, 4.0), _coord, _coord),
                       min_size=1, max_size=4),
       brackets=st.lists(st.tuples(st.integers(0, 3), _coord, st.floats(1e-7, 2.0)),
                         min_size=1, max_size=12))
def test_refine_on_concatenated_rows_matches_each_bracket_alone(params, brackets):
    """Brackets of several rows refined in one call get, bit for bit, what
    each gets alone: a batch may refine all its rows at once."""
    phi = _row_objective(params)
    rows = np.array([r % len(params) for r, _, _ in brackets])
    a = np.array([lo for _, lo, _ in brackets])
    b = a + np.array([w for _, _, w in brackets])
    x, v = refine(phi, a, b, rows)
    for k in range(rows.size):
        xk, vk = refine(phi, a[k], b[k], rows[k:k + 1])
        assert (x[k].hex(), v[k].hex()) == (xk[0].hex(), vk[0].hex())


def test_the_resolution_stop_keeps_the_ex411_tie():
    res = left_prox(get_instance("ex411"), 1 / math.sqrt(2))
    assert res.minimizers == pytest.approx([0.0, 1.0], abs=X_RESOLUTION)


_EX411_Y = 0.1  # ex411's left objective there is least at the grid point x = 0


def _ex411_searches(route):
    """(searched value, best grid sample) of one grid search of ex411 whose
    least sample is the grid cell x = 0, where the objective is sqrt-steep:
    the prox and the envelope at ybar = 0.1, the left certificate whose
    slack is that objective plus a constant, and the conjugate of
    lam f + kappa at grad kappa(0.1), which is minus lam times it."""
    inst = get_instance("ex411")
    eng = engine(inst)
    values = eng.left_values(_EX411_Y)
    if route == "prox":
        return left_prox(inst, _EX411_Y).value, values.min()
    if route == "env":
        return left_env(inst, _EX411_Y), values.min()
    k, eta = eng.kernel, float(eng.kernel.grad(_EX411_Y))
    if route == "certificate":
        xb = 0.5
        u = (eta - float(k.grad(xb))) / eng.lam
        fxb, kxb, gxb = float(eng.fn.eval(xb)), float(k.eval(xb)), float(k.grad(xb))
        dx = eng.X - xb
        slack = eng.F - fxb - u * dx + (eng.K - kxb - gxb * dx) / eng.lam
        return left_lpsubdiff_definitional(inst, xb, u)[1], slack.min()
    g = eng.tilted(eng.X) - eta * eng.X
    return -grid_conjugate(eng.tilted, eng.x_grid, eta), g.min()


@pytest.mark.parametrize("route", ["prox", "env", "certificate", "conjugate"])
def test_refinement_never_ends_above_its_best_grid_cell(route):
    """Every tie run's search starts from its best grid cell. Zoom's first
    midpoint lo + (hi - lo)/2 = 5.55e-17 is not the cell x = 0 itself, and
    from there it once ended 7.45e-9 above the grid minimum."""
    searched, grid_best = _ex411_searches(route)
    assert searched <= grid_best


def test_rescaled_ex411_keeps_both_prox_points():
    """(f, lam) -> (1e3 f, lam / 1e3) leaves the prox unchanged: at
    ybar = 1/sqrt(2) it is {0, 1}. Without the grid-cell start the x = 0
    run refines 7.45e-6 above its cell, past the tie tolerance, and drops."""
    inst = get_instance("ex411")
    scaled = Instance(inst.name, inst.kernel, shift_scale(inst.fn, 0.0, 1e3, 0.0), inst.lam / 1e3)
    res = left_prox(scaled, 1 / math.sqrt(2))
    assert res.minimizers == pytest.approx([0.0, 1.0], abs=X_RESOLUTION)


# -- the value-only search ------------------------------------------------------

_C = 0.3 + 1e-4 * math.sqrt(2)  # off every grid below

_VALUE_CASES = [
    # a smooth interior minimum, which the polish moves in x
    (lambda x: np.cosh(x - _C) + 0.25, Grid(-1.0, 1.0, 2001)),
    # an off-grid kink
    (lambda x: 2.0 * np.abs(x - _C) - 0.5 * (x - _C) + 3.0, Grid(-1.0, 1.0, 2001)),
    # a minimum at the bracket's end b = 0.4, with +inf past it
    (lambda x: np.where(x > 0.4, np.inf, np.exp(-x)), Grid(-1.0, 0.4, 1401)),
]


@pytest.mark.parametrize("phi, grid", _VALUE_CASES)
def test_grid_min_value_matches_the_polished_refinement(phi, grid):
    """The value-only search skips the polish: its value is within 4 ulps
    of the ``grid_minimize`` value, and never above the best grid sample."""
    v = grid_min_value(phi, grid)
    assert abs(v - grid_minimize(phi, grid).value) <= 4 * np.spacing(1.0) * max(1.0, abs(v))
    assert v <= phi(grid.points).min()


@pytest.mark.parametrize("phi, grid", _VALUE_CASES)
def test_grid_conjugate_is_a_value_only_sup(phi, grid):
    """g*(eta) by the value-only search: never below the best grid sample of
    eta x - g(x), and within 4 ulps of the polished sup."""
    eta, xs = 0.75, grid.points
    v = grid_conjugate(phi, grid, eta)
    assert v >= (eta * xs - phi(xs)).max()
    polished = -grid_minimize(lambda x: phi(x) - eta * x, grid).value
    assert abs(v - polished) <= 4 * np.spacing(1.0) * max(1.0, abs(v))


def test_grid_conjugate_raises_as_grid_minimize():
    """A sup past DEFAULT_UNBOUNDED_CAP (about 8e12 for x^2 at eta = 1e12 on
    [-8, 8]) and a g with no finite sample raise, as in ``grid_minimize``."""
    grid = Grid(-8.0, 8.0, 2001)
    with pytest.raises(UnboundedBelowError):
        grid_conjugate(np.square, grid, 1e12)
    with pytest.raises(AllInfiniteError):
        grid_conjugate(lambda x: np.full_like(x, np.inf), grid, 0.5)


# -- the concave sup -------------------------------------------------------------

def _rounds(search, phi, xs):
    """(value, rounds) of ``concave_sup`` on ``phi`` over ``xs``, or of the
    width rule alone: ``zoom`` of -phi on the two cells around the best
    sample."""
    calls = []

    def counted(x):
        calls.append(1)
        return phi(x)

    values = phi(xs)[0]
    if search == "concave":
        v = concave_sup(counted, xs, values)
    else:
        j = int(np.argmax(np.where(np.isfinite(values), values, -np.inf)))
        v = -zoom(lambda x: -counted(x)[0], xs[max(j - 1, 0)], xs[min(j + 1, len(xs) - 1)])[1][0]
    return v, len(calls)


def _in_s(g):
    """phi(y) = (g(s), s) with the increasing slope s = sinh(y)."""
    return lambda y: (g(np.sinh(y)), np.sinh(y))


_XS = np.linspace(-1.0, 1.0, 2001)


@pytest.mark.parametrize("g, sup", [
    (lambda s: 1.5 - np.cosh(s - _C), 0.5),
    (lambda s: -3.0 * np.square(s + 0.2 * _C) + 40.0, 40.0),
])
def test_concave_sup_stops_within_rounding_before_the_width_rule(g, sup):
    v, rounds = _rounds("concave", _in_s(g), _XS)
    _, width_rounds = _rounds("width", _in_s(g), _XS)
    assert abs(v - sup) <= numerics.SUP_STOP_ULPS * np.spacing(max(1.0, sup))
    assert v <= sup and rounds < width_rounds


@pytest.mark.parametrize("g, sup", [
    (lambda s: 1.5 - np.cosh(s - _C), 0.5),
    (lambda s: -3.0 * np.square(s + 0.2 * _C) + 40.0, 40.0),
])
def test_concave_sup_aims_its_second_round_at_a_smooth_sup(g, sup):
    """After the zoom of the two grid cells, a smooth sup is bracketed by
    the parabola through the best three samples, and the aimed round's
    bound certifies: two rounds, where zooming every round took five."""
    v, rounds = _rounds("concave", _in_s(g), _XS)
    assert abs(v - sup) <= numerics.SUP_STOP_ULPS * np.spacing(max(1.0, sup))
    assert v <= sup and rounds == 2


def test_concave_sup_goes_back_to_the_zoom_bracket_when_an_aimed_round_misses():
    """A cubic term skews g (concave for s < _C + 10/3) so that the
    parabola's vertex after the first round lies farther from the sup than
    the aimed bracket reaches. The aimed round does not certify, the next
    round samples the zoom bracket it replaced (the sampled span grows
    back), and the search still ends within the stop."""
    g = lambda s: 1e5 * (s - _C) ** 3 - 1e6 * np.square(s - _C)  # sup 0 at s = _C
    spans = []

    def phi(y):
        spans.append(y[-1] - y[0])
        return _in_s(g)(y)

    v = concave_sup(phi, _XS, _in_s(g)(_XS)[0])
    assert any(b > a for a, b in zip(spans, spans[1:]))
    assert -numerics.SUP_STOP_ULPS * np.spacing(1.0) <= v <= 0.0


def test_concave_sup_aims_only_inside_the_zoom_bracket():
    """A sup so flat that samples at the aimed spacing would reach past the
    zoom bracket: the search zooms instead, so every round samples inside
    the two cells around the previous round's best sample (in
    ``prox_hull``, a bracket end may be the end of the y grid)."""
    g = lambda s: -1e-6 * np.square(s - _C)
    rounds = []

    def phi(y):
        rounds.append(y)
        return _in_s(g)(y)

    concave_sup(phi, _XS, _in_s(g)(_XS)[0])
    assert len(rounds) > 1
    for prev, cur in zip(rounds, rounds[1:]):
        k = int(np.argmax(_in_s(g)(prev)[0]))
        assert prev[k - 1] <= cur.min() and cur.max() <= prev[k + 1]


def test_concave_sup_steps_past_a_best_sample_at_a_bracket_end():
    """Seed values coarser than phi (here phi three grid cells on) put the
    sup two cells past the first bracket, whose best sample is then its
    end; the next bracket is centred on that sample, and the search ends
    within the stop (zooming into the end left it 1.1e-5 short). Toward a
    sup past the last point of xs the bracket steps no further than that
    point."""
    phi = _in_s(lambda s: -3.0 * np.square(s - _C))
    h = _XS[1] - _XS[0]
    v = concave_sup(phi, _XS, phi(_XS + 3 * h)[0])
    assert -numerics.SUP_STOP_ULPS * np.spacing(1.0) <= v <= 0.0
    seen = []

    def rising(y):
        seen.append(y)
        return _in_s(lambda s: s)(y)

    v = concave_sup(rising, _XS, -np.abs(_XS - _XS[-3]))
    assert v == np.sinh(_XS[-1])
    assert min(y.min() for y in seen) >= _XS[0] and max(y.max() for y in seen) <= _XS[-1]


@pytest.mark.parametrize("g", [
    lambda s: -np.abs(s - _C),  # a kink at the max, off every sample
    lambda s: s,  # the best sample at the bracket's right end
    lambda s: np.full_like(s, 2.0),  # equal chord slopes
    lambda s: np.where(s < _C, -np.inf, -s),  # samples that are not finite
])
def test_concave_sup_without_a_bound_falls_back_to_the_width_rule(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _rounds("concave", _in_s(g), _XS)
    assert got == _rounds("width", _in_s(g), _XS)


def test_minimize_convex_matches_finer_scan():
    # refined value within tolerance of a 10x finer exhaustive scan
    phi = lambda x: np.cosh(x) + 0.3 * x
    res = grid_minimize(phi, Grid(-2.0, 2.0, 501))
    fine = np.linspace(-2.0, 2.0, 5001)
    oracle = min(phi(float(x)) for x in fine)
    assert res.value <= oracle + 1e-10


def test_minimize_all_infinite():
    with pytest.raises(AllInfiniteError):
        grid_minimize(lambda x: math.inf, unit_grid(101))


def test_minimize_unbounded_cap():
    with pytest.raises(UnboundedBelowError):
        grid_minimize(lambda x: -x ** 4, Grid(-1e5, 1e5, 101))


def test_refinement_below_the_cap_raises():
    """Every grid sample stays above the cap (the nearest lies 1e-3 from the
    spike at c); the refined bracket reaches it and falls below the cap."""
    g = unit_grid()
    c = 0.5 * (g.points[700] + g.points[701])
    with pytest.raises(UnboundedBelowError, match="refined objective reached"):
        grid_minimize(lambda x: 1e15 * np.abs(x - c) - 1.5e12, g)


def test_basins_closer_than_the_x_resolution_merge():
    """At |x| = 1e7 the x resolution is 1e-2, twenty cells of 5e-4: two
    single-cell tie runs twelve cells apart merge into one cluster spanning
    both runs, so the result is single-valued. Each run's search starts from
    its grid cell, a or b, where phi is 0. The search around a refines to
    2e-9 above its cell, so that run ends on a; the merge keeps the lower
    value and its point, the left one on a tie: a, at 0."""
    g = Grid(1e7, 1e7 + 1, 2001)
    xs = g.points
    a, b = xs[800], xs[812]

    def phi(x):
        return np.minimum(np.abs(x - a), np.abs(x - b))

    _, v_ref = refine(phi, [xs[799], xs[811]], [xs[801], xs[813]])
    assert v_ref[0] > 0.0
    res = grid_minimize(phi, g)
    assert not res.multiple
    assert len(res.clusters) == 1
    c = res.clusters[0]
    assert (c.x, c.value, c.x_lo, c.x_hi) == (a, 0.0, a, b)
    assert res.value == 0.0
    assert list(res.minimizers) == [a]


def _object_merge(runs):
    """One row's refined tie runs filtered and merged as objects, sorted by
    x: the reference for the column merge of ``grid_minimize``."""
    clusters = [numerics.MinimizerCluster(*run) for run in runs]
    best = min(c.value for c in clusters)
    merged = []
    for c in sorted((c for c in clusters if c.value <= best + numerics.DEFAULT_TOL_TIE),
                    key=lambda c: c.x):
        if merged and abs(c.x - merged[-1].x) <= X_RESOLUTION * max(1.0, abs(c.x)):
            last = merged[-1]
            keep = c if c.value < last.value else last
            merged[-1] = numerics.MinimizerCluster(keep.x, keep.value, min(last.x_lo, c.x_lo),
                                                   max(last.x_hi, c.x_hi))
        else:
            merged.append(c)
    return numerics.ProxResult(min(c.value for c in merged), tuple(merged))


def _result_bits(res):
    return res.value.hex(), [tuple(v.hex() for v in (c.x, c.value, c.x_lo, c.x_hi))
                             for c in res.clusters]


@settings(max_examples=40, deadline=None)
@given(far=st.booleans(), n_grid=st.sampled_from([201, 2001]),
       wells=st.lists(st.tuples(st.integers(5, 195), st.floats(0.5, 3.0)),
                      min_size=2, max_size=5, unique_by=lambda w: w[0]),
       depths=st.lists(st.lists(st.sampled_from([0.0, 3e-8, 9e-8, 2e-7, 1e-6]),
                                min_size=5, max_size=5), min_size=1, max_size=25),
       data=st.data())
def test_the_column_merge_matches_the_object_merge(far, n_grid, wells, depths, data):
    """Rows of min_k w_k |x - c_k| + d_k with every c_k on the grid, so
    several wells tie within ``DEFAULT_TOL_TIE`` or miss it by a hair; at
    x = 1e7 the x resolution is 20 cells and nearby wells merge. Each row of
    the batch, read alone and after a gather in any order, equals the
    filter-and-merge of its refined runs as objects."""
    g = Grid(1e7, 1e7 + 1, n_grid) if far else unit_grid(n_grid)
    idx = np.array([i * (n_grid // 201) for i, _ in wells])
    cs, w = g.points[idx], np.array([wk for _, wk in wells]) * (1e-3 if far else 1.0)
    d = np.array(depths)[:, :len(wells)]

    def phi(x, rows):
        return np.min(np.abs(x[..., None] - cs) * w + d[np.broadcast_to(rows, x.shape)], axis=-1)

    vals = phi(np.broadcast_to(g.points, (len(d), n_grid)), np.arange(len(d))[:, None])
    batch = grid_minimize(phi, g, values=[(0, vals)])
    _, _, row, i0, i1, x, v = numerics._grid_runs(phi, g, [(0, vals)], refine)
    runs = list(zip(x.tolist(), v.tolist(), g.points[i0].tolist(), g.points[i1].tolist()))
    want = [_result_bits(_object_merge([run for run, r in zip(runs, row) if r == k]))
            for k in range(len(d))]
    assert [_result_bits(res) for res in batch] == want
    order = data.draw(st.permutations(range(len(d))))
    assert [_result_bits(res) for res in batch[np.array(order, dtype=int)]] == \
        [want[k] for k in order]


def test_precomputed_values_path():
    g = unit_grid(101)
    vals = np.square(g.points)
    res = grid_minimize(lambda x: x * x, g, values=vals)
    (x,) = res.minimizers
    assert abs(x) < 1e-9


def _tie_runs_reference(values, tol_tie):
    """The tie-run scan as first written: a finite mask on every block, and
    two nonzero passes over an int8 difference of the tie mask; then each
    run's first least cell, one run at a time."""
    finite = np.isfinite(values)
    if not finite.any(axis=1).all():
        raise AllInfiniteError("objective is +inf at every grid sample")
    vmin = values.min(axis=1, where=finite, initial=np.inf)
    tie = (values <= (vmin + tol_tie)[:, None]).astype(np.int8)
    edge = np.diff(tie, axis=1, prepend=np.int8(0), append=np.int8(0))
    row, i0 = np.nonzero(edge == 1)
    i1 = np.nonzero(edge == -1)[1] - 1
    best = np.array([a + np.argmin(values[r, a:b + 1]) for r, a, b in zip(row, i0, i1)], dtype=int)
    return row, i0, i1, best, values[row, best]


# near-ties, exact ties, both infinities and NaN
_CELL = st.one_of(st.sampled_from([0.0, 0.5, 0.5 + 5e-8, 1.0, -3.0, -4.0, math.inf,
                                   -math.inf, math.nan]), st.floats(-5.0, 5.0))


@st.composite
def _tie_blocks(draw):
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    cells = draw(st.lists(_CELL, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    values = np.array(cells).reshape(n_rows, n_cols)
    inf_row = draw(st.integers(0, 3 * n_rows))  # a row that is +inf everywhere
    if inf_row < n_rows:
        values[inf_row] = math.inf
    return values


@settings(max_examples=200, deadline=None)
@given(values=_tie_blocks(), tol_tie=st.sampled_from([0.0, 1e-7, 0.6]))
# runs at both ends and one-cell runs; one column; -inf ties and NaN never does
@example(values=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
         tol_tie=1e-7)
@example(values=np.array([[2.0], [-1.0]]), tol_tie=1e-7)
@example(values=np.array([[math.inf, -math.inf, 0.0, math.nan, 0.0]]), tol_tie=1e-7)
def test_tie_runs_match_the_reference_scan(values, tol_tie):
    """Same (row, i0, i1, best, low) arrays, or the same exception and
    message, for blocks with runs at both ends, one-cell runs, +-inf, NaN
    and +inf rows."""
    try:
        want = _tie_runs_reference(values, tol_tie)
    except AllInfiniteError as exc:
        with pytest.raises(type(exc)) as got:
            numerics._tie_runs(values, tol_tie)
        assert str(got.value) == str(exc)
        return
    got = numerics._tie_runs(values, tol_tie)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


# -- lower_convex_envelope ---------------------------------------------------

def test_hull_convex_input_is_fixed_point():
    xs = np.linspace(-1.0, 1.0, 41)
    hull = lower_convex_envelope(zip(xs, xs ** 2))
    assert np.allclose(hull.value(xs), xs ** 2, atol=1e-12)


def test_hull_concave_input_single_chord():
    xs = np.linspace(-1.0, 1.0, 41)
    hull = lower_convex_envelope(zip(xs, -xs ** 2))
    assert len(hull.xs) == 2
    assert hull.value(0.0) == pytest.approx(-1.0)


def test_hull_tilted_semicircle_plus_kernel():
    # (x - 1) sqrt(1 - x^2): equals samples left of 0, slope-1 chord to (1, 0)
    xs = np.linspace(-1.0, 1.0, 401)
    phi = (xs - 1.0) * np.sqrt(np.maximum(1.0 - xs ** 2, 0.0))
    hull = lower_convex_envelope(zip(xs, phi))
    left = xs <= 0.0
    assert np.allclose(hull.value(xs[left]), phi[left], atol=1e-9)
    right = xs >= 0.05
    assert np.allclose(hull.value(xs[right]), xs[right] - 1.0, atol=1e-4)


def test_hull_requires_two_finite():
    with pytest.raises(TooFewFiniteError):
        lower_convex_envelope([(0.0, math.inf), (1.0, 2.0)])


def test_hull_rejects_unsorted():
    with pytest.raises(ValueError):
        lower_convex_envelope([(0.0, 1.0), (0.0, 2.0)])


def test_hull_slopes_at_edges():
    xs = np.linspace(0.0, 1.0, 11)
    hull = lower_convex_envelope(zip(xs, xs ** 2))
    sl, sr = hull.slopes_at(0.0)
    assert sl == -math.inf and math.isfinite(sr)
    sl, sr = hull.slopes_at(1.0)
    assert math.isfinite(sl) and sr == math.inf


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                min_size=3, max_size=40, unique_by=lambda t: round(t[0], 6)))
def test_hull_properties(points):
    points = sorted(points)
    xs = [p[0] for p in points]
    if min(np.diff(xs)) <= 1e-6:
        return
    hull = lower_convex_envelope(points)
    slopes = hull.segment_slopes()
    assert (np.diff(slopes) >= -1e-9).all()
    for x, v in points:
        assert hull.value(x) <= v + 1e-9 * max(1.0, abs(v))


# -- monotone_invert ---------------------------------------------------------

def test_invert_identity():
    assert monotone_invert(lambda x: x, 0.7, (-1.0, 1.0)) == pytest.approx(0.7)


def test_invert_cube():
    # oracle: cube root closed form
    x = monotone_invert(lambda x: x ** 3, 8.0, (0.0, 1.0))
    assert abs(x - 8.0 ** (1.0 / 3.0)) < 1e-10
    assert abs(x - 2.0) < 1e-10


def test_invert_log_gradient():
    # oracle: exp closed form for 1 + log x = 0
    dom = Interval(0.0, math.inf, False, False)
    x = monotone_invert(lambda x: 1.0 + math.log(x), 0.0, (0.5, 2.0), domain=dom)
    assert abs(x - math.exp(-1.0)) < 1e-10


def test_invert_out_of_range():
    dom = Interval(0.0, math.inf, False, False)
    with pytest.raises(OutOfRangeError):
        monotone_invert(lambda x: -1.0 / x, 1.0, (0.5, 2.0), domain=dom)


def test_invert_roundtrip_random_targets():
    rng = np.random.default_rng(7)
    m = lambda x: x ** 3 + x
    for t in rng.uniform(-20.0, 20.0, 100):
        x = monotone_invert(m, float(t), (-1.0, 1.0))
        assert abs(m(x) - t) <= 1e-10


# -- second differences ------------------------------------------------------

def test_convexity_parabola():
    xs = np.linspace(-1, 1, 101)
    ok, worst, _ = second_difference_convexity_test(xs, xs ** 2)
    assert ok and worst >= 0.0


def test_convexity_dual_envelope_counterexample():
    # 2/3 |y|^{3/2} - 2/3 |y-1|^{3/2} is nonconvex on [-3, 3]
    ys = np.linspace(-3, 3, 241)
    v = (2 / 3) * np.abs(ys) ** 1.5 - (2 / 3) * np.abs(ys - 1) ** 1.5
    ok, worst, witness = second_difference_convexity_test(ys, v)
    assert not ok and worst < 0
    assert 0.0 < witness[1] < 1.5  # curvature deficit sits past the kink pair


def test_convexity_linear():
    ys = np.linspace(-3, 3, 101)
    ok, _, _ = second_difference_convexity_test(ys, -ys)
    assert ok


def test_convexity_inf_hole_refutes_with_gap_pair():
    # the witness is the last finite point before the hole and the next point
    xs = np.linspace(0.0, 1.0, 11)
    v = xs ** 2
    v[4] = np.inf
    assert second_difference_convexity_test(xs, v) == (False, -math.inf,
                                                       (xs[3], xs[4]))


def test_convexity_fewer_than_three_finite_refutes_nothing():
    xs = np.linspace(0.0, 1.0, 11)
    v = np.full_like(xs, np.inf)
    v[5:7] = -xs[5:7] ** 2
    assert second_difference_convexity_test(xs, v) == (True, math.inf, ())


def test_convexity_tests_the_contiguous_finite_run_alone():
    xs = np.linspace(-1.0, 1.0, 41)
    v = np.where(np.abs(xs) <= 0.5, xs ** 2, np.inf)
    ok, worst, witness = second_difference_convexity_test(xs, v, tol=0.0)
    assert ok and worst > 0.0
    assert -0.5 <= witness[0] and witness[2] <= 0.5


def test_convexity_requires_uniform():
    with pytest.raises(ValueError):
        second_difference_convexity_test(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0]))


# -- finite differences ------------------------------------------------------

def test_fd_parabola():
    assert finite_diff_grad(lambda x: x * x, 1.0, 1e-5) == pytest.approx(2.0, abs=1e-8)


def test_fd_hellinger():
    phi = lambda x: -math.sqrt(1 - x * x)
    assert finite_diff_grad(phi, 0.6, 1e-6) == pytest.approx(0.75, abs=1e-6)


def test_fd_xlogx():
    phi = lambda x: x * math.log(x)
    assert finite_diff_grad(phi, 1.0, 1e-6) == pytest.approx(1.0, abs=1e-6)


def test_fd_domain_edge():
    phi = lambda x: -math.sqrt(1 - x * x) if abs(x) <= 1 else math.inf
    with pytest.raises(DomainEdgeError):
        finite_diff_grad(phi, 1.0, 1e-3)


def test_fd_array_equals_the_scalar_calls_bit_for_bit():
    phi = lambda x: np.exp(np.sin(3.0 * x)) + np.square(x)
    xs = np.linspace(-1.3, 2.1, 37)
    got = finite_diff_grad(phi, xs, 1e-6)
    want = [finite_diff_grad(phi, float(x), 1e-6) for x in xs]
    assert isinstance(got, np.ndarray) and got.tolist() == want


def test_fd_array_raises_on_one_bad_point():
    phi = lambda x: np.where(np.abs(x) <= 1.0, -np.sqrt(np.clip(1.0 - x * x, 0.0, None)),
                             np.inf)
    with pytest.raises(DomainEdgeError, match=r"\[0\.9985, 1\.0005\]"):
        finite_diff_grad(phi, np.array([-0.5, 0.0, 0.9995, 0.5]), 1e-3)


# -- grid construction -------------------------------------------------------

def test_build_grid_insets_open_sides():
    g = build_grid(Interval(0.0, 1.0, False, True), n=11)
    assert g.points[0] > 0.0
    assert g.points[-1] == 1.0


def test_build_grid_window_clips():
    g = build_grid(Interval.reals(), n=11, window=(-2.0, 3.0))
    assert g.points[0] == -2.0 and g.points[-1] == 3.0


def test_build_grid_needs_window_for_unbounded():
    with pytest.raises(ValueError):
        build_grid(Interval.reals(), n=11)
