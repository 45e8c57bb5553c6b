import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bregmanprox.errors import (AllInfiniteError, DomainEdgeError,
                                OutOfRangeError, TooFewFiniteError,
                                UnboundedBelowError)
from bregmanprox.extreal import Interval
from bregmanprox.numerics import (Grid, build_grid, finite_diff_grad,
                                  grid_minimize, lower_convex_envelope,
                                  monotone_invert,
                                  second_difference_convexity_test)


def unit_grid(n=1001, lo=-1.0, hi=1.0):
    return Grid(lo, hi, n)


# -- grid_minimize -----------------------------------------------------------

def test_minimize_parabola():
    res = grid_minimize(lambda x: x * x, unit_grid())
    assert abs(res.x) < 1e-9
    assert abs(res.value) < 1e-15
    assert not res.multiple


def test_minimize_abs_kink_against_scan_oracle():
    # oracle: exhaustive scan on the same grid locates the kink cell
    g = unit_grid()
    vals = np.abs(g.points - 0.3)
    oracle_x = g.points[np.argmin(vals)]
    res = grid_minimize(lambda x: abs(x - 0.3), g)
    assert abs(oracle_x - 0.3) < g.h
    assert abs(res.x - 0.3) < 1e-9
    assert res.value < 1e-9


def test_minimize_two_basins_tie():
    # symmetric double well: both minima detected as a set-valued result
    res = grid_minimize(lambda x: (x * x - 0.25) ** 2, Grid(-1.0, 1.0, 2001))
    assert res.multiple
    assert len(res.minimizers) == 2
    assert abs(res.minimizers[0] + 0.5) < 1e-7
    assert abs(res.minimizers[1] - 0.5) < 1e-7


def test_double_well_refinement_work_is_pinned():
    # both tie runs are refined in the same calls: at most 14 zoom rounds
    # plus the parabolic polish, however many basins there are
    g = Grid(-1.0, 1.0, 2001)
    calls = []

    def phi(x):
        calls.append(np.shape(x))
        return (x * x - 0.25) ** 2

    res = grid_minimize(phi, g, values=(g.points ** 2 - 0.25) ** 2)
    assert len(res.minimizers) == 2
    assert len(calls) <= 20


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


def test_precomputed_values_path():
    g = unit_grid(101)
    vals = np.square(g.points)
    res = grid_minimize(lambda x: x * x, g, values=vals)
    assert abs(res.x) < 1e-9


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
