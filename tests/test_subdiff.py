import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregmanprox import subdiff
from bregmanprox.catalog import F_ABS, Instance, ProperFn, get_instance, shift_scale
from bregmanprox.errors import HypothesesUnmetError, OutOfRangeError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import ENERGY, QUARTIC
from bregmanprox.numerics import DEFAULT_UNBOUNDED_CAP
from bregmanprox.proxenv import engine, hull_instance
from bregmanprox.subdiff import (TOL_WIDTH, frechet_lower_probe, is_singleton,
                                 left_lpsubdiff_definitional,
                                 left_lpsubdiff_hull, monotone_related,
                                 right_lpsubdiff_definitional,
                                 single_valuedness_at, subdiff_samples)
from bregmanprox.verify import coincidence_check, resolvent_check


# -- definitional certificates ---------------------------------------------------

def test_definitional_ex411_zero_accepted():
    member, worst, _ = left_lpsubdiff_definitional(get_instance("ex411"), 0.0, 0.0)
    assert member and worst >= -1e-6


def test_definitional_ex411_above_upper_rejected():
    member, worst, witness = left_lpsubdiff_definitional(get_instance("ex411"), 0.0, 0.6)
    assert not member
    # the violation is carried by the far endpoint of the chord
    assert witness == pytest.approx(1.0, abs=1e-6)
    assert worst == pytest.approx(-0.1, abs=1e-6)


def test_definitional_boundary_point_rejected():
    member, _, _ = left_lpsubdiff_definitional(get_instance("ex411"), 1.0, 0.0)
    assert not member


def test_definitional_euclid_abs():
    inst = get_instance("euclid_abs")
    assert left_lpsubdiff_definitional(inst, 0.0, 0.9)[0]
    assert left_lpsubdiff_definitional(inst, 0.0, -1.0)[0]
    assert not left_lpsubdiff_definitional(inst, 0.0, 1.4)[0]


# -- hull characterization --------------------------------------------------------

def test_hull_ex310_singleton_branch():
    inst = get_instance("ex310")
    s = left_lpsubdiff_hull(inst, -0.5)
    assert is_singleton(s)
    assert 0.5 * (s.lo + s.hi) == pytest.approx(inst.fn.deriv(-0.5), abs=1e-4)


def test_hull_ex310_empty_branch():
    assert left_lpsubdiff_hull(get_instance("ex310"), 0.5).is_empty


def test_hull_euclid_abs_interval():
    s = left_lpsubdiff_hull(get_instance("euclid_abs"), 0.0)
    assert s.lo == pytest.approx(-1.0, abs=1e-6)
    assert s.hi == pytest.approx(1.0, abs=1e-6)
    assert s.lo_closed and s.hi_closed


def test_hull_ex411_unbounded_interval():
    s = left_lpsubdiff_hull(get_instance("ex411"), 0.0)
    assert s.lo == -math.inf and not s.lo_closed
    assert s.hi == pytest.approx(0.5, abs=1e-4) and s.hi_closed


@pytest.mark.parametrize("b", [1.0, 10.0, 100.0])
def test_an_unbounded_end_is_probed_beyond_the_finite_end(b):
    """ex419 with f scaled by b and lam by 1/b: lam f + kappa and its hull do
    not move, so the finite upper end scales by b. Near the start of the
    hull span the lower end is unbounded, and its probe must lie below the
    upper end at every scale (at b = 10 a fixed -1e3 probe lay above it and
    the route raised). At the span's start, the end of the x grid (f's
    window), the certificate has no x below, so every u under the upper
    end passes and the lower end stays unbounded."""
    base = get_instance("ex419")
    inst = Instance(f"ex419_x{b:g}", base.kernel, shift_scale(base.fn, 0.0, b, 0.0),
                    base.lam / b)
    xs = [-8.0, -7.999999999, -7.999]
    for x, s, s1 in zip(xs, left_lpsubdiff_hull(inst, xs), left_lpsubdiff_hull(base, xs)):
        assert s.hi == pytest.approx(b * s1.hi, rel=1e-9), x
        assert s.lo < s.hi and not s.lo_closed and s.hi_closed, (x, s)
    assert left_lpsubdiff_hull(inst, -8.0).lo == -math.inf


def test_hull_requires_one_coercive():
    with pytest.raises(HypothesesUnmetError):
        left_lpsubdiff_hull(get_instance("ex_ln"), 1.0)


def test_hull_noninterior_empty():
    assert left_lpsubdiff_hull(get_instance("ex310"), 1.0).is_empty


def test_subdiff_set_invariants():
    s = Interval(-math.inf, 2.0, True, True)
    assert not s.lo_closed  # infinite endpoints forced open
    assert not is_singleton(s)
    with pytest.raises(ValueError, match="out of order"):
        Interval(1.0, 0.0)
    assert Interval(3.0, 3.0).contains(3.0) and is_singleton(Interval(3.0, 3.0))
    assert is_singleton(Interval(0.0, 0.5 * TOL_WIDTH, False, True))
    assert not is_singleton(Interval(0.0, 2.0 * TOL_WIDTH))
    assert not Interval.empty().contains(0.0) and not is_singleton(Interval.empty())
    half_open = Interval(0.0, 1.0, False, True)
    assert not half_open.contains(0.0)  # open endpoints are excluded
    assert half_open.contains(1.0) and not half_open.contains(math.nan)


# -- right subdifferential ---------------------------------------------------------

@pytest.mark.parametrize("cert, grid", [(left_lpsubdiff_definitional, "x"),
                                        (right_lpsubdiff_definitional, "y")])
def test_a_certificate_at_an_overflowing_point_is_out_of_range(cert, grid):
    """On euclid_abs kappa(1e160) overflows. The slack was NaN at every grid
    point, which read as no finite sample, (inf, nan), and so as a member
    for every u. Each certificate now raises as the prox of its side does,
    alone and in a batch, naming the first overflowing point."""
    inst = get_instance("euclid_abs")
    msg = rf"^1e\+160 out of range for energy: kappa or its tilt overflows on the {grid} grid$"
    for u in (5.0, -3.0, 0.0):
        with pytest.raises(OutOfRangeError, match=msg):
            cert(inst, 1e160, u)
    with pytest.raises(OutOfRangeError, match=msg):
        cert(inst, [0.5, 1e160, -1e170], 1.0)
    assert cert(inst, 0.5, 1.0)[0]


@pytest.mark.parametrize("cert", [left_lpsubdiff_definitional, right_lpsubdiff_definitional])
@pytest.mark.parametrize("name", ["euclid_abs", "ex310"])
def test_a_subgradient_that_is_not_finite_is_no_member(cert, name):
    """The level proximal subdifferential is a subset of the reals: a u (or
    v) of nan, +inf or -inf is no member, (False, -inf, xbar) as at a
    non-interior xbar, alone and in a batch, without a warning. Each such
    u read (True, inf, nan) before, and u = inf on ex310 also warned."""
    inst = get_instance(name)
    bad = [math.nan, math.inf, -math.inf]
    for u in bad:
        assert bits(cert(inst, 0.5, u)) == bits((False, -math.inf, 0.5))
    member, worst, witness = cert(inst, [0.5] * 4, bad + [1.0])
    assert member.tolist()[:3] == [False] * 3
    assert bits(worst[:3].tolist() + witness[:3].tolist()) == bits([-math.inf] * 3 + [0.5] * 3)
    assert bits(c[3] for c in (member.tolist(), worst.tolist(), witness.tolist())) == \
        bits(cert(inst, 0.5, 1.0))


@pytest.mark.parametrize("cert", [left_lpsubdiff_definitional, right_lpsubdiff_definitional])
def test_a_point_off_the_interior_is_no_member_row_by_row(cert):
    """On ex310 (Hellinger, dom [-1, 1]) the points 1.5 and -1 are off int
    dom kappa: each reads (False, -inf, itself) alone and in a batch, and
    the interior row 0.2 of the batch keeps the bits it has alone. The
    right certificate raised ``OutsideInteriorError`` for the whole batch."""
    inst = get_instance("ex310")
    for y in (1.5, -1.0):
        assert bits(cert(inst, y, 0.3)) == bits((False, -math.inf, y))
    member, worst, witness = cert(inst, [0.2, 1.5, -1.0], 0.3)
    rows = list(zip(member.tolist(), worst.tolist(), witness.tolist()))
    assert bits(rows[1:]) == bits([(False, -math.inf, 1.5), (False, -math.inf, -1.0)])
    assert bits(rows[0]) == bits(cert(inst, 0.2, 0.3))


def test_right_definitional_zero():
    inst = get_instance("euclid_zero")
    assert right_lpsubdiff_definitional(inst, 0.7, 0.0)[0]


def test_right_definitional_abs_levels():
    inst = get_instance("euclid_abs")
    assert right_lpsubdiff_definitional(inst, 2.0, 1.0)[0]
    assert not right_lpsubdiff_definitional(inst, 2.0, 2.0)[0]


def test_right_consistency_with_left_prox():
    # probe v = (xbar - ybar)/lam against the negated-envelope right instance:
    # membership must match xbar being a prox output at ybar
    inst = get_instance("ex419")
    eng = engine(inst)

    def neg_env(ys):
        shape = np.shape(ys)
        ys1 = np.atleast_1d(np.asarray(ys, dtype=float))
        inside = np.array([eng.kernel.domain.interior_contains(float(y)) for y in ys1],
                          dtype=bool)
        out = np.full(ys1.shape, math.inf)
        out[inside] = -eng.env(ys1[inside])
        return out.reshape(shape) if shape else float(out[0])

    g = ProperFn("neg_env_419", Interval.reals(), lambda x: neg_env(x),
                 inst.fn.window)
    ginst = Instance("ex419_negenv", QUARTIC, g, 1.0)
    for ybar in (-1.2, 0.4, 1.9):
        xbar = eng.prox(ybar).minimizers[0]
        v = (xbar - ybar) / inst.lam
        _, worst, _ = right_lpsubdiff_definitional(ginst, ybar, v)
        assert worst >= -1e-4, f"ybar={ybar}: worst={worst}"
        _, worst_off, _ = right_lpsubdiff_definitional(ginst, ybar, v + 0.5)
        assert not worst_off >= -1e-4


# -- resolvent representation -------------------------------------------------------

def resolvent_residual(rep):
    """The largest violation of either direction of a resolvent report whose
    range assumption held."""
    assert rep.status == "ok" and rep.condition("range-assumption").holds
    return max(rep.condition("forward-certificate").worst,
               rep.condition("converse-prox").worst)


def test_resolvent_euclid_abs_classical():
    assert resolvent_residual(resolvent_check(get_instance("euclid_abs"), seed=1)) <= 1e-6


def test_resolvent_ex411_range_failure():
    rep = resolvent_check(get_instance("ex411"), seed=1)
    assert rep.status == "range-assumption-failed"
    cond = rep.condition("range-assumption")
    assert not cond.holds and cond.worst == len(cond.witness) // 2 > 0
    assert any(abs(m - 1.0) < 1e-6 for m in cond.witness[1::2])


def test_resolvent_ex310_range_failure_and_restricted_validity():
    # prox sends points with grad kappa(y) > 1 to the boundary, so the range
    # assumption fails on the full interior; on the subdomain where outputs
    # stay interior the representation holds
    rep = resolvent_check(get_instance("ex310"), seed=1)
    assert rep.status == "range-assumption-failed"
    assert not rep.condition("range-assumption").holds
    ys = np.linspace(-0.65, 0.65, 20)
    assert resolvent_residual(resolvent_check(get_instance("ex310"), ybar_values=ys)) <= 1e-6


def test_resolvent_ex_ln():
    assert resolvent_residual(resolvent_check(get_instance("ex_ln"), seed=1)) <= 1e-6


# -- single-valuedness ---------------------------------------------------------------

def test_single_valuedness_smooth_point():
    sv = single_valuedness_at(get_instance("ex310"), -0.5)
    assert (sv.empty, sv.single, sv.hull_differentiable, sv.hull_touches) == \
        (False, True, True, True)
    assert sv.equivalence_consistent


def test_single_valuedness_kink():
    sv = single_valuedness_at(get_instance("euclid_abs"), 0.0)
    assert (sv.empty, sv.single, sv.hull_differentiable, sv.hull_touches) == \
        (False, False, False, True)
    assert sv.equivalence_consistent


def test_single_valuedness_empty_branch():
    sv = single_valuedness_at(get_instance("ex310"), 0.5)
    assert sv.empty and sv.single is None
    assert sv.hull_differentiable and not sv.hull_touches
    assert sv.equivalence_consistent


def test_single_valuedness_evaluates_hull_slopes_once(monkeypatch):
    # a smooth point, a kink, a point off the hull, and points just outside
    # and far outside the hull span of ex411
    calls = []
    real = subdiff.hull_slopes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subdiff, "hull_slopes", counted)
    eng = engine(get_instance("ex411"))
    near = eng.hull_curve().x_min - 0.375 * eng.x_grid.h
    for name, x in (("ex310", -0.5), ("euclid_abs", 0.0), ("ex310", 0.5),
                    ("ex411", near), ("ex411", -0.5)):
        calls.clear()
        single_valuedness_at(get_instance(name), x)
        assert len(calls) == 1, (name, x)


def test_hull_route_accepts_points_just_outside_span():
    # the hull route admits x up to half a cell past the hull span; ex411's
    # span starts at 0, where f becomes finite
    inst = get_instance("ex411")
    eng = engine(inst)
    x_min, h = eng.hull_curve().x_min, eng.x_grid.h
    for frac in (0.3, 0.375, 0.45):
        x = x_min - frac * h
        assert left_lpsubdiff_hull(inst, x).is_empty
        assert single_valuedness_at(inst, x).empty


# -- batches ---------------------------------------------------------------------------

# A batch entry is a fraction of the x grid's span or a named point where the
# routes branch.
BRANCH_POINTS = ("lo", "hi", "below", "above", "zero", "half",
                 "span-start-outside", "span-start-inside")
BATCH = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(BRANCH_POINTS)), max_size=6)
BATCH_INSTANCES = st.sampled_from(["ex310", "ex411", "euclid_abs"])


def batch_points(inst, batch) -> list[float]:
    """The x of every batch entry. The named points: the ends of the x grid
    and one past them (not interior for ex310 and ex411), 0 (the kink of
    euclid_abs, the unbounded lower endpoint of ex411), 0.5 (on ex310's
    empty branch), and within half a cell of the hull span's start on either
    side (an unbounded endpoint for ex411)."""
    eng = engine(inst)
    lo, hi, h = eng.x_grid.lo, eng.x_grid.hi, eng.x_grid.h
    x_min = eng.hull_curve().x_min
    named = {"lo": lo, "hi": hi, "below": lo - 1.0, "above": hi + 1.0, "zero": 0.0,
             "half": 0.5, "span-start-outside": x_min - 0.375 * h,
             "span-start-inside": x_min + 0.25 * h}
    return [named[e] if isinstance(e, str) else lo + (hi - lo) * e for e in batch]


def bits(values) -> tuple:
    """Floats by their bit patterns (NaN included), other values as they are."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def set_bits(s: Interval) -> tuple:
    return bits((s.lo, s.hi, s.lo_closed, s.hi_closed, s.is_empty))


@settings(max_examples=40, deadline=None)
@given(name=BATCH_INSTANCES, batch=BATCH)
@example(name="ex411", batch=[])
@example(name="ex411", batch=list(BRANCH_POINTS))
@example(name="ex310", batch=list(BRANCH_POINTS))
@example(name="euclid_abs", batch=list(BRANCH_POINTS))
def test_hull_batch_is_each_point_alone(name, batch):
    inst = get_instance(name)
    xs = batch_points(inst, batch)
    assert [set_bits(s) for s in left_lpsubdiff_hull(inst, xs)] == \
        [set_bits(left_lpsubdiff_hull(inst, x)) for x in xs]
    assert [bits(p) for p in zip(*(a.tolist() for a in subdiff.hull_slopes(inst, xs)))] == \
        [bits(subdiff.hull_slopes(inst, x)) for x in xs]


@settings(max_examples=40, deadline=None)
@given(name=BATCH_INSTANCES, batch=st.lists(st.one_of(
    st.floats(-0.01, 1.01), st.tuples(st.integers(0, 10 ** 6),
                                      st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]))),
    max_size=8))
@example(name="ex411", batch=[])
@example(name="euclid_abs", batch=[(0, 0.0), (0, -0.5), (-1, 0.5), (1, 0.5), (1, 2.0)])
def test_slopes_at_batch_is_each_point_alone(name, batch):
    # a fraction of the span, or a breakpoint moved by a multiple of x_tol
    eng = engine(get_instance(name))
    curve, tol = eng.hull_curve(), 0.25 * eng.x_grid.h
    xs = [curve.xs[e[0] % len(curve.xs)] + e[1] * tol if isinstance(e, tuple)
          else curve.x_min + (curve.x_max - curve.x_min) * e for e in batch]
    xs = np.clip(xs, curve.x_min - tol, curve.x_max + tol).tolist()
    sl, sr = curve.slopes_at(xs, x_tol=tol)
    assert [bits(p) for p in zip(sl.tolist(), sr.tolist())] == \
        [bits(curve.slopes_at(x, x_tol=tol)) for x in xs]


@settings(max_examples=25, deadline=None)
@given(name=BATCH_INSTANCES, batch=BATCH, data=st.data())
def test_certificate_batches_are_each_point_alone(name, batch, data):
    inst = get_instance(name)
    xs = batch_points(inst, batch)
    us = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(xs), max_size=len(xs)))
    ys = [y for y in xs if engine(inst).kernel.domain.interior_contains(y)]
    for route, pts in ((left_lpsubdiff_definitional, xs),
                       (right_lpsubdiff_definitional, ys)):
        vs = us[:len(pts)]
        member, worst, witness = route(inst, pts, vs)
        assert member.dtype == bool and member.shape == worst.shape == (len(pts),)
        assert [bits(c) for c in zip(member.tolist(), worst.tolist(), witness.tolist())] == \
            [bits(route(inst, p, v)) for p, v in zip(pts, vs)]


def test_certificate_batches_cover_the_branch_points():
    # every named point at once, each against u = 0.3
    for name in ("ex310", "ex411", "euclid_abs"):
        inst = get_instance(name)
        xs = batch_points(inst, BRANCH_POINTS)
        ys = [y for y in xs if engine(inst).kernel.domain.interior_contains(y)]
        for route, pts in ((left_lpsubdiff_definitional, xs),
                           (right_lpsubdiff_definitional, ys)):
            batch = zip(*(a.tolist() for a in route(inst, pts, 0.3)))
            assert [bits(c) for c in batch] == [bits(route(inst, p, 0.3)) for p in pts]
        for route in (left_lpsubdiff_definitional, right_lpsubdiff_definitional):
            assert all(a.shape == (0,) for a in route(inst, [], []))


@pytest.mark.parametrize("name, samples", [
    ("euclid_abs", 81), ("ex310", 1_069), ("hell_halfk", 82)])
def test_a_left_certificate_scans_only_its_tilt_windows(monkeypatch, name, samples):
    """A work gate that does not depend on the machine: a bsmooth-style
    left certificate, 27 points with u the finite-difference derivative,
    scans the slack on each row's own window, in one chunk, far below the
    27 x 2001 = 54,027 grid samples of a whole-grid scan (counted as the
    sizes of the chunks ``numerics._tie_runs`` reads). Windows of the two
    17-row blocks of the block rule scanned 38,976, 35,977 and 38,815."""
    from bregmanprox import numerics
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    scanned, real = [], numerics._tie_runs

    def counted(values, starts, tol_tie):
        scanned.append(values.size)
        return real(values, starts, tol_tie)

    inst = get_instance(name)
    eng = engine(inst)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    pts = np.unique(np.append(numerics.sample_inset(np.random.default_rng(42), lo, hi, 20),
                              lo + (hi - lo) * np.array([0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])))
    us = numerics.finite_diff_grad(inst.fn.eval, pts, 1e-6 * max(1.0, hi - lo))
    monkeypatch.setattr(numerics, "_tie_runs", counted)
    batch = left_lpsubdiff_definitional(inst, pts, us)
    assert len(pts) == 27 and scanned == [samples]
    monkeypatch.setattr(numerics, "_tie_runs", real)
    assert [bits(c) for c in zip(*(a.tolist() for a in batch))] == \
        [bits(left_lpsubdiff_definitional(inst, p, u)) for p, u in zip(pts, us)]


@pytest.mark.parametrize("route, name, point, u, at", [
    (left_lpsubdiff_definitional, "euclid_abs", 0.5, 1e12, 8.0),
    (right_lpsubdiff_definitional, "euclid_abs", 0.5, 1e12, 8.0),
    (left_lpsubdiff_definitional, "shannon_abs", 1.0, 1e11, 12.0),
])
def test_a_slack_past_the_unbounded_cap_is_a_non_member(route, name, point, u, at):
    """A u whose slack falls below -DEFAULT_UNBOUNDED_CAP is a non-member,
    not an exception: its worst slack is the finite least grid sample, at the
    grid's right end, and in a batch it leaves the other rows as alone."""
    inst = get_instance(name)
    member, worst, witness = route(inst, point, u)
    assert member is False and -math.inf < worst <= -DEFAULT_UNBOUNDED_CAP and witness == at
    batch = zip(*(a.tolist() for a in route(inst, [point, point], [0.3, u])))
    assert [bits(c) for c in batch] == [bits(route(inst, point, v)) for v in (0.3, u)]


def test_a_slack_with_no_finite_grid_sample_certifies_vacuously():
    """dom f lies between two grid points, so no slack sample is finite:
    the certificate holds vacuously, (True, inf, nan), alone and in a batch."""
    fn = ProperFn("sliver", Interval(0.3001, 0.3002), lambda x: np.where(
        (x >= 0.3001) & (x <= 0.3002), 0.0, np.inf), window=(-8.0, 8.0))
    inst = Instance("sliver", ENERGY, fn, 1.0)
    for route in (left_lpsubdiff_definitional, right_lpsubdiff_definitional):
        assert bits(route(inst, 0.30015, 0.5)) == bits((True, math.inf, math.nan))
        batch = zip(*(a.tolist() for a in route(inst, [0.30015, 0.30015], [0.5, -2.0])))
        assert [bits(c) for c in batch] == [bits((True, math.inf, math.nan))] * 2


# -- coincidence ------------------------------------------------------------------------

def coincidence(rep):
    """(env-const, hull-const, prox-equal, subdiff-equal) of a coincidence report."""
    return tuple(rep.condition(label).holds
                 for label in ("env-const", "hull-const", "prox-equal", "subdiff-equal"))


def test_coincidence_additive_constant():
    inst_a = get_instance("euclid_abs")
    inst_b = Instance("abs_plus3", ENERGY, shift_scale(F_ABS, 0.0, 1.0, 3.0), 1.0)
    rep = coincidence_check(inst_a, inst_b, seed=3)
    assert coincidence(rep) == (True, True, True, True)
    env_shift, = rep.condition("env-const").witness
    assert abs(abs(env_shift) - 3.0) <= 1e-6
    assert rep.violated == []


def test_coincidence_with_own_hull():
    # envelopes and hulls agree; the graphs differ exactly at the critical
    # slope where the hull instance's prox fills in the chord interval, and
    # the asserted implications stay consistent
    inst = get_instance("ex310")
    rep = coincidence_check(inst, hull_instance(inst), seed=3)
    assert coincidence(rep) == (True, True, False, False)
    env_shift, = rep.condition("env-const").witness
    assert abs(env_shift) <= 1e-6
    assert rep.violated == []


def test_coincidence_shifted_abs_differs():
    inst_a = get_instance("euclid_abs")
    inst_c = Instance("abs_shift", ENERGY, shift_scale(F_ABS, 0.5, 1.0, 0.0), 1.0)
    rep = coincidence_check(inst_a, inst_c, seed=3)
    env_const, _, prox_equal, _ = coincidence(rep)
    assert not env_const and not prox_equal
    assert rep.violated == []


def test_coincidence_requires_same_kernel_lambda():
    with pytest.raises(ValueError):
        coincidence_check(get_instance("euclid_abs"), get_instance("ex310"))


# -- cross-route invariants -----------------------------------------------------------

@pytest.mark.parametrize("name", ["ex310", "ex411", "euclid_abs", "ex419", "ex420"])
def test_hull_and_definitional_routes_agree(name):
    # endpoints (nudged inside), midpoint, and two exterior probes per point
    inst = get_instance(name)
    eng = engine(inst)
    rng = np.random.default_rng(5)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    for x in lo + (hi - lo) * (0.02 + 0.96 * rng.random(12)):
        x = float(x)
        s = left_lpsubdiff_hull(inst, x)
        if s.is_empty:
            for u in (-0.7, 0.4):
                member, _, _ = left_lpsubdiff_definitional(inst, x, u)
                assert not member
            continue
        eps = 1e-5
        probes_in = []
        if math.isfinite(s.lo) and math.isfinite(s.hi):
            probes_in.append(0.5 * (max(s.lo, -1e3) + min(s.hi, 1e3)))
        if math.isfinite(s.lo):
            probes_in.append(s.lo + eps)
        if math.isfinite(s.hi):
            probes_in.append(s.hi - eps)
        for u in probes_in:
            _, worst, _ = left_lpsubdiff_definitional(inst, x, u)
            assert worst >= -1e-4, f"{name} x={x} u={u} worst={worst}"
        # exterior probes must clear the certificate's u-resolution, which is
        # sqrt(2 tol curvature); 0.1 covers catalog curvatures comfortably
        probes_out = []
        if math.isfinite(s.lo):
            probes_out.append(s.lo - 0.1)
        if math.isfinite(s.hi):
            probes_out.append(s.hi + 0.1)
        for u in probes_out:
            _, worst, _ = left_lpsubdiff_definitional(inst, x, u)
            assert not worst >= -1e-6, f"{name} x={x} u={u}"


@pytest.mark.parametrize("name", ["ex310", "euclid_abs", "ex419"])
def test_accepted_subgradients_pass_frechet_probe(name):
    inst = get_instance(name)
    eng = engine(inst)
    rng = np.random.default_rng(6)
    lo, hi = eng.y_grid.lo, eng.y_grid.hi
    for x in lo + (hi - lo) * (0.05 + 0.9 * rng.random(8)):
        s = left_lpsubdiff_hull(inst, float(x))
        for u in subdiff_samples(s):
            assert frechet_lower_probe(inst, float(x), u)


@pytest.mark.parametrize("name", ["ex310", "ex411", "euclid_abs", "ex420"])
def test_prox_compose_grad_conj_monotone(name):
    inst = get_instance(name)
    eng = engine(inst)
    rng = np.random.default_rng(7)
    etas = np.sort(-3.0 + 6.0 * rng.random(40))
    sels = []
    for e in map(float, etas):
        if not eng.kernel.grad_range.contains(e):
            continue
        y = eng.kernel.grad_conj(e)
        if not eng.kernel.domain.interior_contains(y):
            continue
        for m in eng.prox(y).minimizers:
            sels.append((e, m))
    for i in range(len(sels)):
        for j in range(i + 1, len(sels)):
            assert (sels[i][0] - sels[j][0]) * (sels[i][1] - sels[j][1]) >= -1e-6


def test_convex_hull_of_prox_equals_hull_prox_at_critical_slope():
    # at the chord slope the original prox is the two endpoints while the
    # hull instance fills the whole interval
    inst = get_instance("ex411")
    hinst = hull_instance(inst)
    eta = 1.0  # chord slope of lam f + kappa
    y = inst.kernel.grad_conj(eta)
    res_f = engine(inst).prox(y)
    res_h = engine(hinst).prox(y)
    assert len(res_f.clusters) == 2
    assert len(res_h.clusters) == 1
    ext = res_h.clusters[0]
    assert ext.x_lo == pytest.approx(min(res_f.minimizers), abs=1e-2)
    assert ext.x_hi == pytest.approx(max(res_f.minimizers), abs=1e-2)


def test_monotone_related_helper():
    graph = [(0.0, u) for u in (-5.0, 0.0, 0.5)]
    assert monotone_related(graph, 0.5, 1.0)
    assert not monotone_related(graph, -0.5, 1.0)
    # the ends of a set unbounded below, at 0 and at the point itself
    graph = [(x, u) for x in (0.0, 0.5) for u in (-math.inf, 0.5)]
    assert monotone_related(graph, 0.5, 1.0)
    assert not monotone_related(graph, -0.5, 1.0)
