import math

import numpy as np
import pytest

from bregmanprox.catalog import F_ABS, Instance, ProperFn, get_instance, shift_scale
from bregmanprox.errors import HypothesesUnmetError, RangeAssumptionFailedError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import ENERGY, QUARTIC
from bregmanprox.proxenv import engine, hull_instance
from bregmanprox.subdiff import (SubdiffSet, coincidence_check,
                                 frechet_lower_probe,
                                 left_lpsubdiff_definitional,
                                 left_lpsubdiff_hull, monotone_related,
                                 resolvent_check,
                                 right_lpsubdiff_definitional,
                                 single_valuedness_at, subdiff_samples)


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
    assert not s.is_empty and s.is_singleton
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


def test_hull_requires_one_coercive():
    with pytest.raises(HypothesesUnmetError):
        left_lpsubdiff_hull(get_instance("ex_ln"), 1.0)


def test_hull_noninterior_empty():
    assert left_lpsubdiff_hull(get_instance("ex310"), 1.0).is_empty


def test_subdiff_set_invariants():
    s = SubdiffSet.interval(-math.inf, 2.0, True, True)
    assert not s.lo_closed  # infinite endpoints forced open
    with pytest.raises(ValueError):
        SubdiffSet.interval(1.0, 0.0)
    assert SubdiffSet.singleton(3.0).contains(3.0)
    assert not SubdiffSet.empty().contains(0.0)


# -- right subdifferential ---------------------------------------------------------

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
        out[inside] = -eng.env_many(ys1[inside])
        return out.reshape(shape) if shape else float(out[0])

    g = ProperFn("neg_env_419", Interval.reals(), lambda x: neg_env(x),
                 inst.fn.window)
    ginst = Instance("ex419_negenv", QUARTIC, g, 1.0)
    for ybar in (-1.2, 0.4, 1.9):
        xbar = eng.prox(ybar).minimizers[0]
        v = (xbar - ybar) / inst.lam
        member, worst, _ = right_lpsubdiff_definitional(ginst, ybar, v, tol=1e-4)
        assert member, f"ybar={ybar}: worst={worst}"
        off, _, _ = right_lpsubdiff_definitional(ginst, ybar, v + 0.5, tol=1e-4)
        assert not off


# -- resolvent representation -------------------------------------------------------

def test_resolvent_euclid_abs_classical():
    assert resolvent_check(get_instance("euclid_abs"), seed=1) <= 1e-6


def test_resolvent_ex411_range_failure():
    with pytest.raises(RangeAssumptionFailedError) as exc:
        resolvent_check(get_instance("ex411"), seed=1)
    assert any(abs(m - 1.0) < 1e-6 for _, m in exc.value.witnesses)


def test_resolvent_ex310_range_failure_and_restricted_validity():
    # prox sends points with grad kappa(y) > 1 to the boundary, so the range
    # assumption fails on the full interior; on the subdomain where outputs
    # stay interior the representation holds
    with pytest.raises(RangeAssumptionFailedError):
        resolvent_check(get_instance("ex310"), seed=1)
    ys = np.linspace(-0.65, 0.65, 20)
    assert resolvent_check(get_instance("ex310"), ybar_values=ys) <= 1e-6


def test_resolvent_ex_ln():
    assert resolvent_check(get_instance("ex_ln"), seed=1) <= 1e-6


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


# -- coincidence ------------------------------------------------------------------------

def test_coincidence_additive_constant():
    inst_a = get_instance("euclid_abs")
    inst_b = Instance("abs_plus3", ENERGY, shift_scale(F_ABS, 0.0, 1.0, 3.0), 1.0)
    rep = coincidence_check(inst_a, inst_b, seed=3)
    assert rep.env_shift_constant and rep.hull_shift_constant
    assert rep.prox_graphs_equal and rep.subdiff_graphs_equal
    assert abs(abs(rep.env_shift) - 3.0) <= 1e-6
    assert rep.violated == []


def test_coincidence_with_own_hull():
    # envelopes and hulls agree; the graphs differ exactly at the critical
    # slope where the hull instance's prox fills in the chord interval, and
    # the asserted implications stay consistent
    inst = get_instance("ex310")
    rep = coincidence_check(inst, hull_instance(inst), seed=3)
    assert rep.env_shift_constant and rep.hull_shift_constant
    assert abs(rep.env_shift) <= 1e-6
    assert not rep.prox_graphs_equal
    assert not rep.subdiff_graphs_equal
    assert rep.violated == []


def test_coincidence_shifted_abs_differs():
    inst_a = get_instance("euclid_abs")
    inst_c = Instance("abs_shift", ENERGY, shift_scale(F_ABS, 0.5, 1.0, 0.0), 1.0)
    rep = coincidence_check(inst_a, inst_c, seed=3)
    assert not rep.env_shift_constant
    assert not rep.prox_graphs_equal
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
            member, worst, _ = left_lpsubdiff_definitional(inst, x, u, tol=1e-4)
            assert member, f"{name} x={x} u={u} worst={worst}"
        # exterior probes must clear the certificate's u-resolution, which is
        # sqrt(2 tol curvature); 0.1 covers catalog curvatures comfortably
        probes_out = []
        if math.isfinite(s.lo):
            probes_out.append(s.lo - 0.1)
        if math.isfinite(s.hi):
            probes_out.append(s.hi + 0.1)
        for u in probes_out:
            member, _, _ = left_lpsubdiff_definitional(inst, x, u, tol=1e-6)
            assert not member, f"{name} x={x} u={u}"


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
