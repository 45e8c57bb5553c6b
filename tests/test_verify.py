import dataclasses
import math

import numpy as np
import pytest

from bregmanprox import proxenv
from bregmanprox.catalog import Instance, get_instance
from bregmanprox.errors import HypothesesUnmetError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import ENERGY, HELLINGER
from bregmanprox.verify import (ALL_CHECKS, check_bcoco, check_bsmooth,
                                check_dfne, check_env_convexity,
                                check_strong_convexity_sufficient,
                                check_two_sided, check_weak_convexity,
                                reports_to_json, run_suite)


def holds(report, label):
    return report.condition(label).holds


# -- weak convexity -----------------------------------------------------------

def test_weak_convexity_euclid_abs_all_true():
    rep = check_weak_convexity(get_instance("euclid_abs"), seed=1)
    assert all(c.holds for c in rep.conditions)
    assert rep.violated == []


def test_weak_convexity_ex310_false_with_witnesses():
    rep = check_weak_convexity(get_instance("ex310"), seed=1)
    assert not holds(rep, "a-weakly-convex")
    assert not holds(rep, "b-hull-equals-f")
    assert not holds(rep, "f-subdiff-nonempty")
    # false conditions carry explicit witnesses, not vacuous passes
    assert rep.condition("a-weakly-convex").witness
    assert rep.condition("b-hull-equals-f").worst > 1e-2
    wit_f = rep.condition("f-subdiff-nonempty").witness
    assert wit_f and 0.0 < wit_f[0] < 1.0
    assert rep.violated == []


def test_weak_convexity_hell_halfk():
    rep = check_weak_convexity(get_instance("hell_halfk"), seed=1)
    assert holds(rep, "a-weakly-convex")
    assert rep.violated == []


def test_weak_convexity_rejects_burg():
    with pytest.raises(HypothesesUnmetError):
        check_weak_convexity(get_instance("ex_ln"), seed=1)


# -- dfne -----------------------------------------------------------------------

def test_dfne_shannon_abs_all_true():
    rep = check_dfne(get_instance("shannon_abs"), seed=2)
    assert holds(rep, "a-f-convex")
    assert holds(rep, "c-subdiff-monotone")
    assert holds(rep, "e-dfne")
    assert rep.violated == []


def test_dfne_ex411_degraded_with_witness():
    rep = check_dfne(get_instance("ex411"), seed=2)
    assert rep.status == "range-assumption-failed"
    assert holds(rep, "c-subdiff-monotone")
    wit = rep.condition("nonmax-witness-found").witness
    assert wit  # a monotonically related point outside the graph exists
    assert all(i.holds is None for i in rep.implications)


def test_dfne_ex310_degraded():
    rep = check_dfne(get_instance("ex310"), seed=2)
    assert rep.status == "range-assumption-failed"
    assert not holds(rep, "a-f-convex")
    assert holds(rep, "c-subdiff-monotone")
    assert rep.violated == []


def test_dfne_nonconvex_with_range_fails_all_three():
    rep = check_dfne(get_instance("ex419"), seed=2)
    assert rep.status == "ok"
    assert not holds(rep, "a-f-convex")
    assert not holds(rep, "c-subdiff-monotone")
    assert not holds(rep, "e-dfne")
    assert rep.condition("e-dfne").witness
    assert rep.violated == []


# -- envelope convexity -----------------------------------------------------------

def test_env_convexity_ex419():
    rep = check_env_convexity(get_instance("ex419"), seed=3)
    assert holds(rep, "a-h-convex")
    assert holds(rep, "d-dual-upper-bound")
    assert holds(rep, "grad-identity")
    assert rep.violated == []


def test_env_convexity_ex420_nonconvex_witness():
    rep = check_env_convexity(get_instance("ex420"), seed=3)
    a = rep.condition("a-h-convex")
    assert not a.holds
    # curvature deficit sits between the two kink abscissae
    assert -0.5 < a.witness[1] < 1.5
    assert rep.violated == []


def test_env_convexity_euclid_abs_huber():
    rep = check_env_convexity(get_instance("euclid_abs"), seed=3)
    assert holds(rep, "a-h-convex")
    assert rep.violated == []


# -- cocoercivity ------------------------------------------------------------------

def test_bcoco_ex419_holds():
    rep = check_bcoco(get_instance("ex419"), seed=4)
    assert holds(rep, "bcoco-inequality")
    assert rep.violated == []


def test_bcoco_euclid_abs_holds():
    rep = check_bcoco(get_instance("euclid_abs"), seed=4)
    assert holds(rep, "bcoco-inequality")
    assert rep.violated == []


def test_bcoco_ex420_vacuous_skip():
    rep = check_bcoco(get_instance("ex420"), seed=4)
    assert not holds(rep, "a-h-convex")
    imp = rep.implications[0]
    assert not imp.asserted and imp.holds is None
    assert rep.violated == []


def test_bcoco_requires_full_domain():
    with pytest.raises(HypothesesUnmetError):
        check_bcoco(get_instance("hell_halfk"), seed=4)


# -- bsmooth --------------------------------------------------------------------------

def test_bsmooth_half_kernel_all_true():
    rep = check_bsmooth(get_instance("hell_halfk"), seed=5)
    assert holds(rep, "i-two-sided-subdiff-nonempty")
    assert holds(rep, "ii-relative-smooth")
    assert holds(rep, "iii-boundary-limits")
    assert rep.violated == []


def test_bsmooth_counterexample_boundary_mismatch():
    rep = check_bsmooth(get_instance("bsmooth_counter"), seed=5)
    assert not holds(rep, "i-two-sided-subdiff-nonempty")
    assert holds(rep, "ii-relative-smooth")
    assert not holds(rep, "iii-boundary-limits")
    assert rep.condition("iii-boundary-limits").worst == pytest.approx(1.0, abs=1e-3)
    assert rep.violated == []


def test_bsmooth_quadratic_all_true():
    from bregmanprox.catalog import _fn
    fn = _fn("quarter_sq", Interval.reals(), lambda x: 0.25 * np.square(x),
             window=(-8.0, 8.0), deriv=lambda x: 0.5 * x, convex=True,
             threshold=math.inf)
    rep = check_bsmooth(Instance("quarter_sq_e", ENERGY, fn, 1.0), seed=5)
    assert all(c.holds for c in rep.conditions)
    assert rep.violated == []


def test_bsmooth_rejects_extended_valued_f():
    with pytest.raises(HypothesesUnmetError):
        check_bsmooth(get_instance("ex411"), seed=5)


# -- two-sided --------------------------------------------------------------------------

def test_two_sided_euclid_abs():
    rep = check_two_sided(get_instance("euclid_abs"), seed=6)
    assert holds(rep, "lower-bound") and holds(rep, "upper-bound")
    assert holds(rep, "aniso-strong-convexity")
    assert rep.violated == []


def test_two_sided_ex419_lower_fails():
    rep = check_two_sided(get_instance("ex419"), seed=6)
    assert not holds(rep, "lower-bound")
    assert holds(rep, "upper-bound")
    assert rep.violated == []


def test_two_sided_ex420_upper_fails():
    rep = check_two_sided(get_instance("ex420"), seed=6)
    assert holds(rep, "lower-bound")
    assert not holds(rep, "upper-bound")
    assert not holds(rep, "aniso-strong-convexity")
    assert rep.violated == []


# -- strong convexity sufficiency ----------------------------------------------------------

def test_strong_convexity_euclid_sq():
    rep = check_strong_convexity_sufficient(get_instance("euclid_sq"), seed=7)
    assert holds(rep, "env-dual-convex")
    lip = rep.condition("prox-single-and-lipschitz")
    assert lip.holds and lip.worst <= 1.0 + 1e-4
    assert rep.violated == []


def test_strong_convexity_abs_strong():
    rep = check_strong_convexity_sufficient(get_instance("euclid_abs_strong"), seed=7)
    assert rep.violated == []


def test_strong_convexity_rejects_quartic():
    with pytest.raises(HypothesesUnmetError):
        check_strong_convexity_sufficient(get_instance("ex419"), seed=7)


# -- suite ------------------------------------------------------------------------------------

def test_run_suite_empty():
    assert run_suite([], seed=1) == []


def test_run_suite_deterministic():
    a = reports_to_json(run_suite(["ex420", "euclid_abs"], seed=42))
    b = reports_to_json(run_suite(["ex420", "euclid_abs"], seed=42))
    assert a == b


def test_run_suite_covers_grid():
    reports = run_suite(["ex_ln"], seed=42)
    assert len(reports) == len(ALL_CHECKS)
    assert all(r.status == "hypotheses-unmet" for r in reports)


def test_run_suite_euclid_classical_equivalences():
    reports = run_suite(["euclid_abs"], seed=7)
    assert sum(len(r.violated) for r in reports) == 0
    by_theorem = {r.theorem: r for r in reports}
    assert by_theorem["weak-convexity"].condition("a-weakly-convex").holds
    assert by_theorem["dfne"].condition("e-dfne").holds
    assert by_theorem["env-convexity"].condition("a-h-convex").holds


def test_range_assumption_probed_once_per_instance(monkeypatch):
    inst = dataclasses.replace(get_instance("euclid_abs"))  # no engine cached yet
    probes = []
    real_probe = proxenv.range_probe

    def counted(*args, **kwargs):
        probes.append(args)
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(proxenv, "range_probe", counted)
    for _, check in ALL_CHECKS:
        try:
            check(inst, seed=11)
        except HypothesesUnmetError:
            pass
    assert len(probes) == 1
    facts = [check_dfne(inst, seed=s).hypotheses["range-assumption"] for s in (1, 2)]
    assert facts[0] == facts[1]
    assert len(probes) == 1
