import collections
import dataclasses
import json
import math
import weakref
import zlib

import numpy as np
import pytest

from bregmanprox import proxenv, subdiff, verify
from bregmanprox.catalog import Instance, get_instance, instance_names, shift_scale
from bregmanprox.errors import HypothesesUnmetError
from bregmanprox.extreal import Interval
from bregmanprox.kernels import ENERGY, HELLINGER, scale_kernel
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
             window=(-8.0, 8.0), deriv=lambda x: 0.5 * x, threshold=math.inf)
    rep = check_bsmooth(Instance("quarter_sq_e", ENERGY, fn, 1.0), seed=5)
    assert all(c.holds for c in rep.conditions)
    assert rep.violated == []


def test_bsmooth_rejects_extended_valued_f():
    with pytest.raises(HypothesesUnmetError):
        check_bsmooth(get_instance("ex411"), seed=5)


def test_bsmooth_certifies_plus_f_on_the_instance_itself(monkeypatch):
    """f + D_{L kappa}(., xbar) at lambda 1 is f + D(., xbar) / lambda for
    L = 1 / lambda, so +f is certified through the instance's own warm
    engine: a check builds one engine, for -f, and not two."""
    inst = get_instance("ex419")
    check_bsmooth(inst, seed=5)
    built = []
    real = proxenv.InstanceEngine.__init__

    def counted(self, inst, *args, **kwargs):
        built.append(inst.name)
        real(self, inst, *args, **kwargs)

    monkeypatch.setattr(proxenv.InstanceEngine, "__init__", counted)
    check_bsmooth(inst, seed=5)
    assert built == ["ex419-f"]


def _bsmooth_verdict(inst, seed):
    rep = check_bsmooth(inst, seed=seed)
    return (rep.status, {c.label: c.holds for c in rep.conditions},
            [(i.premises, i.conclusion) for i in rep.violated])


@pytest.mark.parametrize("name", ["euclid_abs", "shannon_abs", "ex419"])
def test_bsmooth_verdict_does_not_depend_on_units(name):
    """(f, lam) -> (b f, lam / b) and (kappa, lam) -> (L kappa, L lam) leave
    the prox unchanged, and with the modulus 1 / lam (units f / kappa) they
    leave the bsmooth report's verdicts unchanged too, at the suite's
    seed-42 child seed and scales 10^-2, 10^-1.5, ..., 10^2."""
    inst = get_instance(name)
    seed = (42 * 1000003 + zlib.crc32(f"{name}:bsmooth".encode())) & 0x7FFFFFFF
    want = _bsmooth_verdict(inst, seed)
    moved = []
    for b in 10.0 ** np.arange(-2.0, 2.25, 0.5):
        for kind, scaled in (
                ("f", Instance(name, inst.kernel, shift_scale(inst.fn, 0.0, b, 0.0), inst.lam / b)),
                ("kappa", Instance(name, scale_kernel(inst.kernel, b), inst.fn, inst.lam * b))):
            if _bsmooth_verdict(scaled, seed) != want:
                moved.append((kind, float(b)))
    assert moved == []


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


@pytest.mark.parametrize("keep", [0, 1])
def test_two_sided_below_two_selections_keeps_the_bound_labels(monkeypatch, keep):
    real = verify._selections

    def first(eng, etas, interior_only):
        ee, xx = real(eng, etas, interior_only)
        return ee[:keep], xx[:keep]

    monkeypatch.setattr(verify, "_selections", first)
    rep = check_two_sided(get_instance("euclid_abs"), seed=6)
    labels = [c.label for c in rep.conditions]
    assert "placeholder" not in labels
    assert holds(rep, "lower-bound") and holds(rep, "upper-bound")
    assert holds(rep, "two-sided-bounds")


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


@pytest.mark.parametrize("seed", [0, 7])
def test_catalog_suite_violates_no_implication(seed):
    reports = run_suite(instance_names(), seed=seed)
    assert [f"{r.instance}/{r.theorem}" for r in reports if r.violated] == []


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


def test_suite_decides_each_instance_fact_once(monkeypatch):
    """On fresh engines a seed-42 suite decides h convexity on the 8
    instances whose checks read it, f convexity on the 11 that meet the
    standing hypotheses, and probes the range assumption on those 11."""
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    decided = collections.Counter()
    real_condition, real_probe = proxenv.convexity_condition, proxenv.range_probe

    def counted_condition(label, *args):
        decided[label] += 1
        return real_condition(label, *args)

    def counted_probe(*args, **kwargs):
        decided["range-probe"] += 1
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(proxenv, "convexity_condition", counted_condition)
    monkeypatch.setattr(proxenv, "range_probe", counted_probe)
    run_suite(instance_names(), seed=42)
    assert (decided["h-convex"], decided["f-convex"], decided["range-probe"]) == (8, 11, 11)


def test_suite_refinement_calls_are_pinned(monkeypatch, zoom_brackets):
    """A prox, envelope or certificate batch searches every row's brackets
    in one zoom call: a seed-42 suite on two instances makes 11 zoom calls
    (111 with one call per 17-row block) for 1815 prox and envelope
    brackets, plus the 54 rows of shannon_abs's two bsmooth certificate
    batches (27 points, each sign)."""
    monkeypatch.setenv("BREGMAN_GRID_N", "2001")
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    run_suite(["ex411", "shannon_abs"], seed=42)
    assert len(zoom_brackets) <= 11
    assert sum(zoom_brackets) == 1815 + 54


def test_subdifferential_routes_take_one_call_per_batch(monkeypatch, zoom_brackets):
    """check_weak_convexity(ex310) reads f-subdiff-nonempty from one
    hull_slopes call for all its sampled points, and check_bsmooth(euclid_abs)
    certifies its 27 points in at most two zoom calls (a loop over the
    points would make one per point and sign). Every tie run of a slack row
    is searched: one row has two, so the two calls take 55 brackets."""
    calls = []
    real = subdiff.hull_slopes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subdiff, "hull_slopes", counted)
    rep = check_weak_convexity(get_instance("ex310"), seed=0)
    assert len(calls) == 1 and not holds(rep, "f-subdiff-nonempty")
    zoom_brackets.clear()
    check_bsmooth(get_instance("euclid_abs"), seed=0)
    assert len(zoom_brackets) <= 2 and sum(zoom_brackets) == 2 * 27 + 1


def test_scalar_paths_build_no_0d_membership_arrays(monkeypatch):
    """The harness evaluates f, -f and the kernel at its sampled points in
    batches, so no Interval membership test receives a 0-d array. hell_halfk
    has closed kernel-domain ends, where check_bsmooth compares f with a
    nearby interior value."""
    zero_d = []
    for method in ("contains", "interior_contains"):
        real = getattr(Interval, method)

        def counted(self, x, *args, _real=real, **kwargs):
            if isinstance(x, np.ndarray) and x.ndim == 0:
                zero_d.append(x)
            return _real(self, x, *args, **kwargs)

        monkeypatch.setattr(Interval, method, counted)
    check_bsmooth(get_instance("ex419"), seed=42)
    check_bsmooth(get_instance("hell_halfk"), seed=42)
    check_two_sided(get_instance("ex420"), seed=42)
    assert not zero_d


# -- worked examples ----------------------------------------------------------

def test_example_claims_stated_false_read_the_engine_facts_as_they_are():
    """The claims the paper states false (4.11's range assumption, 4.19's f
    convex, 4.20's h convex) are the engine's facts, unchanged: the JSON
    report carries their worst values and witnesses, and each passes because
    the fact is false. Every example report names one tolerance."""
    for example, fact in (("4.19", "f_convex"), ("4.20", "h_convex")):
        rep = verify.check_example(example)
        eng = proxenv.engine(get_instance(rep.instance))
        cond = getattr(eng, fact)
        assert cond in rep.conditions and not cond.holds
        assert cond.to_dict() in json.loads(reports_to_json([rep]))[0]["conditions"]
    rep = verify.check_example("4.11")
    ok, escapes = proxenv.engine(get_instance("ex411")).range_assumption
    cond = rep.condition("range-assumption")
    assert not ok and cond.worst == len(escapes) > 0
    assert cond.witness == tuple(v for pair in escapes for v in pair)
    stated_false = [i for r in map(verify.check_example, verify.EXAMPLES)
                    for c, i in zip(r.conditions, r.implications) if not c.holds]
    assert [i.conclusion for i in stated_false] == [
        "range-assumption probe fails", "f nonconvex", "dual envelope nonconvex"]
    assert all(i.holds for i in stated_false)
    assert {tuple(verify.check_example(e).tolerances.items()) for e in verify.EXAMPLES} \
        == {(("tol_example", 1e-4),)}
