"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them)."""

import importlib.util
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from bregmanprox import cli, proxenv, verify
from bregmanprox.catalog import get_instance, instance_names
from bregmanprox.kernels import (ALL_KERNELS, BURG, LEGENDRE_KERNELS,
                                 bregman_distance, dual_distance,
                                 three_point_residual)
from bregmanprox.proxenv import (engine, env_conjugate_crosscheck,
                                 euclid_crosscheck, left_prox, range_probe,
                                 threshold_scan)
from bregmanprox.subdiff import (left_lpsubdiff_definitional,
                                 left_lpsubdiff_hull, monotone_related)
from bregmanprox.verify import reports_to_json, resolvent_check, run_suite


# Per report of the suite at a seed: status, each condition's verdict and
# each implication's asserted/holds; no floats.
VERDICTS = Path(__file__).parent / "data" / "verdicts_seed{}.json"


def verdicts(reports):
    out = []
    for rep in reports:
        r = rep.to_dict()
        out.append({
            "instance": r["instance"], "theorem": r["theorem"], "status": r["status"],
            "conditions": {c["label"]: c["holds"] for c in r["conditions"]},
            "implications": [{k: i[k] for k in ("premises", "conclusion", "asserted", "holds")}
                             for i in r["implications"]],
        })
    return out


@pytest.fixture(scope="module")
def suite42():
    """One seed-42 run of the whole suite, shared by the tests that read it."""
    return run_suite(instance_names(), seed=42)


def _interior_points(k, n, rng, inset=1e-3):
    lo, hi = k.sample_window
    span = hi - lo
    return lo + span * (inset + (1 - 2 * inset) * rng.random(n))


def test_criterion_1_example_310_classification():
    inst = get_instance("ex310")
    xs = np.linspace(-1.0, 1.0, 201)[1:-1]
    assert len(xs) == 199
    worst_u_err = 0.0
    for x in map(float, xs):
        s = left_lpsubdiff_hull(inst, x)
        if x < 0:
            assert not s.is_empty and s.is_singleton, f"x={x}"
            err = abs(0.5 * (s.lo + s.hi) - inst.fn.deriv(x))
            worst_u_err = max(worst_u_err, err)
            assert err <= 1e-4, f"x={x}: err={err}"
        elif x > 0:
            assert s.is_empty, f"x={x}"
        else:
            # paper-ambiguous point: both readings are acceptable; the hull
            # route resolves it to the closed branch {f'(0)} = {1}
            assert s.is_empty or abs(0.5 * (s.lo + s.hi) - 1.0) <= 1e-3
    print(f"\nPASS criterion 1: 99 singletons (max |u - f'| = {worst_u_err:.2e}), "
          f"99 empties, x=0 per ambiguity note")


def test_criterion_2_example_411_reproduction():
    inst = get_instance("ex411")
    s = left_lpsubdiff_hull(inst, 0.0)
    assert not s.is_empty
    assert abs(s.hi - 0.5) <= 1e-4
    assert s.lo == -math.inf

    rng = np.random.default_rng(42)
    outputs = []
    for y in -0.999 + 1.998 * rng.random(80):
        outputs += list(left_prox(inst, float(y)).minimizers)
    outputs = np.array(outputs)
    assert (np.minimum(np.abs(outputs), np.abs(outputs - 1.0)) <= 1e-4).all()
    assert (np.abs(outputs) <= 1e-4).any() and (np.abs(outputs - 1.0) <= 1e-4).any()

    ok, witnesses = range_probe(inst, n=500, seed=42)
    assert not ok and witnesses

    graph = [(0.0, u) for u in (-100.0, -1.0, 0.0, 0.5)]
    member, _, _ = left_lpsubdiff_definitional(inst, 0.5, 1.0)
    assert not member and monotone_related(graph, 0.5, 1.0)
    print(f"\nPASS criterion 2: subdiff(0) = (-inf, {s.hi:.6f}], prox range "
          f"~= {{0, 1}}, range probe fails, witness (0.5, 1.0) accepted")


def test_criterion_3_duality_gap_closed_forms():
    xis = np.linspace(-3.0, 3.0, 241)
    inst = get_instance("ex419")
    eng = engine(inst)
    worst419 = max(abs(eng.env(inst.kernel.grad_conj(float(x))) + float(x))
                   for x in xis)
    assert worst419 <= 1e-4

    inst = get_instance("ex420")
    eng = engine(inst)
    worst420 = max(abs(eng.env(inst.kernel.grad_conj(float(x)))
                       - ((2 / 3) * abs(x) ** 1.5 - (2 / 3) * abs(x - 1) ** 1.5))
                   for x in map(float, xis))
    assert worst420 <= 1e-4

    assert engine(get_instance("ex419")).h_convex.holds
    assert not engine(get_instance("ex420")).h_convex.holds
    print(f"\nPASS criterion 3: |h - closed form| = {worst419:.2e} (convex) and "
          f"{worst420:.2e} (nonconvex) at 241 points")


def test_criterion_4_prox_boundedness_threshold():
    lo, hi = threshold_scan(BURG, get_instance("ex_ln").fn,
                            np.geomspace(0.5, 2.0, 30))
    assert lo <= 1.0 <= hi
    assert hi - lo <= 0.1
    print(f"\nPASS criterion 4: threshold bracket [{lo:.4f}, {hi:.4f}], "
          f"width {hi - lo:.4f}")


def test_criterion_5_resolvent_representation():
    checked = []
    for name in instance_names():
        inst = get_instance(name)
        ok, _ = range_probe(inst, n=500, seed=42)
        if not ok:
            continue
        rep = resolvent_check(inst, seed=42, n=20)
        assert rep.status == "ok", f"{name}: {rep.notes}"
        residual = max(rep.condition("forward-certificate").worst,
                       rep.condition("converse-prox").worst)
        assert residual <= 1e-6, f"{name}: residual {residual}"
        checked.append((name, residual))
    assert checked
    worst = max(r for _, r in checked)
    print(f"\nPASS criterion 5: resolvent residual <= {worst:.2e} on "
          f"{len(checked)} instances passing the range probe")


def test_criterion_6_identity_suite():
    rng = np.random.default_rng(42)
    worst_3p = 0.0
    for k in ALL_KERNELS:
        xs = _interior_points(k, 1000, rng)
        ys = _interior_points(k, 1000, rng)
        zs = _interior_points(k, 1000, rng)
        for x, y, z in zip(xs, ys, zs):
            worst_3p = max(worst_3p,
                           three_point_residual(k, float(x), float(y), float(z)))
    assert worst_3p <= 1e-10

    worst_dual = 0.0
    for k in LEGENDRE_KERNELS:
        xs = _interior_points(k, 1000, rng)
        ys = _interior_points(k, 1000, rng)
        for x, y in zip(xs, ys):
            lhs = float(bregman_distance(k, float(x), float(y)))
            rhs = float(dual_distance(k, k.grad(float(y)), k.grad(float(x))))
            worst_dual = max(worst_dual, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst_dual <= 1e-8

    worst_euc, worst_conj = 0.0, 0.0
    for name in instance_names():
        inst = get_instance(name)
        eng = engine(inst)
        lo, hi = eng.y_grid.lo, eng.y_grid.hi
        ys = lo + (hi - lo) * (1e-3 + (1 - 2e-3) * rng.random(20))
        for y in map(float, ys):
            worst_euc = max(worst_euc, euclid_crosscheck(inst, y))
            worst_conj = max(worst_conj, env_conjugate_crosscheck(inst, y))
    assert worst_euc <= 1e-4
    assert worst_conj <= 1e-4
    print(f"\nPASS criterion 6: three-point {worst_3p:.2e}, dual {worst_dual:.2e}, "
          f"euclidean {worst_euc:.2e}, conjugate {worst_conj:.2e}")


def test_criterion_7_theorem_harness(suite42):
    reports = suite42
    violations = [i for r in reports for i in r.violated]
    assert violations == [], [f"{r.instance}/{r.theorem}" for r in reports
                              for _ in r.violated]

    # false conditions on nonconvex instances carry explicit witnesses
    by_key = {(r.instance, r.theorem): r for r in reports}
    wc310 = by_key[("ex310", "weak-convexity")].condition("a-weakly-convex")
    assert not wc310.holds and wc310.witness and wc310.worst < 0
    env420 = by_key[("ex420", "env-convexity")].condition("a-h-convex")
    assert not env420.holds and env420.witness
    dfne419 = by_key[("ex419", "dfne")].condition("e-dfne")
    assert not dfne419.holds and dfne419.witness
    hull411 = by_key[("ex411", "weak-convexity")].condition("b-hull-equals-f")
    assert not hull411.holds and hull411.worst > 1e-3

    checked = sum(1 for r in reports for i in r.implications if i.asserted)
    print(f"\nPASS criterion 7: 0 of {checked} asserted implications violated "
          f"across {len(reports)} reports")


def test_criterion_8_euclidean_degeneration():
    inst = get_instance("euclid_abs")
    eng = engine(inst)
    rng = np.random.default_rng(42)
    ys = -6.0 + 12.0 * rng.random(50)
    worst_prox, worst_env, worst_sub = 0.0, 0.0, 0.0
    for y in map(float, ys):
        soft = math.copysign(max(abs(y) - 1.0, 0.0), y)
        res = eng.prox(y)
        assert len(res.minimizers) == 1
        worst_prox = max(worst_prox, abs(res.minimizers[0] - soft))
        hub = y * y / 2 if abs(y) <= 1 else abs(y) - 0.5
        worst_env = max(worst_env, abs(eng.env(y) - hub))
        # classical resolvent (Id + subdiff)^{-1}: x + sign(x) = y
        x = res.minimizers[0]
        u = y - x
        sub_err = abs(u - math.copysign(1.0, x)) if abs(x) > 1e-9 else \
            max(0.0, abs(u) - 1.0)
        worst_sub = max(worst_sub, sub_err)
    assert worst_prox <= 1e-6
    assert worst_env <= 1e-6
    assert worst_sub <= 1e-6

    s = left_lpsubdiff_hull(inst, 0.0)
    assert abs(s.lo + 1.0) <= 1e-6 and abs(s.hi - 1.0) <= 1e-6
    print(f"\nPASS criterion 8: soft-threshold {worst_prox:.2e}, Huber "
          f"{worst_env:.2e}, resolvent {worst_sub:.2e} at 50 points")


def test_criterion_9_determinism(suite42):
    a = reports_to_json(suite42)
    b = reports_to_json(run_suite(instance_names(), seed=42))
    assert a == b
    assert a.encode() == b.encode()
    print(f"\nPASS criterion 9: two seeded runs byte-identical "
          f"({len(a.encode())} bytes)")


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_verdicts_match_golden(suite42, seed):
    path = Path(str(VERDICTS).format(seed))
    want = json.loads(path.read_text())
    got = verdicts(suite42 if seed == 42 else run_suite(instance_names(), seed=seed))
    assert [(v["instance"], v["theorem"]) for v in got] == \
        [(v["instance"], v["theorem"]) for v in want]
    moved = [f"{g['instance']}/{g['theorem']}" for g, w in zip(got, want) if g != w]
    assert moved == [], f"verdicts moved: {moved}"
    print(f"\nPASS verdict golden: {len(got)} reports match {path.name}")


def test_suite42_passes_the_benchmark_report_checks(suite42):
    """The benchmark's own report checker, loaded by path. It never imports
    bregmanprox: the expected verdicts are written out from the paper."""
    path = Path(__file__).parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert len(suite42) == 91
    failed = [(r.instance, r.theorem, checks.check_report(r.instance, r.theorem, r.to_dict()))
              for r in suite42]
    assert [f for f in failed if f[2] is not None] == []
    print(f"\nPASS benchmark report checks: {len(failed)} reports")


def test_verdict_text_does_not_depend_on_the_grid(suite42, monkeypatch, capsys):
    """`verify --all --seed 42` prints the same verdict text, and exits with
    the same code, at N = 1001 as at the default N (read from ``suite42``)."""
    def seeded_suite(names, seed):
        assert (list(names), seed) == (instance_names(), 42)
        return suite42

    argv = ["verify", "--all", "--seed", "42"]
    monkeypatch.setattr(verify, "run_suite", seeded_suite)
    code = cli.main(argv)
    default_text = capsys.readouterr().out
    monkeypatch.undo()
    # fresh engines, so the cached default-N engines outlive the test
    monkeypatch.setattr(proxenv, "_ENGINES", weakref.WeakKeyDictionary())
    monkeypatch.setenv("BREGMAN_GRID_N", "1001")
    assert cli.main(argv) == code
    assert capsys.readouterr().out == default_text
    print(f"\nPASS verdict text at N = 1001 matches the default N "
          f"({default_text.count(chr(10))} lines)")
