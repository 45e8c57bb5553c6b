"""Tests of the benchmark's output checks: right answers pass, and perturbed
ones (a shifted minimizer, a dropped basin, a flipped verdict, a wrong value)
are rejected.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Needs only numpy; the program itself is not imported.
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

I = checks.INSTANCES


def ok(result):
    assert result is None, result


def bad(result):
    assert result is not None, "perturbed answer was accepted"


# -- prox sets ---------------------------------------------------------------

def test_prox_shifted_minimizer_rejected():
    y = 2.0
    ok(checks.check_prox_set(I["euclid_abs"], y, [1.0], 1.5, expected=[checks.soft(y)]))
    bad(checks.check_prox_set(I["euclid_abs"], y, [1.001], 1.5, expected=[checks.soft(y)]))
    # without a closed form the minimizer must still attain the value
    v = float(I["euclid_abs"].objective(1.0, y))
    bad(checks.check_prox_set(I["euclid_abs"], y, [1.001], v))


def test_prox_dropped_basin_rejected():
    inst = checks.scaled(I["ex411"], 1e3)
    y = 1.0 / math.sqrt(2.0)
    v = float(inst.objective(0.0, y))
    ok(checks.check_prox_set(inst, y, [0.0, 1.0], v, expected=[0.0, 1.0]))
    bad(checks.check_prox_set(inst, y, [1.0], v, expected=[0.0, 1.0]))


def test_prox_hell_halfk_attains_envelope():
    inst, y = I["hell_halfk"], 0.3
    # the dense grid minimizer stands in for a correct answer
    xs = checks._grid(inst)
    vals = inst.objective(xs, y)
    m = float(xs[int(vals.argmin())])
    ok(checks.check_prox_set(inst, y, [m], float(vals.min())))
    bad(checks.check_prox_set(inst, y, [m + 0.05], float(vals.min())))
    bad(checks.check_prox_set(inst, y, [m], float(vals.min()) + 1e-3))


# -- envelopes, hulls, subdifferentials --------------------------------------

def test_env_closed_forms():
    ok(checks.check_env_value(I["euclid_sq"], 1.5, 0.75, closed=0.75))
    bad(checks.check_env_value(I["euclid_sq"], 1.5, 0.76, closed=0.75))
    ok(checks.check_env_value(I["ex419"], 1.2, -1.2 ** 3, closed=-1.2 ** 3))
    bad(checks.check_env_value(I["euclid_abs"], 0.5, 0.6))  # above f(y) = 0.5


def test_hull_value():
    h = checks.hull_of(I["ex310"])
    ok(checks.check_hull_value(I["ex310"], 0.5, h(0.5)))
    bad(checks.check_hull_value(I["ex310"], 0.5, h(0.5) + 0.01))
    f = float(I["ex310"].f(-0.5))
    ok(checks.check_hull_value(I["ex310"], -0.5, f))
    bad(checks.check_hull_value(I["ex310"], -0.5, f + 1e-3))  # above f
    ok(checks.check_hull_value(I["euclid_abs"], -2.0, 2.0))
    bad(checks.check_hull_value(I["euclid_abs"], -2.0, 1.9))


def test_subdiff_classification():
    x = -0.5
    u = checks.ex310_deriv(x)
    ok(checks.check_subdiff(I["ex310"], x, u, u, False))
    bad(checks.check_subdiff(I["ex310"], x, math.nan, math.nan, True))
    ok(checks.check_subdiff(I["ex310"], 0.5, math.nan, math.nan, True))
    bad(checks.check_subdiff(I["ex310"], 0.5, 1.0, 1.0, False))
    ok(checks.check_membership(I["ex310"], x, u, True))
    bad(checks.check_membership(I["ex310"], x, u, False))
    bad(checks.check_membership(I["ex310"], 0.5, checks.ex310_deriv(0.5), True))
    ok(checks.check_single_valued(I["euclid_abs"], 0.0, False, False))
    bad(checks.check_single_valued(I["euclid_abs"], 0.0, False, True))
    bad(checks.check_single_valued(I["ex310"], 0.5, False, True))


def test_gap():
    ok(checks.check_gap("g", 3e-9, 1e-7))
    bad(checks.check_gap("g", 1e-3, 1e-7))
    bad(checks.check_gap("g", math.nan, 1e-7))
    ok(checks.check_gap("g", 1.7e-6, checks.EUCLID_GAP_TOL))
    bad(checks.check_gap("g", 3e-5, checks.EUCLID_GAP_TOL))
    bad(checks.check_gap("g", 1e-7, checks.CONJUGATE_GAP_TOL))


# -- theorem harness reports -------------------------------------------------

def _cond(label, holds):
    return {"label": label, "holds": holds, "worst": 0.0, "witness": []}


def _imp(p, c, holds=True, asserted=True):
    return {"premises": [p], "conclusion": c, "asserted": asserted, "holds": holds,
            "reason": ""}


def _weak_report():
    labels = ("a-weakly-convex", "b-hull-equals-f", "d-prox-convex-valued",
              "f-subdiff-nonempty")
    return {"status": "ok", "conditions": [_cond(lab, True) for lab in labels],
            "implications": [_imp(a, b) for a, b in zip(labels, labels[1:])]
            + [_imp(b, a) for a, b in zip(labels, labels[1:])]}


def test_report_flipped_verdict_rejected():
    rep = _weak_report()
    ok(checks.check_report("euclid_abs", "weak-convexity", rep))
    rep["conditions"][0]["holds"] = False      # flipped condition, stale verdict
    bad(checks.check_report("euclid_abs", "weak-convexity", rep))
    rep = _weak_report()
    rep["implications"][0]["holds"] = False    # a violated implication
    bad(checks.check_report("euclid_abs", "weak-convexity", rep))


def test_report_skips_follow_kernel_facts():
    unmet = {"status": "hypotheses-unmet", "conditions": [], "implications": []}
    ok(checks.check_report("ex_ln", "dfne", unmet))
    bad(checks.check_report("burg_linear", "bsmooth", _weak_report()))
    ok(checks.check_report("hell_halfk", "bcoco", unmet))
    bad(checks.check_report("hell_halfk", "bcoco", _weak_report()))
    bad(checks.check_report("euclid_sq", "bcoco", unmet))


def test_report_paper_examples():
    failed = {"status": "range-assumption-failed", "conditions": [], "implications": []}
    ok(checks.check_report("ex310", "dfne", failed))
    bad(checks.check_report("ex411", "dfne", _weak_report()))

    def two_sided(f, h):
        return {"status": "ok", "conditions": [_cond("f-convex", f), _cond("h-convex", h)],
                "implications": []}

    ok(checks.check_report("ex419", "two-sided", two_sided(False, True)))
    bad(checks.check_report("ex419", "two-sided", two_sided(True, True)))
    ok(checks.check_report("ex420", "two-sided", two_sided(True, False)))
    bad(checks.check_report("ex420", "two-sided", two_sided(True, True)))


# -- command-line output -----------------------------------------------------

def _euclid_abs_csv(prox_shift=0.0):
    lines = ["x,f,env,hull,prox,subdiff-lo,subdiff-hi,h_lambda"]
    for x in (-2.5, -0.7, 0.4, 1.9):
        s = math.copysign(1.0, x)
        row = (x, abs(x), checks.huber(x), abs(x), checks.soft(x) + prox_shift, s, s,
               checks.huber(x))
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_curve_columns():
    ok(checks.check_curve("euclid_abs", _euclid_abs_csv(), 4))
    bad(checks.check_curve("euclid_abs", _euclid_abs_csv(prox_shift=1e-3), 4))
    bad(checks.check_curve("euclid_abs", _euclid_abs_csv(), 5))


def test_curve_ex411_prox_must_be_zero_or_one():
    def csv(p):
        y = 0.3
        return f"x,prox\n{y!r},{p!r}\n"

    ok(checks.check_curve("ex411", csv(1.0), 1))
    bad(checks.check_curve("ex411", csv(0.5), 1))


def test_reproduce_output():
    good_ln = "[PASS] threshold bracket contains 1.0 with width <= 0.1: bracket [0.9653, 1.0000]\n"
    ok(checks.check_reproduce("ln", 0, good_ln))
    bad(checks.check_reproduce("ln", 0, good_ln.replace("1.0000]", "0.9900]")))
    bad(checks.check_reproduce("ln", 1, good_ln.replace("[PASS]", "[FAIL]")))
    good_411 = "[PASS] prox range is {0, 1}: outputs [0.0, 1.0]\n"
    ok(checks.check_reproduce("4.11", 0, good_411))
    bad(checks.check_reproduce("4.11", 0, good_411.replace("[0.0, 1.0]", "[1.0]")))


# -- the reference-speed scaling of speed.py ----------------------------------

def test_scale_follows_the_probes_around_each_operation():
    import speed
    ref, w = speed.REF_S, speed.WINDOW_S
    # probes every 0.5 s: the machine runs at reference speed, then half as
    # fast from t = 10 s on
    at = [0.5 * k for k in range(41)]
    probes = [ref if t < 10.0 else 2 * ref for t in at]
    ops = [(2.0, 0.1, 0.1), (15.0, 0.1, 0.1), (7.0, 0.05, 0.05)]
    fast, slow, edge = speed.scale(ops, at, probes)
    assert math.isclose(fast, 0.1) and math.isclose(slow, 0.05), (fast, slow)
    # an operation near the change takes the mean of the probes within
    # WINDOW_S of it: probes at 4.0 ... 10.0 s, the last slow
    assert w == 3.0 and math.isclose(edge, 0.05 * 13 / 14), edge
    # a long operation straddling the change sees the probes on both sides;
    # the probes made inside it are already out of its seconds
    (long_op,) = speed.scale([(8.0, 4.0, 3.9)], at, probes)
    assert math.isclose(long_op, 3.9 / 1.5), long_op


if __name__ == "__main__":
    names = [n for n in sorted(globals()) if n.startswith("test_")]
    for n in names:
        globals()[n]()
        print(f"ok {n}")
    print(f"{len(names)} checker tests passed")
