"""Command-line surface: catalog listing, curve dumps, example reproduction,
and the verification suite.

Exit codes: 0 pass, 1 asserted-implication or reproduction failure, 2 usage
or unknown input. CSV output uses 17 significant digits so files round-trip
bit-exactly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .catalog import get_instance, instance_names
from .errors import HypothesesUnmetError, UnknownInstanceError
from .kernels import BURG
from .proxenv import engine, range_probe, threshold_scan
from .subdiff import left_lpsubdiff_hull, monotone_related
from .verify import reports_to_json, run_suite

QUANTITIES = ("f", "env", "hull", "prox", "subdiff-lo", "subdiff-hi", "h_lambda")


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(float(v), ".17g")


def _parse_grid(spec: str):
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}, expected lo:hi:n")
    if not (lo < hi and n >= 2):
        raise ValueError(f"bad grid spec {spec!r}: need lo < hi and n >= 2")
    return np.linspace(lo, hi, n)


def cmd_list(args) -> int:
    print(f"{'name':<18} {'kernel':<10} {'lambda':<8} {'function'}")
    for name in instance_names():
        inst = get_instance(name)
        print(f"{name:<18} {inst.kernel.name:<10} {inst.lam:<8g} {inst.fn.name}")
    return 0


def _column(inst, what: str, xs: list[float]) -> list[float]:
    """One CSV column at every x; env, prox and h_lambda (env o grad kappa*)
    are solved as one block each, at the interior points only: elsewhere env
    and h_lambda read inf and prox nan."""
    eng = engine(inst)
    if what == "f":
        return [float(inst.fn.eval(x)) for x in xs]
    if what == "h_lambda":
        # xi outside int dom kappa* maps to nan, which the env column reads as inf
        dual = [inst.kernel.conj_domain.interior_contains(x) for x in xs]
        ys = iter(inst.kernel.grad_conj(np.array(xs)[dual]).tolist())
        xs, what = [next(ys) if m else math.nan for m in dual], "env"
    if what in ("env", "prox"):
        mask = [inst.kernel.domain.interior_contains(x) for x in xs]
        inside = [x for x, m in zip(xs, mask) if m]
        if what == "env":
            vals, fill = iter(eng.env_many(inside).tolist()), math.inf
        else:
            vals, fill = (min(r.minimizers) for r in eng.prox_many(inside)), math.nan
        return [next(vals) if m else fill for m in mask]
    if what == "hull":
        return [float(eng.hull_fn_value(x)) for x in xs]
    if what in ("subdiff-lo", "subdiff-hi"):
        sets = [left_lpsubdiff_hull(inst, x) for x in xs]
        return [math.nan if s.is_empty else s.lo if what == "subdiff-lo" else s.hi
                for s in sets]
    raise ValueError(f"unknown quantity {what!r}")


def cmd_curve(args) -> int:
    try:
        inst = get_instance(args.instance)
    except UnknownInstanceError:
        print(f"unknown instance: {args.instance}", file=sys.stderr)
        return 2
    what = [w.strip() for w in args.what.split(",") if w.strip()]
    bad = [w for w in what if w not in QUANTITIES]
    if bad:
        print(f"unknown quantities: {', '.join(bad)}", file=sys.stderr)
        return 2
    try:
        xs = _parse_grid(args.grid)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    xs = xs.tolist()
    try:
        rows = list(zip(xs, *[_column(inst, w, xs) for w in what]))
    except HypothesesUnmetError as exc:
        print(f"hypotheses unmet for requested column: {exc}", file=sys.stderr)
        return 2
    out = args.output or sys.stdout
    close = False
    if isinstance(out, str):
        out, close = open(out, "w"), True
    try:
        out.write(",".join(["x"] + what) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if close:
            out.close()
    return 0


def _report_line(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def _reproduce_310() -> bool:
    inst = get_instance("ex310")
    xs = np.linspace(-1.0, 1.0, 201)[1:-1]
    ok = True
    bad_sing, bad_empty = 0, 0
    for x in map(float, xs):
        s = left_lpsubdiff_hull(inst, x)
        if x < 0:
            if s.is_empty or not s.is_singleton or \
                    abs(0.5 * (s.lo + s.hi) - inst.fn.deriv(x)) > 1e-4:
                bad_sing += 1
        elif x > 0:
            if not s.is_empty:
                bad_empty += 1
    ok &= _report_line("singleton equal to f'(x) on (-1, 0)", bad_sing == 0,
                       f"{bad_sing} failures of 99 points")
    ok &= _report_line("empty on (0, 1)", bad_empty == 0,
                       f"{bad_empty} failures of 99 points")
    s0 = left_lpsubdiff_hull(inst, 0.0)
    detail = "empty" if s0.is_empty else f"[{_fmt(s0.lo)}, {_fmt(s0.hi)}]"
    # The hull route classifies x = 0 with the closed branch: the certificate
    # (1 - sqrt(1 - x^2))(1 - x) >= 0 accepts u = f'(0) = 1, so the reading
    # {f'(0)} is annotated, and the harness reports both readings.
    ambiguous_ok = s0.is_empty or (s0.is_singleton and abs(s0.hi - 1.0) <= 1e-4)
    ok &= _report_line("x = 0 reported per ambiguity note "
                       "(closed branch value 1 or empty)", ambiguous_ok, detail)
    return ok


def _reproduce_411() -> bool:
    inst = get_instance("ex411")
    ok = True
    s = left_lpsubdiff_hull(inst, 0.0)
    ok &= _report_line("subdifferential at 0 has upper endpoint 1/2",
                       (not s.is_empty) and abs(s.hi - 0.5) <= 1e-4,
                       f"hi = {_fmt(s.hi)}")
    ok &= _report_line("lower endpoint flagged unbounded",
                       (not s.is_empty) and math.isinf(s.lo), f"lo = {_fmt(s.lo)}")
    ys = -0.999 + 1.998 * np.random.default_rng(0).random(60)
    outputs = {round(m, 6) for res in engine(inst).prox_many(ys) for m in res.minimizers}
    near0 = any(abs(m) <= 1e-4 for m in outputs)
    near1 = any(abs(m - 1.0) <= 1e-4 for m in outputs)
    only01 = all(abs(m) <= 1e-4 or abs(m - 1.0) <= 1e-4 for m in outputs)
    ok &= _report_line("prox range is {0, 1}", near0 and near1 and only01,
                       f"outputs {sorted(outputs)}")
    probe_ok, _ = range_probe(inst, n=200, seed=0)
    ok &= _report_line("range-assumption probe fails", not probe_ok)
    graph = [(0.0, u) for u in (-10.0, -1.0, 0.0, 0.5)]
    ok &= _report_line("non-maximality witness (0.5, 1.0) monotonically related",
                       monotone_related(graph, 0.5, 1.0))
    return ok


def _reproduce_envelope(name: str, closed_form, label: str) -> bool:
    inst = get_instance(name)
    eng = engine(inst)
    xis = np.linspace(-3.0, 3.0, 241).tolist()
    hs = eng.env_many(inst.kernel.grad_conj(np.array(xis))).tolist()
    worst = max(abs(h - closed_form(xi)) for xi, h in zip(xis, hs))
    return _report_line(label, worst <= 1e-4, f"max |h - closed form| = {worst:.3e}")


def _reproduce_419() -> bool:
    ok = _reproduce_envelope("ex419", lambda y: -y, "dual envelope equals -y")
    from .verify import _h_convexity, _fn_convexity
    eng = engine(get_instance("ex419"))
    ok &= _report_line("dual envelope convex", _h_convexity(eng).holds)
    ok &= _report_line("f nonconvex", not _fn_convexity(eng).holds)
    return ok


def _reproduce_420() -> bool:
    def h(y):
        return (2.0 / 3.0) * abs(y) ** 1.5 - (2.0 / 3.0) * abs(y - 1.0) ** 1.5

    ok = _reproduce_envelope("ex420", h,
                             "dual envelope equals (2/3)|y|^{3/2} - (2/3)|y-1|^{3/2}")
    from .verify import _h_convexity, _fn_convexity
    eng = engine(get_instance("ex420"))
    ok &= _report_line("f convex", _fn_convexity(eng).holds)
    ok &= _report_line("dual envelope nonconvex", not _h_convexity(eng).holds)
    return ok


def _reproduce_ln() -> bool:
    inst = get_instance("ex_ln")
    lo, hi = threshold_scan(BURG, inst.fn, np.geomspace(0.5, 2.0, 30))
    ok = _report_line("threshold bracket contains 1.0 with width <= 0.1",
                      lo <= 1.0 <= hi and hi - lo <= 0.1,
                      f"bracket [{lo:.4f}, {hi:.4f}]")
    return ok


REPRODUCTIONS = {
    "3.10": _reproduce_310,
    "4.11": _reproduce_411,
    "4.19": _reproduce_419,
    "4.20": _reproduce_420,
    "ln": _reproduce_ln,
}


def cmd_reproduce(args) -> int:
    fn = REPRODUCTIONS.get(args.example)
    if fn is None:
        print(f"unknown example: {args.example} "
              f"(choose from {', '.join(REPRODUCTIONS)})", file=sys.stderr)
        return 2
    return 0 if fn() else 1


def cmd_verify(args) -> int:
    if args.all:
        names = instance_names()
    elif args.instance:
        names = args.instance
    else:
        print("verify requires --all or --instance", file=sys.stderr)
        return 2
    try:
        for name in names:
            get_instance(name)
    except UnknownInstanceError as exc:
        print(f"unknown instance: {exc.args[0]}", file=sys.stderr)
        return 2
    reports = run_suite(names, seed=args.seed)
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for r in reports:
            v = r.violated
            state = "SKIP" if r.status != "ok" and not r.conditions else (
                "FAIL" if v else "pass")
            conds = " ".join(f"{c.label}={'T' if c.holds else 'F'}"
                             for c in r.conditions)
            print(f"{state:4s} {r.instance:18s} {r.theorem:16s} {r.status:24s} {conds}")
            for i in v:
                print(f"     violated: {' & '.join(i.premises)} => {i.conclusion}")
    violations = sum(len(r.violated) for r in reports)
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bregmanprox",
        description="Bregman proximal calculus: curves, reproductions, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog instances")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("curve", help="dump quantities on a grid as CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--what", required=True,
                   help=f"comma-separated subset of {','.join(QUANTITIES)}")
    p.add_argument("--grid", required=True, help="lo:hi:n")
    p.add_argument("--output", default=None, help="file path (default stdout)")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("reproduce", help="re-run a named worked example")
    p.add_argument("example", help="one of 3.10, 4.11, 4.19, 4.20, ln")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("verify", help="run the theorem harness")
    p.add_argument("--all", action="store_true")
    p.add_argument("--instance", action="append", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_verify)

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # grid specs may start with a negative number; join so argparse does not
    # mistake the value for an option
    for i, tok in enumerate(argv[:-1]):
        if tok == "--grid" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
