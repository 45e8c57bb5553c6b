"""Command-line surface: catalog listing, curve dumps, example reproduction,
and the verification suite.

Exit codes: 0 pass, 1 asserted-implication or reproduction failure, 2 usage,
unknown or out-of-range input, or an output file that cannot be written. CSV
output uses 17 significant digits so files round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .catalog import get_instance, instance_names
from .errors import (HypothesesUnmetError, InfMinusInfError, OutOfRangeError,
                     UnknownInstanceError)
from .proxenv import engine
from .subdiff import left_lpsubdiff_hull

QUANTITIES = ("f", "env", "hull", "prox", "subdiff-lo", "subdiff-hi", "h_lambda")


def _parse_grid(spec: str):
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}, expected lo:hi:n")
    if not (lo < hi and math.isfinite(hi - lo) and n >= 2):
        raise ValueError(f"bad grid spec {spec!r}: need finite lo < hi and n >= 2")
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
    xs = np.asarray(xs, dtype=float)
    if what == "f":
        return inst.fn.eval(xs).tolist()
    if what == "h_lambda":
        # xi outside int dom kappa* maps to nan, which the env column reads as inf
        dual = inst.kernel.conj_domain.interior_contains(xs)
        ys = np.full_like(xs, math.nan)
        ys[dual] = inst.kernel.grad_conj(xs[dual])
        xs, what = ys, "env"
    if what in ("env", "prox"):
        mask = inst.kernel.domain.interior_contains(xs)
        out = np.full_like(xs, math.inf if what == "env" else math.nan)
        if what == "env":
            out[mask] = eng.env(xs[mask])
        else:
            out[mask] = [min(r.minimizers) for r in eng.prox(xs[mask])]
        return out.tolist()
    if what == "hull":
        return eng.hull_fn_value(xs).tolist()
    if what in ("subdiff-lo", "subdiff-hi"):
        return [s.lo if what == "subdiff-lo" else s.hi for s in left_lpsubdiff_hull(inst, xs)]
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
    except (OutOfRangeError, InfMinusInfError) as exc:
        # InfMinusInfError: f or kappa overflowed to inf - inf at a grid point
        print(f"requested column out of range: {exc}", file=sys.stderr)
        return 2
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        print(f"cannot write the output: {exc}", file=sys.stderr)
        return 2
    try:
        out.write(",".join(["x"] + what) + "\n")
        for row in rows:
            out.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_reproduce(args) -> int:
    from . import verify
    if args.example not in verify.EXAMPLES:
        print(f"unknown example: {args.example} "
              f"(choose from {', '.join(verify.EXAMPLES)})", file=sys.stderr)
        return 2
    rep = verify.check_example(args.example)
    for i in rep.implications:
        print(f"[{'FAIL' if i.violated else 'PASS'}] {i.conclusion}"
              + (f": {i.reason}" if i.reason else ""))
    return 1 if rep.violated else 0


def cmd_verify(args) -> int:
    from .verify import reports_to_json, run_suite  # only verify and reproduce load the harness
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
