"""One benchmark process: set up a workload, run whole rounds of its
operations in a closed loop, check every output, print one JSON line.

Run by ``run.py``; not meant to be called by hand. With ``--setup-only`` the
process stops after set-up, so ``run.py`` can time set-up several times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
import zlib

import numpy as np

import checks
from speed import SPAWN_REF_S, Speedometer, spawn_probe

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = "perfbench-out"

# ---------------------------------------------------------------------------
# suite: the theorem harness, one operation per (instance, theorem)
# ---------------------------------------------------------------------------

# The catalog as of this benchmark, in the harness's order; fixed here so the
# workload does not change when the catalog grows.
SUITE_INSTANCES = ("ex310", "ex411", "ex_ln", "ex419", "ex420", "bsmooth_counter",
                   "euclid_abs", "euclid_zero", "euclid_sq", "euclid_abs_strong",
                   "shannon_abs", "hell_halfk", "burg_linear")


class Suite:
    min_rounds = 1

    def __init__(self, seed: int, speed: Speedometer, every: int = 1):
        from bregmanprox import verify
        from bregmanprox.catalog import get_instance
        from bregmanprox.errors import HypothesesUnmetError
        self.verify, self.unmet = verify, HypothesesUnmetError
        self.seed, self.speed = seed, speed
        self.insts = [get_instance(n) for n in SUITE_INSTANCES[::every]]

    def _run_check(self, fn, inst, theorem: str, child: int):
        try:
            return fn(inst, seed=child)
        except self.unmet as exc:
            rep = self.verify._base_report(inst, theorem, child)
            rep.status = "hypotheses-unmet"
            rep.notes.append(str(exc))
            return rep

    def round(self, r: int):
        """The harness exactly as ``verify --all --seed`` runs it, timed per check."""
        ops = []
        for inst in self.insts:
            for theorem, fn in self.verify.ALL_CHECKS:
                child = (self.seed * 1000003
                         + zlib.crc32(f"{inst.name}:{theorem}".encode())) & 0x7FFFFFFF
                rep, dt = self.speed.time(self._run_check, fn, inst, theorem, child)
                ops.append(((inst.name, theorem, rep), dt))
        return ops

    def check(self, op):
        name, theorem, rep = op
        return checks.check_report(name, theorem, rep.to_dict()), False

    @staticmethod
    def op_name(op) -> str:
        return f"{op[0]}:{op[1]}"


# ---------------------------------------------------------------------------
# queries: single-point public calls against warm engines
# ---------------------------------------------------------------------------

# One round as (kind, instance, count), grouped by latency band, fastest
# first. Kinds ending in "-rep" reuse a point already used by the same kind
# and instance in this round, so they read the envelope memo; every other
# point is new.
QUERY_MIX = (
    ("hull_function", "ex310", 2), ("hull_function", "hell_halfk", 2),
    ("hull_fn_value", "ex310", 2), ("hull_fn_value", "hell_halfk", 2),
    ("subdiff_hull", "ex310", 4), ("subdiff_hull", "euclid_abs", 2),
    ("subdiff_hull", "euclid_sq", 1),
    ("single_valued", "ex310", 4), ("single_valued", "euclid_abs", 2),
    ("left_env-rep", "euclid_abs", 2), ("left_env-rep", "euclid_sq", 2),
    ("left_env-rep", "ex419", 1), ("left_env-rep", "ex420", 1),
    ("prox_hull-rep", "euclid_abs", 2),
    ("left_prox", "euclid_abs", 4), ("left_prox", "euclid_sq", 3),
    ("left_prox", "ex419", 4), ("left_prox", "ex420", 4), ("left_prox", "hell_halfk", 4),
    ("left_env", "euclid_abs", 4), ("left_env", "euclid_sq", 3),
    ("left_env", "ex419", 4), ("left_env", "ex420", 4),
    ("right_prox", "euclid_abs", 3), ("right_prox", "euclid_sq", 3),
    ("subdiff_definitional", "ex310", 5), ("subdiff_definitional", "euclid_abs", 3),
    ("prox_hull-rep", "ex310", 1), ("prox_hull-rep", "hell_halfk", 1),
    ("euclid_crosscheck", "ex419", 2), ("euclid_crosscheck", "hell_halfk", 2),
    ("euclid_crosscheck", "euclid_abs", 1),
    ("env_conjugate_crosscheck", "ex419", 2), ("env_conjugate_crosscheck", "hell_halfk", 2),
    ("env_conjugate_crosscheck", "euclid_abs", 1),
    ("left_prox-scaled", "ex411", 1),
    ("prox_hull", "euclid_abs", 2), ("prox_hull", "ex310", 4), ("prox_hull", "hell_halfk", 4),
)

# Where points are drawn, per instance: y for prox and envelopes, x for hulls
# and subdifferentials. ex419 and ex420 keep grad kappa(y) in [-3, 3].
POINT_RANGE = {
    "euclid_abs": (-3.0, 3.0), "euclid_sq": (-3.0, 3.0), "ex419": (-1.4, 1.4),
    "ex420": (-1.7, 1.7), "hell_halfk": (-0.9, 0.9), "ex310": (-0.9, 0.9),
    # on (0, 1) the cost of ex310's definitional hull swings between 2 and
    # 340 ms with x; its contact side keeps the slow band one band
    ("prox_hull", "ex310"): (-0.9, -0.05),
}
# ex411 with (f, lam) -> (1e3 f, lam / 1e3) at its critical slope: the prox
# set must stay {0, 1}. Fails today through the absolute tie tolerance of
# numerics.grid_minimize, so it is counted as failed, one per round.
SCALE_B = 1e3
EX411_Y = 1.0 / math.sqrt(2.0)


def query_order() -> list[tuple[str, str]]:
    """The fixed call order of one round, the same for every seed.

    A fixed permutation interleaves the kinds; a repeat is then moved after
    the first new call of its kind and instance.
    """
    calls = [(k, i) for k, i, n in QUERY_MIX for _ in range(n)]
    perm = np.random.default_rng(20250607).permutation(len(calls))
    order, waiting, seen = [], [], set()
    for j in perm:
        kind, inst = calls[j]
        if kind.endswith("-rep") and (kind[:-4], inst) not in seen:
            waiting.append(calls[j])
            continue
        order.append(calls[j])
        seen.add(calls[j])
        ready = [c for c in waiting if (c[0][:-4], c[1]) in seen]
        order += ready
        waiting = [c for c in waiting if c not in ready]
    return order


class Queries:
    min_rounds = 2

    def __init__(self, seed: int, speed: Speedometer):
        import bregmanprox as bp
        from bregmanprox import proxenv
        from bregmanprox.catalog import Instance, get_instance, shift_scale
        self.bp, self.seed, self.speed = bp, seed, speed
        names = sorted({i for _, i, _ in QUERY_MIX} - {"ex411"})
        self.insts = {n: get_instance(n) for n in names}
        ex = get_instance("ex411")
        self.scaled = Instance("ex411_x1e3", ex.kernel, shift_scale(ex.fn, 0.0, SCALE_B, 0.0),
                               ex.lam / SCALE_B)
        for inst in list(self.insts.values()) + [self.scaled]:
            eng = proxenv.engine(inst)
            eng.env_coarse()
            eng.hull_curve()
            eng.hull_contact_mask()
        self.order = query_order()
        self.ref_scaled = checks.scaled(checks.INSTANCES["ex411"], SCALE_B)

    def _points(self, r: int):
        """Arguments for every call of round r, drawn before the clock starts."""
        rng = np.random.default_rng([self.seed, r])
        used: dict[tuple[str, str], list[float]] = {}
        plan = []
        for kind, name in self.order:
            if kind.endswith("-rep"):
                pool = used[(kind[:-4], name)]
                plan.append((kind, name, pool[int(rng.integers(len(pool)))], None))
                continue
            if kind == "left_prox-scaled":
                plan.append((kind, name, EX411_Y, None))
                continue
            lo, hi = POINT_RANGE.get((kind, name), POINT_RANGE[name])
            p = float(rng.uniform(lo, hi))
            u = None
            if kind in ("subdiff_hull", "single_valued", "subdiff_definitional"):
                # stay off the kink at 0 and the domain edges
                mag = float(rng.uniform(0.05, 0.95 if name == "ex310" else 3.0))
                p = mag if rng.random() < 0.5 else -mag
            if kind == "subdiff_definitional":
                if name == "ex310":
                    u = checks.ex310_deriv(p)
                else:
                    u = math.copysign(1.0, p) + float(rng.choice([-0.5, 0.0, 0.0, 0.5]))
            used.setdefault((kind, name), []).append(p)
            plan.append((kind, name, p, u))
        return plan

    def round(self, r: int):
        bp = self.bp
        from bregmanprox.proxenv import engine
        calls = {
            "hull_function": lambda i, p, u: bp.hull_function(i).eval(p),
            "hull_fn_value": lambda i, p, u: engine(i).hull_fn_value(p),
            "subdiff_hull": lambda i, p, u: bp.left_lpsubdiff_hull(i, p),
            "single_valued": lambda i, p, u: bp.single_valuedness_at(i, p),
            "left_env": lambda i, p, u: bp.left_env(i, p),
            "left_prox": lambda i, p, u: bp.left_prox(i, p),
            "right_prox": lambda i, p, u: bp.right_prox(i, p),
            "subdiff_definitional": lambda i, p, u: bp.left_lpsubdiff_definitional(i, p, u),
            "prox_hull": lambda i, p, u: bp.prox_hull(i, p),
            "euclid_crosscheck": lambda i, p, u: bp.euclid_crosscheck(i, p),
            "env_conjugate_crosscheck": lambda i, p, u: bp.env_conjugate_crosscheck(i, p),
        }
        ops = []
        for kind, name, p, u in self._points(r):
            base = kind.replace("-rep", "").replace("-scaled", "")
            inst = self.scaled if kind == "left_prox-scaled" else self.insts[name]
            out, dt = self.speed.time(calls[base], inst, p, u)
            ops.append(((kind, name, p, u, out), dt))
        return ops

    def check(self, op):
        kind, name, p, u, out = op
        ref = checks.INSTANCES.get(name)
        base = kind.replace("-rep", "")
        if kind == "left_prox-scaled":
            err = checks.check_prox_set(self.ref_scaled, p, out.minimizers, float(out.value),
                                        expected=[0.0, 1.0])
            return err, True
        if base in ("left_prox", "right_prox"):
            closed = checks.PROX_CLOSED.get(name)
            return checks.check_prox_set(ref, p, out.minimizers, float(out.value),
                                         expected=None if closed is None else [closed(p)]), False
        if base == "left_env":
            return checks.check_env_value(ref, p, float(out),
                                          closed=checks.ENV_CLOSED[name](p)), False
        if base in ("prox_hull", "hull_function", "hull_fn_value"):
            return checks.check_hull_value(ref, p, float(out)), False
        if base == "subdiff_hull":
            return checks.check_subdiff(ref, p, out.lo, out.hi, out.is_empty), False
        if base == "single_valued":
            err = checks.check_single_valued(ref, p, out.empty, out.single)
            if err is None and not out.equivalence_consistent:
                err = f"{name} at {p}: single-valuedness equivalence inconsistent"
            return err, False
        if base == "subdiff_definitional":
            return checks.check_membership(ref, p, u, bool(out[0])), False
        if base == "euclid_crosscheck":
            return checks.check_gap(f"euclid crosscheck {name} at {p}", out,
                                    checks.EUCLID_GAP_TOL), False
        if base == "env_conjugate_crosscheck":
            return checks.check_gap(f"conjugate crosscheck {name} at {p}", out,
                                    checks.CONJUGATE_GAP_TOL), False
        raise ValueError(kind)

    @staticmethod
    def op_name(op) -> str:
        return f"{op[0]}:{op[1]}"


# ---------------------------------------------------------------------------
# cold: CLI commands, each in a fresh process, at BREGMAN_GRID_N=4001
# ---------------------------------------------------------------------------

REPRODUCE_IDS = ("3.10", "4.11", "4.19", "4.20", "ln")
CURVE_COLUMNS = "f,env,hull,prox,subdiff-lo,subdiff-hi,h_lambda"
# ex411's subdifferential columns are left out: left_lpsubdiff_hull raises
# "outside hull span" for x a quarter to a half grid cell left of the span
# start at 0, which these seeded grids hit on some seeds.
COLUMNS_FOR = {"ex411": "f,env,hull,prox,h_lambda"}
# Abscissa ranges: x for f, hull and subdifferentials, y for env and prox,
# xi for h_lambda. Both ends are jittered by the seed; each grid has 7 rows.
CURVE_RANGE = {
    "euclid_abs": (3.0, 0.2), "euclid_sq": (3.0, 0.2), "ex419": (1.4, 0.05),
    "ex420": (1.7, 0.05), "ex310": (0.93, 0.03), "ex411": (0.93, 0.03),
}
CURVES_PER_INSTANCE = 8
CURVE_ROWS = 7
COLD_GRID_N = "4001"
# cold probes with a fresh process about every second command (0.3-0.5 s each)
COLD_PROBE_GAP_S = 0.6


class Cold:
    min_rounds = 1

    def __init__(self, seed: int, speed: Speedometer, trace: bool):
        self.seed, self.speed, self.trace = seed, speed, trace
        self.peak_rss_mb = 0.0  # of the CLI processes, not the probe's
        self.env = dict(os.environ, BREGMAN_GRID_N=COLD_GRID_N)
        self.summaries: list[dict] = []

    def commands(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        cmds = [("reproduce", ex, ["reproduce", ex]) for ex in REPRODUCE_IDS]
        for name, (half, jit) in CURVE_RANGE.items():
            for _ in range(CURVES_PER_INSTANCE):
                lo = -half + float(rng.uniform(-jit, jit))
                hi = half + float(rng.uniform(-jit, jit))
                grid = f"{lo!r}:{hi!r}:{CURVE_ROWS}"
                what = COLUMNS_FOR.get(name, CURVE_COLUMNS)
                cmds.append(("curve", name, ["curve", "--instance", name,
                                             "--what", what, "--grid", grid]))
        order = np.random.default_rng(20250607).permutation(len(cmds))
        return [cmds[j] for j in order]

    def _launch(self, argv, k: int):
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        trace_out = None
        if self.trace:
            trace_out = os.path.join(OUT_DIR, f"cold-seed{self.seed}-cmd{k}.json")
            cmd += ["--trace-out", trace_out]
        (code, out), dt = self.speed.time(self._run, cmd + ["--"] + argv)
        if trace_out is not None and os.path.exists(trace_out):
            with open(trace_out) as fh:
                self.summaries.append(json.load(fh))
        return code, out, dt

    def _run(self, cmd):
        """Exit code and output (stdout, then stderr) of one command."""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=self.env) as p:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return p.returncode, out

    def round(self, r: int):
        ops = []
        for k, (what, name, argv) in enumerate(self.commands(r)):
            code, out, dt = self._launch(argv, k)
            ops.append(((what, name, argv, code, out), dt))
        return ops

    def check(self, op):
        what, name, argv, code, out = op
        if what == "reproduce":
            return checks.check_reproduce(name, code, out), False
        if code != 0:
            return f"curve {name} {argv[-1]}: exit {code}: {out.strip()[-200:]!r}", False
        return checks.check_curve(name, out, CURVE_ROWS), False

    @staticmethod
    def op_name(op) -> str:
        return " ".join(op[2])


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("suite", "queries", "cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds instead of --seconds")
    ap.add_argument("--every", type=int, default=1,
                    help="suite: run only every k-th instance")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace and args.workload != "cold":
        import tracing
        tracer = tracing.install()
    # Probes inside operations only where this process runs the program, and
    # not in the fixed-round passes of a traced run, so no probe lands in a
    # span. cold's commands are processes, so its probe is one too.
    if args.workload == "cold":
        speed = Speedometer(in_op=False, probe=spawn_probe, ref_s=SPAWN_REF_S,
                            gap_s=COLD_PROBE_GAP_S)
    else:
        speed = Speedometer(in_op=not args.rounds)
    if args.workload == "suite":
        wl = Suite(args.seed, speed, args.every)
    elif args.workload == "queries":
        wl = Queries(args.seed, speed)
    else:
        wl = Cold(args.seed, speed, bool(args.trace))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    raw_ops: list[float] = []
    names: list[str] = []
    round_sizes: list[int] = []
    failed, errors = 0, []
    start = time.perf_counter()
    while True:
        ops = wl.round(len(round_sizes))
        round_sizes.append(len(ops))
        for op, dt in ops:
            raw_ops.append(dt)
            names.append(wl.op_name(op))
            try:
                err, known_fault = wl.check(op)
            except Exception as exc:  # a malformed answer is a wrong answer
                err, known_fault = f"checker raised {exc!r} on {op[:2]}", False
            if err is None:
                continue
            if known_fault:
                failed += 1
            else:
                errors.append(err)
        elapsed = time.perf_counter() - start
        n = len(round_sizes)
        if args.rounds:
            if n == args.rounds:
                break
        # start another round only when it should end within --seconds
        elif n >= wl.min_rounds and elapsed * (1 + 1 / n) > args.seconds:
            break

    # operation times at the reference speed (speed.py); a round's time is
    # the sum of its operations'
    ops_s = speed.scaled()
    bounds = np.cumsum([0] + round_sizes)
    rounds = [math.fsum(ops_s[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    result = {"ready": ready, "ops_s": ops_s,
              "rounds_s": rounds, "raw_ops_s": raw_ops, "op_names": names,
              "probes_s": speed.probes,
              "failed": failed, "errors": errors[:20], "n_errors": len(errors)}
    # the process that runs the program: this one, or for cold the largest
    # of the CLI processes
    result["peak_rss_mb"] = (wl.peak_rss_mb if args.workload == "cold"
                             else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.workload == "cold" and args.trace:
        result["trace"] = wl.summaries
    if tracer is not None:
        import tracing
        tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans"))
        result["trace"] = [tracer.summary(tracing.gauges())]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
