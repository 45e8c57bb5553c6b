"""Benchmark of bregmanprox: the theorem harness, warm point queries and
cold command-line runs. See perfbench/README.md.

    python3 perfbench/run.py --workload {suite,queries,cold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. Every workload runs in fresh
``python3`` processes with PYTHONPATH=src, so nothing is installed. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = "perfbench-out"
WORKLOADS = ("suite", "queries", "cold")
# Set-up is timed this many times per run (an odd number), each in a fresh
# process, after one untimed warm-up; the median is reported.
SETUP_SPAWNS = 3
# The tail percentile per workload: the highest with at least ten samples
# beyond it at the smallest operation count a run can have (91 checks, two
# rounds of 100 queries, 53 commands).
TAIL_PCT = {"suite": 89, "queries": 95, "cold": 80}
TRACE_ROUNDS = {"suite": 1, "queries": 2, "cold": 1}
# The untraced pass of a traced suite run runs every second instance only,
# so the two passes fit in one run's time limit; the overhead compares the
# operations both passes ran.
TRACE_PLAIN_EVERY = {"suite": 2, "queries": 1, "cold": 1}
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BREGMAN_GRID_N", None)
    return env


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights, p = q/100. It leans on the operations around the percentile,
    which ran at different moments of the run, so it moves less with the
    machine's momentary speed than the single sample at that rank.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    k = 64  # midpoint rule, k points per order statistic
    t = (np.arange(n * k) + 0.5) / (n * k)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(w @ x / w.sum())


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, trace: int = 0, setup_only: bool = False, rounds: int = 0,
              every: int = 1):
        """One worker process; returns (seconds from spawn to ready, result)."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if rounds:
            cmd += ["--rounds", str(rounds)]
        if every > 1:
            cmd += ["--every", str(every)]
        t0 = time.monotonic()
        # its own session, so a timeout also stops the CLI processes it started
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=self.env, start_new_session=True)
        try:
            out, err = p.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise SystemExit(f"perfbench: {a.workload} did not finish in {DEADLINE_S:.0f} s")
        if p.returncode != 0:
            sys.stderr.write(err)
            raise SystemExit(f"perfbench: worker exited with {p.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        return result["ready"] - t0, result

    def setups(self, n: int) -> list[float]:
        """Set-up seconds of n fresh worker processes, each at the reference
        speed of speed.spawn_probe, from the mean of a probe on either side."""
        probes = [speed.spawn_probe(self.env)]
        raw = []
        for _ in range(n):
            raw.append(self.spawn(setup_only=True)[0])
            probes.append(speed.spawn_probe(self.env))
        return [t * speed.SPAWN_REF_S / ((a + b) / 2)
                for t, a, b in zip(raw, probes, probes[1:])]


def end_to_end(setups, res, workload) -> dict:
    ms = [t * 1000.0 for t in res["ops_s"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["rounds_s"]), "s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_tail_ms": (percentile(ms, TAIL_PCT[workload]), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bregmanprox", "__init__.py")):
        print("perfbench: run from the root of a bregmanprox checkout "
              "(src/bregmanprox not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Runner(args)

    if args.trace == 0:
        run.spawn(setup_only=True)  # warm the file cache and bytecode
        setups = run.setups(SETUP_SPAWNS)
        _, res = run.spawn()
        passes = [res]
        metrics = end_to_end(setups, res, args.workload)
        raw_ms = [t * 1000.0 for t in res["raw_ops_s"]]
        print(f"perfbench: unscaled op p50 {percentile(raw_ms, 50):.4g} ms, "
              f"op tail {percentile(raw_ms, TAIL_PCT[args.workload]):.4g} ms, "
              f"ops {sum(raw_ms) / 1000.0:.4g} s; probe median "
              f"{statistics.median(res['probes_s']) * 1000.0:.4g} ms, "
              f"range {min(res['probes_s']) * 1000.0:.4g}-{max(res['probes_s']) * 1000.0:.4g} ms "
              f"over {len(res['probes_s'])} probes", file=sys.stderr)
    else:
        # A fixed number of rounds, so the counts repeat exactly for a seed;
        # the same operations untraced give the overhead.
        import tracing
        rounds = TRACE_ROUNDS[args.workload]
        _, plain = run.spawn(rounds=rounds, every=TRACE_PLAIN_EVERY[args.workload])
        _, traced = run.spawn(trace=1, rounds=rounds)
        passes = [plain, traced]
        metrics = tracing.per_layer(traced["trace"])
        shared = set(plain["op_names"])
        t_wall = math.fsum(t for t, n in zip(traced["ops_s"], traced["op_names"]) if n in shared)
        u_wall = math.fsum(plain["ops_s"])
        metrics["trace.traced_wall_s"] = (t_wall, "s")
        metrics["trace.untraced_wall_s"] = (u_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (t_wall - u_wall) / u_wall, "%")
        metrics["trace.spans"] = (sum(s["spans"] for s in traced["trace"]), "count")

    errors = [e for r in passes for e in r["errors"]]
    for e in errors:
        print(f"perfbench: wrong output: {e}", file=sys.stderr)
    out = {
        "correct": not any(r["n_errors"] for r in passes),
        "attempted": sum(len(r["ops_s"]) for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
