"""Per-layer tracing for the benchmark, installed only in traced runs.

``install()`` wraps the public functions and methods of the program's
modules from the outside: nothing under ``src/`` changes. Each wrapped call
records a span (name, start, end, parent) in memory; the spans are written
out when the run ends. Self time is a span's duration minus the time covered
by its child spans, and is summed per name as the calls return.

Scalar calls that run millions of times in one harness pass are handled
more cheaply. The scalar ``ProperFn``/``Kernel`` evaluations are leaves: they
are timed and counted but push no frame and store no span. ``phi_scalar`` is
timed like any call but not stored. Everything in ``extreal`` (``ExtReal``
construction, ``Interval`` tests) is only counted, so its time is part of its
caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

MODULES = ("cli", "verify", "subdiff", "proxenv", "numerics", "kernels",
           "catalog", "extreal")

# Timed leaf calls: counted and timed, no frame, no span.
_LEAVES = {
    "catalog.ProperFn.eval", "kernels.Kernel.eval", "kernels.Kernel.grad",
    "kernels.Kernel.grad_conj", "kernels.Kernel.conj_eval",
}
# Timed with a frame like any call, but not stored as spans.
_NOT_STORED = {"proxenv.InstanceEngine.phi_scalar"}
# Counted only: every name in this module.
_COUNTED_MODULE = "extreal."

# verify check functions and the theorem names the harness reports.
THEOREMS = {
    "check_weak_convexity": "weak-convexity",
    "check_dfne": "dfne",
    "check_env_convexity": "env-convexity",
    "check_bcoco": "bcoco",
    "check_bsmooth": "bsmooth",
    "check_two_sided": "two-sided",
    "check_strong_convexity_sufficient": "strong-convexity",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []      # outermost calls only
        self.self_time: list[float] = []
        self.depth: list[int] = []
        self.counters = {"refine_evals": 0, "grid_evals": 0,
                         "proper_eval_many_points": 0, "kernel_eval_many_points": 0,
                         "curve_rows": 0}
        # span store: parallel arrays, the parent is a span index or -1
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        # frames: [span index or -1, time covered by children]
        self.stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.depth.append(0)
        return self.index[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn``; ``before`` may rewrite the arguments."""
        i = self._id(name)
        stack, clock = self.stack, time.perf_counter
        calls, total, self_time, depth = self.calls, self.total, self.self_time, self.depth
        sp_name, sp_start, sp_end, sp_parent = (self.sp_name, self.sp_start,
                                                self.sp_end, self.sp_parent)
        store = name not in _NOT_STORED

        if name.startswith(_COUNTED_MODULE):
            def traced(*args, **kwargs):
                calls[i] += 1
                return fn(*args, **kwargs)
            return traced

        if name in _LEAVES:
            def traced(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                d = clock() - t0
                calls[i] += 1
                self_time[i] += d
                total[i] += d
                if stack:
                    stack[-1][1] += d
                return result
            return traced

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if store:
                sid = len(sp_name)
                sp_name.append(i)
                sp_parent.append(stack[-1][0] if stack else -1)
                sp_start.append(0.0)
                sp_end.append(0.0)
            else:
                sid = -1
            frame = [sid if store else (stack[-1][0] if stack else -1), 0.0]
            stack.append(frame)
            depth[i] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[i] -= 1
                d = t1 - t0
                calls[i] += 1
                self_time[i] += d - frame[1]
                if depth[i] == 0:
                    total[i] += d
                if stack:
                    stack[-1][1] += d
                if store:
                    sp_start[sid] = t0
                    sp_end[sid] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def _get(self, table, name):
        i = self.index.get(name)
        return 0 if i is None else table[i]

    def child_count(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        c, p = self.index.get(child), self.index.get(parent)
        if c is None or p is None:
            return 0
        names, parents = self.sp_name, self.sp_parent
        return sum(1 for k in range(len(names))
                   if names[k] == c and parents[k] >= 0 and names[parents[k]] == p)

    def summary(self, gauges: dict) -> dict:
        """Additive per-layer figures of this process, plus end-of-run gauges."""
        calls = {n: self._get(self.calls, n) for n in self.names}
        total = {n: self._get(self.total, n) for n in self.names}
        module_self: dict[str, float] = {}
        for n in self.names:
            m = n.split(".", 1)[0]
            module_self[m] = module_self.get(m, 0.0) + self._get(self.self_time, n)
        return {
            "calls": calls, "total": total, "module_self": module_self,
            "grid_minimize_self": self._get(self.self_time, "numerics.grid_minimize"),
            "counters": dict(self.counters),
            "env_solves": self.child_count("numerics.grid_minimize",
                                           "proxenv.InstanceEngine.env"),
            "spans": len(self.sp_name),
            "gauges": gauges,
        }

    def write_spans(self, path: str):
        """A JSON header line with the name table, then one line per span:
        name index, start, end (perf_counter seconds), parent span index."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent"]}, fh)
            fh.write("\n")
            for k in range(len(self.sp_name)):
                fh.write(f"{self.sp_name[k]} {self.sp_start[k]:.9f} "
                         f"{self.sp_end[k]:.9f} {self.sp_parent[k]}\n")


# Engine construction and extended-real construction are layer metrics too.
_TRACED_DUNDERS = {("InstanceEngine", "__init__"), ("ExtReal", "__new__")}


def _public_members(module):
    """(qualified name, owner, attribute, function) for each public callable."""
    out = []
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            out.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and (name, attr) not in _TRACED_DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not inspect.isfunction(fn):
                    continue
                out.append((f"{short}.{name}.{attr}", obj, attr, raw))
    return out


def install() -> Tracer:
    """Wrap every public function and method of the program's modules."""
    tr = Tracer()
    pkg = importlib.import_module("bregmanprox")
    mods = {m: importlib.import_module(f"bregmanprox.{m}") for m in MODULES}
    every_module = [pkg, importlib.import_module("bregmanprox.errors")] + list(mods.values())
    c = tr.counters

    def counted_phi(args, kwargs):
        phi = args[0] if args else kwargs.pop("phi")

        def phi_counted(x):
            c["refine_evals"] += 1
            return phi(x)

        return (phi_counted,) + tuple(args[1:]), kwargs

    def grid_points(args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        c["grid_evals"] += len(grid.points)
        return args, kwargs

    def points(key):
        def before(args, kwargs):
            xs = args[1] if len(args) > 1 else kwargs["xs"]
            c[key] += int(getattr(xs, "size", 1) or 1)
            return args, kwargs
        return before

    def curve_rows(args, kwargs, result):
        if result == 0:
            c["curve_rows"] += int(args[0].grid.split(":")[2])

    hooks = {
        "numerics.golden_section": (counted_phi, None),
        "numerics.parabolic_polish": (counted_phi, None),
        "numerics.grid_minimize": (grid_points, None),
        "catalog.ProperFn.eval_many": (points("proper_eval_many_points"), None),
        "kernels.Kernel.eval_many": (points("kernel_eval_many_points"), None),
        "cli.cmd_curve": (None, curve_rows),
    }

    replaced = {}
    for m in MODULES:
        for qual, owner, attr, raw in _public_members(mods[m]):
            before, after = hooks.get(qual, (None, None))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(tr.wrap(qual, raw.__func__, before, after))
            else:
                wrapped = tr.wrap(qual, raw, before, after)
                replaced[id(raw)] = wrapped
            setattr(owner, attr, wrapped)
    # names bound by ``from .module import fn`` elsewhere in the package
    for mod in every_module:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    verify = mods["verify"]
    verify.ALL_CHECKS = tuple((t, replaced.get(id(fn), fn)) for t, fn in verify.ALL_CHECKS)
    return tr


def gauges() -> dict:
    """End-of-run state of the engine cache and the envelope memos."""
    from bregmanprox import proxenv
    engines = list(proxenv._ENGINES.values())
    return {"engines_live": len(engines),
            "env_memo_entries": sum(len(e._env_memo) for e in engines)}


def per_layer(summaries: list[dict]) -> dict:
    """Per-layer metrics from the summaries of one or more traced processes."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    module_self: dict[str, float] = {}
    counters: dict[str, int] = {}
    grid_self, env_solves = 0.0, 0
    live = memo = 0
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["total"].items():
            total[k] = total.get(k, 0.0) + v
        for k, v in s["module_self"].items():
            module_self[k] = module_self.get(k, 0.0) + v
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
        grid_self += s["grid_minimize_self"]
        env_solves += s["env_solves"]
        live = max(live, s["gauges"]["engines_live"])
        memo = max(memo, s["gauges"]["env_memo_entries"])

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    out = {
        "numerics.grid_minimize.calls": (n("numerics.grid_minimize"), "count"),
        "numerics.golden_section.calls": (n("numerics.golden_section"), "count"),
        "numerics.refine_evals": (counters.get("refine_evals", 0), "count"),
        "numerics.grid_evals": (counters.get("grid_evals", 0), "count"),
        "numerics.grid_minimize.self_s": (grid_self, "s"),
        "numerics.lower_convex_envelope.s": (t("numerics.lower_convex_envelope"), "s"),
        "extreal.ExtReal.new": (n("extreal.ExtReal.__new__"), "count"),
        "catalog.ProperFn.eval.calls": (n("catalog.ProperFn.eval"), "count"),
        "kernels.Kernel.eval.calls": (n("kernels.Kernel.eval"), "count"),
        "kernels.Kernel.grad.calls": (n("kernels.Kernel.grad"), "count"),
        "catalog.ProperFn.eval_many.points": (counters.get("proper_eval_many_points", 0),
                                              "count"),
        "kernels.Kernel.eval_many.points": (counters.get("kernel_eval_many_points", 0),
                                            "count"),
        "catalog.self_s": (module_self.get("catalog", 0.0), "s"),
        "kernels.self_s": (module_self.get("kernels", 0.0), "s"),
        "proxenv.prox.calls": (n("proxenv.InstanceEngine.prox"), "count"),
        "proxenv.env.calls": (n("proxenv.InstanceEngine.env"), "count"),
        "proxenv.env.solves": (env_solves, "count"),
        "proxenv.right_prox.calls": (n("proxenv.InstanceEngine.right_prox"), "count"),
        "proxenv.self_s": (module_self.get("proxenv", 0.0), "s"),
        "proxenv.range_probe.calls": (n("proxenv.range_probe"), "count"),
        "proxenv.range_probe.s": (t("proxenv.range_probe"), "s"),
        "proxenv.prox_hull.calls": (n("proxenv.prox_hull"), "count"),
        "proxenv.prox_hull.s": (t("proxenv.prox_hull"), "s"),
        "proxenv.env_memo.entries": (memo, "count"),
        "proxenv.env_coarse.s": (t("proxenv.InstanceEngine.env_coarse"), "s"),
        "proxenv.hull_curve.s": (t("proxenv.InstanceEngine.hull_curve"), "s"),
        "proxenv.engine_init.calls": (n("proxenv.InstanceEngine.__init__"), "count"),
        "proxenv.engine_init.s": (t("proxenv.InstanceEngine.__init__"), "s"),
        "proxenv.threshold_scan.s": (t("proxenv.threshold_scan"), "s"),
        "proxenv.engines.live": (live, "count"),
        "proxenv.crosscheck.s": (t("proxenv.euclid_crosscheck",
                                   "proxenv.env_conjugate_crosscheck"), "s"),
        "subdiff.hull.calls": (n("subdiff.left_lpsubdiff_hull"), "count"),
        "subdiff.hull.s": (t("subdiff.left_lpsubdiff_hull"), "s"),
        "subdiff.definitional.calls": (n("subdiff.left_lpsubdiff_definitional")
                                       + n("subdiff.right_lpsubdiff_definitional"), "count"),
        "subdiff.definitional.s": (t("subdiff.left_lpsubdiff_definitional",
                                     "subdiff.right_lpsubdiff_definitional"), "s"),
        "subdiff.self_s": (module_self.get("subdiff", 0.0), "s"),
    }
    for fn, theorem in THEOREMS.items():
        out[f"verify.{theorem}.s"] = (t(f"verify.{fn}"), "s")
    out["verify.self_s"] = (module_self.get("verify", 0.0), "s")
    out["cli.curve.rows"] = (counters.get("curve_rows", 0), "count")
    out["cli.self_s"] = (module_self.get("cli", 0.0), "s")
    return out
