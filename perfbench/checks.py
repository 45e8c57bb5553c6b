"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``bregmanprox``. Kernels, test functions, closed forms
and the brute-force references below are written out again from the paper's
definitions, so a check never compares the program against itself. Every
checker returns ``None`` when the answer is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import math
import re

import numpy as np

# ---------------------------------------------------------------------------
# Kernels and test functions (closed forms)
# ---------------------------------------------------------------------------


class Kern:
    """kappa, its gradient and the gradient of its conjugate, plus domain facts."""

    def __init__(self, name, lo, hi, lo_closed, hi_closed, ev, grad, grad_conj,
                 one_coercive=True):
        self.name, self.lo, self.hi = name, lo, hi
        self.lo_closed, self.hi_closed = lo_closed, hi_closed
        self.ev, self.grad, self.grad_conj = ev, grad, grad_conj
        self.one_coercive = one_coercive

    @property
    def full_line(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    def interior(self, x: float) -> bool:
        return self.lo < x < self.hi

    def dist(self, x, y):
        """Bregman distance D(x, y) for interior y, vectorized in x."""
        return self.ev(x) - self.ev(y) - self.grad(y) * (np.asarray(x, dtype=float) - y)


def _sqrt1m(x):
    return np.sqrt(np.maximum(1.0 - np.square(x), 0.0))


def _hell_ev(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, -_sqrt1m(x), np.inf)


def _shannon_ev(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        v = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), np.inf)
    return np.where(x == 0.0, 0.0, v)


def _burg_ev(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return np.where(x > 0, -np.log(np.where(x > 0, x, 1.0)), np.inf)


INF = math.inf
KERNELS = {
    "energy": Kern("energy", -INF, INF, False, False,
                   lambda x: 0.5 * np.square(x), lambda x: x, lambda e: e),
    "hellinger": Kern("hellinger", -1.0, 1.0, True, True, _hell_ev,
                      lambda x: x / math.sqrt(1.0 - x * x),
                      lambda e: e / math.sqrt(1.0 + e * e)),
    "quartic": Kern("quartic", -INF, INF, False, False,
                    lambda x: 0.25 * np.power(x, 4), lambda x: x ** 3,
                    lambda e: math.copysign(abs(e) ** (1.0 / 3.0), e)),
    "cubic_abs": Kern("cubic_abs", -INF, INF, False, False,
                      lambda x: np.power(np.abs(x), 3) / 3.0, lambda x: x * abs(x),
                      lambda e: math.copysign(math.sqrt(abs(e)), e)),
    "shannon": Kern("shannon", 0.0, INF, True, False, _shannon_ev,
                    lambda x: 1.0 + math.log(x), lambda e: math.exp(e - 1.0)),
    "burg": Kern("burg", 0.0, INF, False, False, _burg_ev,
                 lambda x: -1.0 / x, lambda e: -1.0 / e, one_coercive=False),
}


def _on(lo, hi, formula):
    def ev(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        with np.errstate(all="ignore"):
            return np.where(inside, formula(np.clip(x, lo, hi)), np.inf)
    return ev


class Inst:
    """A (kernel, f, lambda) triple with the window its grids live on."""

    def __init__(self, name, kernel, f, lam, window):
        self.name, self.kernel, self.f, self.lam = name, KERNELS[kernel], f, lam
        self.window = window

    def objective(self, x, y):
        """f(x) + D(x, y)/lam, the left proximal subproblem at interior y."""
        return self.f(x) + self.kernel.dist(x, y) / self.lam


INSTANCES = {
    "ex310": Inst("ex310", "hellinger", _on(-1.0, 1.0, lambda x: x * _sqrt1m(x)), 1.0,
                  (-1.0, 1.0)),
    "ex411": Inst("ex411", "hellinger",
                  _on(0.0, 1.0, lambda x: np.sqrt(np.maximum(x * (1.0 - x), 0.0))), 2.0,
                  (-1.0, 1.0)),
    "ex_ln": Inst("ex_ln", "burg", _on(1e-300, INF, np.log), 0.5, (0.0, 12.0)),
    "ex419": Inst("ex419", "quartic",
                  lambda x: 0.25 * np.power(np.asarray(x, dtype=float) - 1.0, 4)
                  - 0.25 * np.power(x, 4), 1.0, (-8.0, 8.0)),
    "ex420": Inst("ex420", "cubic_abs", lambda x: np.asarray(x, dtype=float), 1.0,
                  (-8.0, 8.0)),
    "euclid_abs": Inst("euclid_abs", "energy", np.abs, 1.0, (-8.0, 8.0)),
    "euclid_zero": Inst("euclid_zero", "energy", lambda x: np.zeros_like(x, dtype=float),
                        1.0, (-8.0, 8.0)),
    "euclid_sq": Inst("euclid_sq", "energy", np.square, 1.0, (-8.0, 8.0)),
    "euclid_abs_strong": Inst("euclid_abs_strong", "energy",
                              lambda x: np.abs(x) + 0.5 * np.square(x), 1.0, (-8.0, 8.0)),
    "shannon_abs": Inst("shannon_abs", "shannon", _on(0.0, INF, lambda x: np.abs(x - 1.0)),
                        1.0, (0.0, 12.0)),
    "hell_halfk": Inst("hell_halfk", "hellinger", _on(-1.0, 1.0, lambda x: 0.5 * _sqrt1m(x)),
                       1.0, (-1.0, 1.0)),
    "bsmooth_counter": Inst("bsmooth_counter", "hellinger",
                            _on(-1.0, 1.0, lambda x: np.where(np.abs(x) < 1.0, _sqrt1m(x),
                                                              -1.0)), 1.0, (-1.0, 1.0)),
    "burg_linear": Inst("burg_linear", "burg", lambda x: np.asarray(x, dtype=float), 1.0,
                        (0.0, 12.0)),
}


def scaled(inst: Inst, b: float) -> Inst:
    """(f, lam) -> (b f, lam / b): the same prox set, the envelope times b."""
    f = inst.f
    return Inst(f"{inst.name}_x{b:g}", inst.kernel.name, lambda x: b * f(x), inst.lam / b,
                inst.window)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def soft(y: float) -> float:
    return math.copysign(max(abs(y) - 1.0, 0.0), y)


def huber(y: float) -> float:
    return 0.5 * y * y if abs(y) <= 1.0 else abs(y) - 0.5


def ex310_deriv(x: float) -> float:
    return (1.0 - 2.0 * x * x) / math.sqrt(1.0 - x * x)


def ex420_h(xi: float) -> float:
    return (2.0 / 3.0) * abs(xi) ** 1.5 - (2.0 / 3.0) * abs(xi - 1.0) ** 1.5


def _sgn_sqrt(v: float) -> float:
    return math.copysign(math.sqrt(abs(v)), v)


# prox(y) and env(y) where a closed form exists. ex419: lam f + kappa is
# (x - 1)^4 / 4, so the optimality condition (x - 1)^3 = y^3 gives x = y + 1
# and env(y) = -y^3. ex420: 1 + x|x| = y|y| gives x = grad kappa*(y|y| - 1).
PROX_CLOSED = {
    "euclid_abs": soft,
    "euclid_sq": lambda y: y / 3.0,
    "ex419": lambda y: y + 1.0,
    "ex420": lambda y: _sgn_sqrt(y * abs(y) - 1.0),
}
ENV_CLOSED = {
    "euclid_abs": huber,
    "euclid_sq": lambda y: y * y / 3.0,
    "ex419": lambda y: -y ** 3,
    "ex420": lambda y: ex420_h(y * abs(y)),
}
# h(xi) = env(grad kappa*(xi)), the dual envelope.
H_CLOSED = {
    "euclid_abs": huber,
    "euclid_sq": lambda xi: xi * xi / 3.0,
    "ex419": lambda xi: -xi,
    "ex420": ex420_h,
}
# The left level proximal subdifferential where f is convex and smooth or
# |x| (energy kernel), and ex310's classification: f'(x) on (-1, 0), empty
# on (0, 1).
SUBDIFF_CLOSED = {
    "euclid_abs": lambda x: (math.copysign(1.0, x),) * 2 if x != 0 else (-1.0, 1.0),
    "euclid_sq": lambda x: (2.0 * x,) * 2,
    "ex419": lambda x: ((x - 1.0) ** 3 - x ** 3,) * 2,
    "ex420": lambda x: (1.0, 1.0),
    "ex310": lambda x: (ex310_deriv(x),) * 2 if x < 0 else None,
}
# Instances where lam f + kappa is convex: the proximal hull is f itself.
HULL_IS_F = {"euclid_abs", "euclid_sq", "ex419", "ex420"}


# ---------------------------------------------------------------------------
# Brute-force references on grids of their own
# ---------------------------------------------------------------------------

_BRUTE_N = 20001


def _grid(inst: Inst, n: int = _BRUTE_N) -> np.ndarray:
    k = inst.kernel
    lo, hi = max(inst.window[0], k.lo), min(inst.window[1], k.hi)
    span = hi - lo
    if not k.lo_closed and lo == k.lo:
        lo += 1e-9 * span
    if not k.hi_closed and hi == k.hi:
        hi -= 1e-9 * span
    return np.linspace(lo, hi, n)


def brute_env(inst: Inst, y: float) -> float:
    """min over a dense grid of f(x) + D(x, y)/lam: an upper bound on env(y)."""
    xs = _grid(inst)
    with np.errstate(all="ignore"):
        vals = inst.objective(xs, y)
    vals = np.where(np.isnan(vals), np.inf, vals)
    return float(vals.min())


class Hull:
    """Lower convex envelope of lam f + kappa on a dense grid, as a function."""

    def __init__(self, inst: Inst, n: int = _BRUTE_N):
        xs = _grid(inst, n)
        with np.errstate(all="ignore"):
            phi = inst.lam * inst.f(xs) + inst.kernel.ev(xs)
        keep = np.isfinite(phi)
        px, pv = xs[keep].tolist(), phi[keep].tolist()
        hx: list[float] = []
        hv: list[float] = []
        for x, v in zip(px, pv):
            while len(hx) >= 2 and ((hx[-1] - hx[-2]) * (v - hv[-2])
                                    - (x - hx[-2]) * (hv[-1] - hv[-2])) <= 0.0:
                hx.pop()
                hv.pop()
            hx.append(x)
            hv.append(v)
        self.inst, self.xs, self.vs = inst, np.array(hx), np.array(hv)

    def __call__(self, x: float) -> float:
        if x < self.xs[0] or x > self.xs[-1]:
            return math.inf
        conv = float(np.interp(x, self.xs, self.vs))
        return (conv - float(self.inst.kernel.ev(x))) / self.inst.lam


_HULLS: dict[str, Hull] = {}


def hull_of(inst: Inst) -> Hull:
    if inst.name not in _HULLS:
        _HULLS[inst.name] = Hull(inst)
    return _HULLS[inst.name]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * (1.0 + abs(b))


def _same_minimizer(inst: Inst, y: float, m: float, exact: float) -> bool:
    """m is the exact minimizer, or as good at float resolution.

    Where the objective is very flat (ex419 near y = 0 is (x - 1)^4 / 4) the
    minimizer is only determined to about eps^(1/4) in x.
    """
    if abs(m - exact) <= 1e-5:
        return True
    v_exact = float(inst.objective(exact, y))
    return float(inst.objective(m, y)) <= v_exact + 1e-13 * (1.0 + abs(v_exact))


def check_prox_set(inst: Inst, y: float, minimizers, value: float,
                   expected=None) -> str | None:
    """A left prox answer at y: the minimizer set, and the envelope value.

    Every minimizer must attain the value; the value must not exceed f(y) nor
    the dense-grid minimum; ``expected`` (when given) is the exact set.
    """
    ms = sorted(float(m) for m in minimizers)
    if not ms:
        return f"{inst.name} prox({y:.6g}): empty minimizer set"
    if expected is not None:
        exp = sorted(expected)
        if len(ms) != len(exp) or not all(_same_minimizer(inst, y, a, b)
                                          for a, b in zip(ms, exp)):
            return f"{inst.name} prox({y:.6g}) = {ms}, expected {exp}"
    for m in ms:
        v = float(inst.objective(m, y))
        if not _close(v, value, 1e-8):
            return f"{inst.name} prox({y:.6g}): objective {v:.12g} at {m:.9g} != value {value:.12g}"
    return check_env_value(inst, y, value)


def check_env_value(inst: Inst, y: float, value: float, closed=None) -> str | None:
    fy = float(inst.f(y))
    if value > fy + 1e-9 * (1.0 + abs(fy)):
        return f"{inst.name} env({y:.6g}) = {value:.12g} exceeds f(y) = {fy:.12g}"
    ref = brute_env(inst, y)
    # 1e-7: golden section stops ~1e-16 in x short of a boundary minimizer,
    # which costs ~1e-8 in value where f has a square-root edge (ex411 at 0)
    if value > ref + 1e-7 * (1.0 + abs(ref)):
        return f"{inst.name} env({y:.6g}) = {value:.12g} above the grid minimum {ref:.12g}"
    if value < ref - 1e-4 * (1.0 + abs(ref)):
        return f"{inst.name} env({y:.6g}) = {value:.12g} far below the grid minimum {ref:.12g}"
    if closed is not None and not _close(value, closed, 1e-7):
        return f"{inst.name} env({y:.6g}) = {value:.12g}, closed form {closed:.12g}"
    return None


def check_hull_value(inst: Inst, x: float, value: float, tol: float = 1e-5) -> str | None:
    """A proximal-hull value at x: equal to the geometric hull, at most f(x)."""
    fx = float(inst.f(x))
    if value > fx + 1e-7 * (1.0 + abs(fx)):
        return f"{inst.name} hull({x:.6g}) = {value:.12g} exceeds f = {fx:.12g}"
    ref = fx if inst.name in HULL_IS_F else hull_of(inst)(x)
    if not _close(value, ref, tol):
        return f"{inst.name} hull({x:.6g}) = {value:.12g}, geometric hull {ref:.12g}"
    return None


def check_subdiff(inst: Inst, x: float, lo: float, hi: float, empty: bool,
                  tol: float = 1e-4) -> str | None:
    exp = SUBDIFF_CLOSED[inst.name](x)
    if exp is None:
        return None if empty else f"{inst.name} subdiff({x:.6g}) = [{lo}, {hi}], expected empty"
    if empty:
        return f"{inst.name} subdiff({x:.6g}) empty, expected [{exp[0]:.9g}, {exp[1]:.9g}]"
    if not (_close(lo, exp[0], tol) and _close(hi, exp[1], tol)):
        return f"{inst.name} subdiff({x:.6g}) = [{lo:.9g}, {hi:.9g}], expected [{exp[0]:.9g}, {exp[1]:.9g}]"
    return None


def check_membership(inst: Inst, x: float, u: float, member: bool) -> str | None:
    exp = SUBDIFF_CLOSED[inst.name](x)
    want = exp is not None and exp[0] - 1e-6 <= u <= exp[1] + 1e-6
    if member != want:
        return f"{inst.name} u = {u:.9g} at x = {x:.6g}: member {member}, expected {want}"
    return None


def check_single_valued(inst: Inst, x: float, empty: bool, single) -> str | None:
    exp = SUBDIFF_CLOSED[inst.name](x)
    if exp is None:
        return None if empty else f"{inst.name} at {x:.6g}: nonempty, expected empty"
    want = exp[1] - exp[0] <= 1e-9
    if empty or single != want:
        return f"{inst.name} at {x:.6g}: empty={empty} single={single}, expected single={want}"
    return None


# Cross-check gaps. The Euclidean one is a Hausdorff distance between two
# computed minimizer sets, each only as exact as _same_minimizer asks (1e-5;
# ex419 near y = 0 is quartic-flat and read 1.7e-6); the conjugate one is a
# difference of envelope values.
EUCLID_GAP_TOL = 1e-5
CONJUGATE_GAP_TOL = 1e-8


def check_gap(label: str, gap: float, tol: float) -> str | None:
    if not (math.isfinite(gap) and 0.0 <= gap <= tol):
        return f"{label}: gap {gap:.3e} outside [0, {tol:g}]"
    return None


# ---------------------------------------------------------------------------
# The theorem harness (suite workload)
# ---------------------------------------------------------------------------

# Instances whose f is nonconvex in the paper's examples, and the inverse.
PAPER_CONVEXITY = {"ex419": (False, True), "ex420": (True, False)}  # (f, h) convex
RANGE_FAILS = ("ex310", "ex411")
CHECKS = ("weak-convexity", "dfne", "env-convexity", "bcoco", "bsmooth",
          "two-sided", "strong-convexity")


def check_report(inst_name: str, theorem: str, rep: dict) -> str | None:
    """One harness report (as a plain dict, the shape of the JSON output)."""
    tag = f"{inst_name}/{theorem}"
    kern = INSTANCES[inst_name].kernel
    status = rep["status"]
    if not kern.one_coercive and status != "hypotheses-unmet":
        return f"{tag}: {kern.name} is not 1-coercive, yet status {status}"
    if theorem == "bcoco" and kern.one_coercive:
        want_run = kern.full_line
        if want_run == (status == "hypotheses-unmet"):
            return f"{tag}: status {status} with full-line domain {kern.full_line}"
    if theorem == "dfne" and inst_name in RANGE_FAILS and status != "range-assumption-failed":
        return f"{tag}: status {status}, the range assumption fails here"
    held = {c["label"]: bool(c["holds"]) for c in rep["conditions"]}
    for imp in rep["implications"]:
        if not imp["asserted"]:
            continue
        if imp["holds"] is False:
            return f"{tag}: violated {' & '.join(imp['premises'])} => {imp['conclusion']}"
        prem = [held.get(p) for p in imp["premises"]]
        concl = held.get(imp["conclusion"])
        if concl is not None and all(p is not None for p in prem):
            if all(prem) and not concl:
                return f"{tag}: conditions give {' & '.join(imp['premises'])} true, " \
                       f"{imp['conclusion']} false, yet the implication is reported held"
    if theorem == "two-sided" and inst_name in PAPER_CONVEXITY:
        want_f, want_h = PAPER_CONVEXITY[inst_name]
        if held.get("f-convex") != want_f or held.get("h-convex") != want_h:
            return f"{tag}: f-convex={held.get('f-convex')} h-convex={held.get('h-convex')}, " \
                   f"expected {want_f}, {want_h}"
    return None


# ---------------------------------------------------------------------------
# CLI output (cold workload)
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def check_curve(inst_name: str, text: str, n_rows: int) -> str | None:
    """Every column of a ``curve`` dump against closed forms or references."""
    inst = INSTANCES[inst_name]
    k = inst.kernel
    header, rows = parse_csv(text)
    if len(rows) != n_rows:
        return f"curve {inst_name}: {len(rows)} rows, expected {n_rows}"
    for row in rows:
        r = dict(zip(header, row))
        x = r["x"]
        if "f" in r and not _close(r["f"], float(inst.f(x)), 1e-12):
            return f"curve {inst_name}: f({x}) = {r['f']}"
        if "env" in r and k.interior(x):
            err = check_env_value(inst, x, r["env"], closed=(
                ENV_CLOSED[inst_name](x) if inst_name in ENV_CLOSED else None))
            if err:
                return "curve " + err
        if "prox" in r and k.interior(x):
            if inst_name == "ex411":
                if min(abs(r["prox"]), abs(r["prox"] - 1.0)) > 1e-5:
                    return f"curve ex411: prox({x}) = {r['prox']} not in {{0, 1}}"
            elif inst_name in PROX_CLOSED:
                if not _same_minimizer(inst, x, r["prox"], PROX_CLOSED[inst_name](x)):
                    return f"curve {inst_name}: prox({x}) = {r['prox']}"
            if "env" in r:
                v = float(inst.objective(r["prox"], x))
                if not _close(v, r["env"], 1e-8):
                    return f"curve {inst_name}: prox({x}) does not attain env"
        if "hull" in r:
            err = check_hull_value(inst, x, r["hull"])
            if err:
                return "curve " + err
        # within 0.01 of 0 the kink of |x| and the tangency of ex310's hull
        # (gap x^2/2 below the program's 1e-6 contact tolerance) are not
        # resolved at grid resolution; 3.10 is reproduced on a 0.01 grid too
        if "subdiff-lo" in r and abs(x) >= 0.01 and k.interior(x) and inst_name in SUBDIFF_CLOSED:
            lo, hi = r["subdiff-lo"], r.get("subdiff-hi", r["subdiff-lo"])
            err = check_subdiff(inst, x, lo, hi, math.isnan(lo))
            if err:
                return "curve " + err
        if "h_lambda" in r:
            if inst_name in H_CLOSED:
                want = H_CLOSED[inst_name](x)
                if not _close(r["h_lambda"], want, 1e-6):
                    return f"curve {inst_name}: h({x}) = {r['h_lambda']}, closed form {want}"
            else:
                err = check_env_value(inst, k.grad_conj(x), r["h_lambda"])
                if err:
                    return "curve h_lambda " + err
    return None


def check_reproduce(example: str, code: int, text: str) -> str | None:
    lines = [ln for ln in text.splitlines() if ln.startswith("[")]
    if code != 0 or not lines or any(not ln.startswith("[PASS]") for ln in lines):
        return f"reproduce {example}: exit {code}, {text.strip()[:200]!r}"
    if example == "ln":
        m = re.search(r"bracket \[([-+0-9.eE]+), ([-+0-9.eE]+)\]", text)
        if not m or not float(m.group(1)) <= 1.0 <= float(m.group(2)):
            return f"reproduce ln: threshold bracket does not contain 1: {text.strip()!r}"
    if example == "4.11":
        m = re.search(r"outputs \[([^\]]*)\]", text)
        outs = [float(t) for t in m.group(1).split(",")] if m else []
        near = [min(abs(o), abs(o - 1.0)) <= 1e-4 for o in outs]
        if not (outs and all(near) and any(abs(o) <= 1e-4 for o in outs)
                and any(abs(o - 1.0) <= 1e-4 for o in outs)):
            return f"reproduce 4.11: prox outputs {outs} are not {{0, 1}}"
    if example == "3.10":
        if len(re.findall(r": 0 failures", text)) != 2:
            return f"reproduce 3.10: failures reported: {text.strip()!r}"
    return None
