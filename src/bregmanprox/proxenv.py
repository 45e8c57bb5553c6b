"""Left/right Bregman proximal maps, Moreau envelopes, the proximal hull,
prox-boundedness scanning, and the two Euclidean/conjugate cross-check routes.

An ``InstanceEngine`` caches per-instance grids and sample arrays (function
values, kernel values, kernel gradients). Prox and envelope queries are
solved in blocks of rows, one ybar per row: each block is one vectorized
objective build plus one batched bracket refinement, with at least
``ZOOM_POINTS`` (17) rows and otherwise at most ``BLOCK_SAMPLES`` (2**15)
grid samples, and a row gets the same bits in a block as alone
(``prox_many``, ``env_many``; ``prox`` and ``env`` are one-row calls). Every
objective is one array function of x, used for the grid samples and for the
refinement alike. Envelope values are memoized per engine (``env_many``
reads and fills the memo), and the envelope is additionally cached on the
interior grid, since the proximal hull is a supremum of envelope evaluations.
"""

from __future__ import annotations

import dataclasses
import math
import os
import weakref
import zlib
from dataclasses import dataclass

import numpy as np

from .catalog import Instance, ProperFn
from .errors import (AllInfiniteError, AllUnboundedError, HypothesesUnmetError,
                     OutsideInteriorError, UnboundedBelowError)
from .extreal import ExtReal, Interval
from .kernels import Kernel
from .numerics import (DEFAULT_GRID_N, DEFAULT_UNBOUNDED_CAP, ZOOM_POINTS,
                       GridMin, build_grid, grid_conjugate, grid_minimize,
                       lower_convex_envelope, refine_best, sample_inset)

__all__ = [
    "ProxResult", "InstanceEngine", "engine",
    "left_prox", "right_prox", "left_env", "right_env", "prox_hull",
    "threshold_scan", "detect_unbounded", "range_probe", "range_assumption",
    "require_hypotheses", "euclid_crosscheck", "env_conjugate_crosscheck",
    "hull_function", "hull_instance",
]

INTERIOR_MARGIN = 1e-9
RANGE_PROBE_N = 250  # sampled ybar per instance for the range assumption
# Grid samples per solved block of queries (rows x grid points), above the
# floor of ZOOM_POINTS rows that keeps a prox_hull refinement round in one block.
BLOCK_SAMPLES = 2 ** 15


@dataclass(frozen=True)
class ProxResult:
    """Minimizer set of one proximal subproblem plus the envelope value."""

    minimizers: tuple[float, ...]
    value: ExtReal
    in_interior: tuple[bool, ...]
    clusters: tuple

    @property
    def multiple(self) -> bool:
        return len(self.minimizers) > 1


def _grid_n() -> int:
    return int(os.environ.get("BREGMAN_GRID_N", DEFAULT_GRID_N))


class InstanceEngine:
    """Cached grids and sample arrays for one (kernel, fn, lambda) instance."""

    def __init__(self, inst: Instance, grid_n: int | None = None):
        self.kernel = inst.kernel
        self.fn = inst.fn
        self.lam = inst.lam
        self.grid_n = n = grid_n or _grid_n()
        dom = self.kernel.domain
        self.x_grid = build_grid(dom, n, window=self.fn.window)
        self.X = self.x_grid.points
        self.F = self.fn.eval_many(self.X)
        self.K = self.kernel.eval_many(self.X)
        interior = Interval(dom.lo, dom.hi, False, False)
        self.y_grid = build_grid(interior, n, window=self.fn.window)
        self.Y = self.y_grid.points
        self.KY = self.kernel.eval_many(self.Y)
        self.GY = self.kernel.grad_many(self.Y)
        self._env_coarse: np.ndarray | None = None
        self._hull_curve = None
        self._contact_mask: np.ndarray | None = None
        self._env_memo: dict[float, float] = {}
        self._range_fact: tuple[bool, tuple] | None = None

    # -- sample access ----------------------------------------------------

    def fk(self, x):
        """(f, kappa) at x, read from the grid caches when x is the x grid."""
        if x is self.X:
            return self.F, self.K
        return self.fn.eval_many(x), self.kernel.eval_many(x)

    def kg(self, y):
        """(kappa, grad kappa) at interior y, cached when y is the y grid."""
        if y is self.Y:
            return self.KY, self.GY
        return self.kernel.eval_many(y), self.kernel.grad_many(y)

    def tilted(self, x):
        """(lam f + kappa)(x), vectorized."""
        fx, kx = self.fk(x)
        return self.lam * fx + kx

    # -- left objective ----------------------------------------------------

    def _left_rows(self, ys):
        """f + D(., y)/lam for a block of ybar rows: the array function
        ``phi(x, rows)`` and its samples on the x grid, one row per ybar."""
        ys = np.asarray(ys, dtype=float)
        ky, gy = self.kg(ys)

        def phi(x, rows):
            # in place, so a block of rows holds two (rows x points) arrays
            fx, kx = self.fk(x)
            lin = x - ys[rows]
            lin *= gy[rows]
            out = kx - ky[rows]
            out -= lin
            out /= self.lam
            out += fx
            return out

        return phi, phi(self.X, np.arange(ys.size)[:, None])

    def _solve(self, ys) -> list[GridMin]:
        """The left subproblem at each interior ybar, solved in blocks of
        ``max(ZOOM_POINTS, BLOCK_SAMPLES // grid_n)`` rows."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        step = max(ZOOM_POINTS, BLOCK_SAMPLES // self.grid_n)
        out: list[GridMin] = []
        for i in range(0, ys.size, step):
            block = ys[i:i + step]
            try:
                out += self._solve_block(block)
            except (OutsideInteriorError, AllInfiniteError, UnboundedBelowError):
                # a failing row fails alone too: raise what the first failing
                # row raises, as a loop of single queries would
                for j in range(block.size - 1):
                    self._solve_block(block[j:j + 1])
                raise
        return out

    def _solve_block(self, ys: np.ndarray) -> list[GridMin]:
        for y in ys.tolist():
            self.check_interior(y)
        phi, vals = self._left_rows(ys)
        return grid_minimize(phi, self.x_grid, values=vals)

    def left_values(self, ybar: float) -> np.ndarray:
        """f + D(., ybar)/lam sampled on the x grid (vectorized)."""
        self.check_interior(ybar)
        return self._left_rows([ybar])[1][0]

    def check_interior(self, ybar: float):
        if not self.kernel.domain.interior_contains(float(ybar)):
            raise OutsideInteriorError(
                f"{ybar} not interior to dom {self.kernel.name}")

    def prox(self, ybar: float) -> ProxResult:
        return self.prox_many([ybar])[0]

    def prox_many(self, ys) -> list[ProxResult]:
        """``prox`` at each interior ybar of ``ys``, solved in blocks of rows."""
        return [self._to_result(gm) for gm in self._solve(ys)]

    def _to_result(self, gm: GridMin) -> ProxResult:
        interior = tuple(self.kernel.domain.interior_contains(m, INTERIOR_MARGIN)
                         for m in gm.minimizers)
        return ProxResult(tuple(gm.minimizers), ExtReal(gm.value), interior, gm.clusters)

    def env(self, ybar: float) -> float:
        """Envelope at one ybar (see ``env_many``)."""
        return float(self.env_many([ybar])[0])

    def env_many(self, ys) -> np.ndarray:
        """Envelope at each interior ybar of ``ys``, memoized.

        Values in the memo are read first; the other points are solved once
        each, in blocks of rows, and stored. The memo is emptied whenever
        storing them would take it past ``grid_n`` values.
        """
        keys = np.atleast_1d(np.asarray(ys, dtype=float)).tolist()
        memo = self._env_memo
        out = [memo.get(y) for y in keys]
        miss = list(dict.fromkeys(y for y, v in zip(keys, out) if v is None))
        if miss:
            solved = dict(zip(miss, (gm.value for gm in self._solve(miss))))
            out = [solved[y] if v is None else v for y, v in zip(keys, out)]
            if len(memo) + len(solved) > self.grid_n:
                memo.clear()
            memo.update(list(solved.items())[:self.grid_n])
        return np.array(out, dtype=float)

    # -- envelope cache on the interior grid --------------------------------

    def env_coarse(self) -> np.ndarray:
        """Grid-resolution envelope on the interior grid (no refinement)."""
        if self._env_coarse is None:
            # objective matrix: rows ybar in Y, columns x in X
            vals = self._left_rows(self.Y)[1]
            vals[np.isnan(vals)] = np.inf
            env = vals.min(axis=1)
            if env.min() < -DEFAULT_UNBOUNDED_CAP:
                raise UnboundedBelowError("envelope cache fell below the cap")
            self._env_coarse = env
        return self._env_coarse

    # -- right objective ----------------------------------------------------

    def right_prox(self, xbar: float) -> ProxResult:
        if not self.kernel.domain.contains(float(xbar)):
            raise OutsideInteriorError(f"{xbar} not in dom {self.kernel.name}")
        kx = float(self.kernel.eval(xbar))

        def psi(y):
            ky, gy = self.kg(y)
            return self.fn.eval_many(y) + (kx - ky - gy * (xbar - y)) / self.lam

        return self._to_result(grid_minimize(psi, self.y_grid))

    # -- hull curve of lam*f + kappa -----------------------------------------

    def hull_curve(self):
        """Lower convex envelope of (lam f + kappa) sampled on the x grid."""
        if self._hull_curve is None:
            self._hull_curve = lower_convex_envelope(zip(self.X, self.tilted(self.X)))
        return self._hull_curve

    def hull_contact_mask(self) -> np.ndarray:
        """Grid points where the envelope touches lam f + kappa."""
        if self._contact_mask is None:
            phi = self.tilted(self.X)
            curve = np.asarray(self.hull_curve().value(self.X), dtype=float)
            both = np.isfinite(phi) & np.isfinite(curve)
            gap = np.full_like(phi, np.inf)
            gap[both] = phi[both] - curve[both]
            self._contact_mask = gap <= 1e-8 * (1.0 + np.abs(np.where(both, phi, 0.0)))
        return self._contact_mask

    def hull_fn_value(self, x):
        """Geometric-route proximal hull: (conv(lam f + kappa) - kappa) / lam.

        Inside grid cells where the envelope touches lam f + kappa at both
        ends the hull equals f and is evaluated through f exactly, so the
        piecewise-linear interpolation error never exceeds the single
        transition cell at each tangency.
        """
        shape = np.shape(x)
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        conv = np.asarray(self.hull_curve().value(x1), dtype=float)
        kap = self.kernel.eval_many(x1)
        # only where conv is finite: outside the kernel domain kap is +inf too
        out = np.full_like(conv, np.inf)
        fin = np.isfinite(conv)
        out[fin] = (conv[fin] - kap[fin]) / self.lam
        contact = self.hull_contact_mask()
        j = np.clip(np.searchsorted(self.X, x1), 1, len(self.X) - 1)
        in_contact = contact[j - 1] & contact[j] & np.isfinite(out)
        if in_contact.any():
            out = np.where(in_contact, self.fn.eval_many(x1), out)
        return out.reshape(shape) if shape else float(out[0])


# An engine holds no reference to its instance, so it is dropped with it.
_ENGINES: weakref.WeakKeyDictionary[Instance, InstanceEngine] = weakref.WeakKeyDictionary()


def engine(inst: Instance) -> InstanceEngine:
    """The instance's engine at the current grid size, rebuilt when it changes."""
    n = _grid_n()
    eng = _ENGINES.get(inst)
    if eng is None or eng.grid_n != n:
        eng = _ENGINES[inst] = InstanceEngine(inst, n)
    return eng


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def left_prox(inst: Instance, ybar: float) -> ProxResult:
    """Global minimizers of f(x) + D(x, ybar)/lam over the kernel domain."""
    return engine(inst).prox(ybar)


def left_env(inst: Instance, ybar: float) -> ExtReal:
    """Infimal value of the left proximal subproblem."""
    return ExtReal(engine(inst).env(ybar))


def right_prox(inst: Instance, xbar: float) -> ProxResult:
    """Global minimizers over interior y of g(y) + D(xbar, y)/lam."""
    return engine(inst).right_prox(xbar)


def right_env(inst: Instance, xbar: float) -> ExtReal:
    return right_prox(inst, xbar).value


def prox_hull(inst: Instance, x: float) -> ExtReal:
    """sup over interior y of env(y) - D(x, y)/lam, refined locally.

    This is the definitional route; the geometric route through the lower
    convex envelope of lam f + kappa is ``engine(inst).hull_fn_value``.
    """
    eng = engine(inst)
    if not eng.kernel.domain.contains(float(x)):
        return ExtReal(math.inf)
    kx = float(eng.kernel.eval(x))
    if math.isinf(kx):
        return ExtReal(math.inf)

    def neg_psi(y):
        # the y grid reads the grid-resolution envelope; each refinement
        # round solves its sampled envelopes as one block of rows
        env = eng.env_coarse() if y is eng.Y else eng.env_many(y)
        ky, gy = eng.kg(y)
        return -(env - (kx - ky - gy * (x - y)) / eng.lam)

    return ExtReal(-refine_best(neg_psi, eng.Y, neg_psi(eng.Y))[1])


def hull_function(inst: Instance) -> ProperFn:
    """The proximal hull as a catalog-style function (geometric route)."""
    eng = engine(inst)
    curve = eng.hull_curve()
    dom = Interval(curve.x_min, curve.x_max)
    return ProperFn(f"hull_{inst.name}", dom, eng.hull_fn_value, inst.fn.window,
                    convex=None, pb_threshold=inst.fn.pb_threshold)


def hull_instance(inst: Instance) -> Instance:
    return Instance(f"hull_{inst.name}", inst.kernel, hull_function(inst), inst.lam)


# ---------------------------------------------------------------------------
# Prox-boundedness scanning
# ---------------------------------------------------------------------------

def _tail_points(side: str, interval: Interval, window: tuple[float, float]):
    """Geometric probe sequence toward one non-closed side of ``interval``."""
    wlo, whi = window
    span = max(whi - wlo, 1.0)
    if side == "lo":
        if interval.lo_closed:
            return []
        if math.isinf(interval.lo):
            return [wlo - span * 4.0 ** k for k in range(1, 100)]
        x0 = wlo if wlo > interval.lo else interval.lo + span * 1e-3
        return [interval.lo + (x0 - interval.lo) * 0.01 ** k for k in range(1, 150)]
    if interval.hi_closed:
        return []
    if math.isinf(interval.hi):
        return [whi + span * 4.0 ** k for k in range(1, 100)]
    x0 = whi if whi < interval.hi else interval.hi - span * 1e-3
    return [interval.hi - (interval.hi - x0) * 0.01 ** k for k in range(1, 150)]


def detect_unbounded(kernel: Kernel, fn: ProperFn, lam: float, probe_y: float,
                     cap: float = DEFAULT_UNBOUNDED_CAP) -> bool:
    """True when f + D(., probe_y)/lam is diagnosed unbounded below.

    Fires either on values below ``-cap`` on the working grid, or on a
    monotone divergence along a geometric tail toward an open or unbounded
    side (logarithmic divergences never cross a fixed cap on any float grid,
    so a strictly decreasing tail with macroscopic total drop is the signal).
    """
    # scanning deliberately probes lambdas above any annotated threshold
    probe_fn = dataclasses.replace(fn, pb_threshold=None)
    inst = Instance(f"_scan_{fn.name}_{lam:g}", kernel, probe_fn, lam)
    eng = InstanceEngine(inst, grid_n=513)
    eng.check_interior(probe_y)
    phi, vals = eng._left_rows([probe_y])
    finite = vals[np.isfinite(vals)]
    if finite.size and finite.min() < -cap:
        return True
    for side in ("lo", "hi"):
        ts = np.array(_tail_points(side, kernel.domain, fn.window))
        # far tails overflow; the tail ends at its first non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            tail = phi(ts, 0)
        stop = ~np.isfinite(tail)
        tail = list(tail[:int(np.argmax(stop)) if stop.any() else tail.size])
        if len(tail) >= 8:
            drops = [b < a for a, b in zip(tail, tail[1:])]
            if all(drops) and tail[-1] < tail[0] - 1.0:
                return True
            if tail[-1] < -cap:
                return True
    return False


def _probe_point(kernel: Kernel, fn: ProperFn) -> float:
    grid = build_grid(Interval(kernel.domain.lo, kernel.domain.hi, False, False),
                      n=11, window=fn.window)
    return float(0.5 * (grid.lo + grid.hi))


def threshold_scan(kernel: Kernel, fn: ProperFn,
                   lam_grid: np.ndarray) -> tuple[float, float]:
    """Bracket the prox-boundedness threshold on an ascending lambda grid.

    Returns (last finite lambda, first unbounded lambda); the second entry is
    +inf when every lambda in the grid stays bounded.
    """
    lam_grid = np.sort(np.asarray(lam_grid, dtype=float))
    if lam_grid.size == 0:
        raise ValueError("empty lambda grid")
    probe = _probe_point(kernel, fn)
    last_finite = None
    for lam in lam_grid:
        if detect_unbounded(kernel, fn, float(lam), probe):
            if last_finite is None:
                raise AllUnboundedError(f"unbounded already at lambda={lam}")
            return last_finite, float(lam)
        last_finite = float(lam)
    return last_finite, math.inf


# ---------------------------------------------------------------------------
# Instance hypotheses and the range assumption
# ---------------------------------------------------------------------------

def range_probe(inst: Instance, n: int = 500, seed: int = 0,
                margin: float = INTERIOR_MARGIN):
    """Sample ybar across the interior; check all prox outputs stay interior.

    Returns (ok, witnesses) where witnesses are (ybar, minimizer) pairs that
    landed on or beyond the boundary. Empirically falsifiable, not certifiable.
    """
    eng = engine(inst)
    ys = sample_inset(np.random.default_rng(seed), eng.y_grid.lo, eng.y_grid.hi, n)
    witnesses = []
    for y, res in zip(ys.tolist(), eng.prox_many(ys)):
        for m, ok in zip(res.minimizers, res.in_interior):
            if not ok:
                witnesses.append((y, float(m)))
    return len(witnesses) == 0, witnesses


def require_hypotheses(inst: Instance):
    """Raise ``HypothesesUnmetError`` unless the instance meets the standing
    hypotheses of the theorem checks and of the hull route."""
    k = inst.kernel
    if not k.is_legendre:
        raise HypothesesUnmetError(f"kernel {k.name} is not Legendre")
    if not k.is_one_coercive:
        raise HypothesesUnmetError(f"kernel {k.name} is not 1-coercive")
    if not inst.below_threshold:
        raise HypothesesUnmetError("lambda not below the prox-boundedness threshold")


def range_assumption(inst: Instance) -> tuple[bool, tuple]:
    """(ok, witnesses) of ``range_probe`` at ``RANGE_PROBE_N`` points, run once
    per engine with a seed derived from the instance name alone.
    """
    eng = engine(inst)
    if eng._range_fact is None:
        ok, witnesses = range_probe(inst, n=RANGE_PROBE_N,
                                    seed=zlib.crc32(inst.name.encode()))
        eng._range_fact = (ok, tuple(witnesses))
    return eng._range_fact


# ---------------------------------------------------------------------------
# Identity cross-checks (independent routes)
# ---------------------------------------------------------------------------

def _hausdorff(a, b) -> float:
    a, b = list(a), list(b)
    if not a or not b:
        return math.inf
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


def euclid_crosscheck(inst: Instance, ybar: float, grid_n: int = 3001) -> float:
    """Hausdorff gap between the Bregman prox and its Euclidean representation.

    The right side evaluates the ordinary proximal map of the tilted function
    f + (kappa - j)/lam at grad kappa(ybar) on an independent grid, where j is
    the half square.
    """
    eng = engine(inst)
    eng.check_interior(ybar)
    left = eng.prox(ybar)
    z = eng.kernel.grad(ybar)
    lam = eng.lam
    grid = build_grid(eng.kernel.domain, grid_n, window=eng.fn.window)

    def psi(w):
        shifted = eng.fn.eval_many(w) + (eng.kernel.eval_many(w) - 0.5 * np.square(w)) / lam
        return shifted + 0.5 * np.square(w - z) / lam

    gm = grid_minimize(psi, grid)
    return _hausdorff(left.minimizers, gm.minimizers)


def env_conjugate_crosscheck(inst: Instance, ybar: float) -> float:
    """|lam env(ybar) - kappa*(eta) + (lam f + kappa)*(eta)| at eta = grad kappa(ybar),
    with (lam f + kappa)* by independent grid conjugation on 4001 points."""
    eng = engine(inst)
    eng.check_interior(ybar)
    eta = eng.kernel.grad(ybar)
    lhs = eng.lam * eng.env(ybar)
    grid = build_grid(eng.kernel.domain, 4001, window=eng.fn.window)
    rhs = float(eng.kernel.conj_eval(eta)) - grid_conjugate(eng.tilted, grid, eta)
    return abs(lhs - rhs)
