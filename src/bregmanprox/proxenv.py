"""Left/right Bregman proximal maps, Moreau envelopes, the proximal hull,
prox-boundedness scanning, and the two Euclidean/conjugate cross-check routes.

An ``InstanceEngine`` caches per-instance grids and sample arrays (function
values, kernel values, kernel gradients). A batch of left rows (prox and
envelope queries, one ybar per row, and the slack rows of the left
certificate) is solved in two phases: its rows, sorted by slope, are scanned
on the x grid in blocks that keep only their tie runs (at least
``ZOOM_POINTS`` (17) rows and otherwise at most ``BLOCK_SAMPLES`` (2**15)
grid samples, so a block bounds only the scan's memory), each block of
several rows only on the columns where one of them can tie (a bound from f,
kappa and the rows' slopes that never supplies a value), then every row is
finished in one batch, refined for ``prox`` into the columns of a
``numerics.ProxBatch``, zoomed by value alone for ``env``, and gathered back
to the caller's order. A row gets the same bits in a batch as alone:
``prox`` takes one ybar (a ``ProxResult``) or an array of them (a
``ProxBatch``, whose row i is that ``ProxResult``), ``env`` a float or an
array. Every objective is one array function of x, used for the grid samples
and for the refinement alike, f and kappa in one NaN-rule pass or from the
grid caches (``fk``). Whether a prox minimizer is interior is asked only
where the range assumption is read (``InstanceEngine.interior``, one batched
call each).
Envelope values are memoized per engine (``env`` reads and fills the memo),
and the envelope is additionally cached on the interior grid, since the
proximal hull is a supremum of envelope evaluations; that cache is built in
the same windowed row blocks as queries, in O(N) memory. The supremum is
concave in grad kappa(ybar), so ``prox_hull`` stops its search once its
samples bound it to within rounding, aiming a round at the vertex of a
parabola through its best samples where they share one curvature
(``numerics.concave_sup``).

The engine also keeps the instance's facts (hypotheses and check gates,
convexity of f and of h = env o grad kappa*, the set-valued slopes, the
range assumption, probed on the engine itself), each decided on first use,
so queries never pay for them.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
import zlib
from functools import cached_property

import numpy as np

from .catalog import Instance, ProperFn
from .errors import (AllInfiniteError, AllUnboundedError, GridSizeError,
                     HypothesesUnmetError, OutOfRangeError, OutsideInteriorError,
                     UnboundedBelowError)
from .extreal import Interval
from .kernels import Kernel, _coerce, bregman_distance
from .numerics import (DEFAULT_GRID_N, DEFAULT_TOL_TIE, DEFAULT_UNBOUNDED_CAP, MIN_GRID_N,
                       ZOOM_POINTS, Condition, ProxBatch, ProxResult, build_grid,
                       concave_sup, convexity_condition, grid_conjugate, grid_min_value,
                       grid_minimize, lower_convex_envelope, sample_inset)

__all__ = [
    "ProxResult", "ProxBatch", "InstanceEngine", "engine",
    "left_prox", "right_prox", "left_env", "right_env", "prox_hull",
    "threshold_scan", "detect_unbounded", "range_probe", "prox_escapes",
    "euclid_crosscheck", "env_conjugate_crosscheck",
    "hull_function", "hull_instance",
]

INTERIOR_MARGIN = 1e-9
RANGE_PROBE_N = 250  # sampled ybar per instance for the range assumption
# Grid samples per scanned block of rows (rows x grid points): it bounds only
# the memory of a grid scan, never the refinement, which takes a whole batch.
# Above the floor of ZOOM_POINTS rows a prox_hull round is one block.
BLOCK_SAMPLES = 2 ** 15

# The standing hypotheses of the theorem checks and of the hull route.
STANDING = ("legendre", "one-coercive")
# Each gate by its report key: the fact that decides it, and the skip reason.
_GATES = {
    "legendre": (lambda e: e.kernel.is_legendre, "kernel {} is not Legendre"),
    "one-coercive": (lambda e: e.kernel.is_one_coercive, "kernel {} is not 1-coercive"),
    "whole-line-domain": (lambda e: e.kernel.domain.is_all_reals,
                          "kernel domain is not the whole line"),
    "f-real-valued": (lambda e: np.isfinite(e.F).all(),
                      "f is not real-valued on the kernel domain"),
    "grad-lipschitz": (lambda e: e.kernel.grad_lipschitz is not None,
                       "grad of kernel {} is not globally Lipschitz"),
    "strongly-convex": (lambda e: e.strongly_convex.holds,
                        "lam f + kappa is not L-strongly convex"),
    "range-assumption": (lambda e: e.range_assumption[0], "range assumption failed"),
}


class InstanceEngine:
    """Cached grids, samples and facts for one (kernel, fn, lambda) instance."""

    def __init__(self, inst: Instance, grid_n: int):
        # no reference to the instance, so that an engine cached for it never keeps it alive
        self.name = inst.name
        self.kernel = inst.kernel
        self.fn = inst.fn
        self.lam = inst.lam
        self.grid_n = n = grid_n
        dom = self.kernel.domain
        self.x_grid = build_grid(dom, n, window=self.fn.window)
        self.X = self.x_grid.points
        self.F = self.fn.eval(self.X)
        self.K = self.kernel.eval(self.X)
        self.y_grid = build_grid(dom.interior(), n, window=self.fn.window)
        self.Y = self.y_grid.points
        self.KY = self.kernel.eval(self.Y)
        self.GY = self.kernel.grad(self.Y)
        self._env_coarse: np.ndarray | None = None
        self._hull_curve = None
        self._contact_mask: np.ndarray | None = None
        self._env_memo: dict[float, float] = {}
        self._gates: dict[str, bool] = {}

    # -- sample access ----------------------------------------------------

    def fk(self, x):
        """(f, kappa) at x in one pass of the NaN rule (``kernels._coerce``),
        read from the grid caches when x is the x grid or the y grid."""
        if x is self.X:
            return self.F, self.K
        if x is self.Y:
            return self._fy, self.KY
        return _coerce(x, (self.fn.eval_arr, self.fn.name),
                       (self.kernel.eval_arr, self.kernel.name))

    @cached_property
    def _fy(self) -> np.ndarray:
        return self.fn.eval(self.Y)  # f on the y grid, for the right objectives

    def _fkg(self, y):
        """(f, kappa, grad kappa) at interior y, unchecked as in ``kg``."""
        return *self.fk(y), self.GY if y is self.Y else self.kernel.grad_arr(y)

    def kg(self, y):
        """(kappa, grad kappa) at interior y, cached when y is the y grid.

        Unchecked: y is a ybar checked where it entered the engine, the y
        grid, or a refinement point inside the y grid. The gradient may be
        ``y`` itself (the energy kernel), so callers never write into it.
        """
        if y is self.Y:
            return self.KY, self.GY
        return self.kernel.eval(y), self.kernel.grad_arr(y)

    def tilted(self, x):
        """(lam f + kappa)(x), vectorized; read from the grid cache (read-only)
        when x is the x grid."""
        if x is self.X:
            return self._tilt[0]
        fx, kx = self.fk(x)
        return self.lam * fx + kx

    @cached_property
    def _tilt(self) -> tuple[np.ndarray, float]:
        """lam f + kappa on the x grid, read-only, and the largest finite
        lam |f| + |kappa| there: computed once per engine, with the bits of
        ``tilted`` at any other x."""
        lf = self.lam * self.F
        g, a = lf + self.K, np.abs(lf) + np.abs(self.K)
        g.flags.writeable = False
        return g, float(np.max(a, where=np.isfinite(a), initial=0.0))

    # -- left objective ----------------------------------------------------

    def _left_rows(self, ys):
        """f + D(., y)/lam for a batch of ybar rows, as the array function
        ``phi(x, rows)``, ``rows`` the row of each point of x (a column for a 2-D x). A block
        is ``phi(cols, rows, buf)`` on a slice ``cols`` of x-grid columns,
        written into ``buf``, a flat scratch array of twice its size. Raises
        ``OutOfRangeError`` naming the first ybar whose kappa(ybar), or tilt
        grad kappa(ybar)(x - ybar) at an end of the x grid, overflows."""
        ys = np.asarray(ys, dtype=float)
        ky, gy = self._left_kappa(ys)

        def phi(x, rows, buf=None):
            block = isinstance(x, slice)
            fx, kx, x = (self.F[x], self.K[x], self.X[x]) if block else (*self.fk(x), x)
            lin, out = (None, None) if buf is None else buf.reshape(2, len(rows), x.size)
            lin = np.subtract(x, ys[rows], out=lin)
            lin *= gy[rows]
            out = np.subtract(kx, ky[rows], out=out)
            out -= lin
            out /= self.lam
            out += fx
            return out

        return phi

    def _left_kappa(self, ys):
        """(kappa, grad kappa) at the interior points ``ys``, for D(., ybar)
        on the x grid (the left rows, the left certificate). Raises
        ``OutOfRangeError`` naming the first point whose kappa, or tilt
        grad kappa(ybar)(x - ybar) at an end of the x grid, overflows."""
        with np.errstate(over="ignore"):
            ky, gy = self.kg(ys)
            self._check_range(ys, [ky, gy * (self.X[0] - ys), gy * (self.X[-1] - ys)], "x")
        return ky, gy

    def _check_range(self, pts, vals, grid: str):
        """Raise ``OutOfRangeError`` naming the first of the points ``pts``
        where one of ``vals`` (kappa there, and the tilt at each end of the
        ``grid`` grid) is not finite: the objective overflows on that grid."""
        ok = np.isfinite(vals).all(axis=0)
        if not ok.all():
            bad = float(np.extract(~ok, pts)[0])
            raise OutOfRangeError(f"{bad} out of range for {self.kernel.name}: "
                                  f"kappa or its tilt overflows on the {grid} grid")

    def _row_blocks(self, n_rows: int):
        """Index columns of ``n_rows`` rows, ``max(ZOOM_POINTS, BLOCK_SAMPLES
        // grid_n)`` rows each: the block rule of every grid scan."""
        step = max(ZOOM_POINTS, BLOCK_SAMPLES // self.grid_n)
        return (np.arange(i, min(i + step, n_rows))[:, None]
                for i in range(0, n_rows, step))

    def _scan(self, phi, n: int, window):
        """(first column, values) of each row block of ``phi`` at its ``n``
        rows: a block of several rows on the columns ``window(rows)`` gives
        it (``_tilt_window``), one row on the whole grid. The blocks share one
        buffer, dropped when the scan ends."""
        buf = np.empty(0)
        for rows in self._row_blocks(n):
            c0, c1 = window(rows[:, 0]) if len(rows) > 1 else (0, self.grid_n)
            size = 2 * len(rows) * (c1 - c0)
            buf = np.empty(size) if buf.size < size else buf
            yield c0, phi(slice(c0, c1), rows, buf[:size])

    def _tilt_window(self, s, row_mag):
        """``window(rows)``: x-grid columns [c0, c1) that hold every tie cell
        of the rows ``rows`` of a batch of left rows with slopes ``s`` and term
        bounds ``row_mag``, or all columns if the bound is not finite.

        Up to a row constant, lam times a left row is G(x) - s x, with
        G = lam f + kappa: s = grad kappa(y) for the prox row f + D(., y)/lam,
        and s = grad kappa(xbar) + lam u for the slack of the certificate of u
        at xbar, f(x) - f(xbar) - u (x - xbar) + D(x, xbar)/lam. For s in
        [s_lo, s_hi] that is at least G(x) - max(s_lo x, s_hi x), with a
        minimum of at most top = min_z G(z) - min(s_lo z, s_hi z): a tie cell
        has G(x) - max(s_lo x, s_hi x) <= top + lam tol.
        Margin, with u = 2**-53 and T = lam|F| + |K| + lam tol + R, R the
        row's terms at x: |kappa(y)| + |s|(|x| + |y|) for a prox row, and
        lam|f(xbar)| + |kappa(xbar)| + (|grad kappa(xbar)| + lam|u|)(|x| + |xbar|)
        for a slack row. A prox row's six roundings leave lam v within 5uT of
        its exact value, and with the rounding of ``vmin + tol`` a tie cell
        meets that inequality within 12uT; a slack row's nine leave it within
        9uT, so 20uT, and the bound reads s rounded twice, which moves s x by
        2uT on each side: 24uT. The bound's own roundings (G, s x,
        differences, sums) add 12uT. ``g_mag + row_mag`` bounds T over a
        block; the margin, 8192u (2**-40) times that, covers 36uT.
        """
        X, lam, tol = self.X, self.lam, DEFAULT_TOL_TIE
        g, g_mag = self._tilt
        g_mag += lam * tol

        def window(rows):
            mag = row_mag[rows].max()
            if not math.isfinite(mag):  # an overflowed bound selects every column
                return 0, X.size
            sx_lo, sx_hi = s[rows].min() * X, s[rows].max() * X
            top = np.min(g - np.minimum(sx_lo, sx_hi))
            lim = top + lam * tol + 2.0 ** -40 * (g_mag + mag)
            if not math.isfinite(lim):
                return 0, X.size
            cols = np.flatnonzero(g - np.maximum(sx_lo, sx_hi) <= lim)
            return int(cols[0]), int(cols[-1]) + 1

        return window

    def _row_bounds(self, pts, k, g, lam_u=0.0, lam_f=0.0):
        """(slopes, term bounds) for ``_tilt_window`` of the left rows at
        ``pts``, kappa ``k`` and grad kappa ``g`` there: prox rows, and the
        certificate's slack rows with ``lam_u`` = lam u, ``lam_f`` = lam f(xbar)."""
        x_mag = max(abs(self.X[0]), abs(self.X[-1]))
        with np.errstate(over="ignore"):  # an overflowed bound selects every column
            return g + lam_u, np.abs(lam_f) + np.abs(k) + (np.abs(g) + np.abs(lam_u)) * (
                x_mag + np.abs(pts))

    def _batch(self, phi, n: int, bounds, finish):
        """``finish`` (``grid_minimize``: a ``ProxBatch``; ``grid_min_value``:
        a list) of the ``n`` left rows ``phi(x, rows)`` on the x grid, in the
        caller's order. Several rows are sorted by slope, so that a block's
        slopes are close, scanned (``_scan``) on their ``_tilt_window`` from
        ``bounds()``, and gathered back to the caller's order."""
        if n == 1:
            return finish(phi, self.x_grid, values=self._scan(phi, 1, None))
        s, row_mag = bounds()
        # a stable sort; numpy's sorts page in about 0.3 MB of code on first use
        order = np.array(sorted(range(n), key=s.tolist().__getitem__))
        back = np.empty(n, dtype=np.intp)
        back[order] = np.arange(n)

        def sorted_phi(x, rows, *buf):
            return phi(x, order[rows], *buf)

        window = self._tilt_window(s[order], row_mag[order])
        res = finish(sorted_phi, self.x_grid, values=self._scan(sorted_phi, n, window))
        return res[back] if isinstance(res, ProxBatch) else np.take(res, back).tolist()

    def _solve(self, ys, finish):
        """The left subproblem at each interior ybar, by ``_batch`` (its rows
        sort by ybar, since grad kappa increases)."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if not ys.size:
            return ProxBatch(*np.empty((5, 0)), np.empty(0, dtype=np.intp),
                             np.zeros(1, dtype=np.intp))
        try:
            self.check_interior(ys)
            return self._batch(self._left_rows(ys), ys.size,
                               lambda: self._row_bounds(ys, *self.kg(ys)), finish)
        except (OutsideInteriorError, OutOfRangeError, AllInfiniteError, UnboundedBelowError):
            # a failing row fails alone too: raise what the first failing
            # row raises, as a loop of single queries would
            for j in range(ys.size - 1):
                self._solve(ys[j:j + 1], finish)
            raise

    def left_values(self, ybar: float) -> np.ndarray:
        """f + D(., ybar)/lam sampled on the x grid (vectorized)."""
        self.check_interior(ybar)
        return self._left_rows([ybar])(self.X, 0)

    def check_interior(self, ys):
        """Raise ``OutsideInteriorError`` naming the first ybar, of a float or
        an array, outside int dom kappa."""
        inside = self.kernel.domain.interior_contains(ys)
        if not np.all(inside):
            bad = ys if np.ndim(ys) == 0 else float(ys[~inside][0])
            raise OutsideInteriorError(f"{bad} not interior to dom {self.kernel.name}")

    def prox(self, ys) -> ProxResult | ProxBatch:
        """The prox at one interior ybar (a ``ProxResult``) or at each of an
        array of them (their ``ProxBatch``, in that order), solved in blocks
        of rows."""
        res = self._solve(ys, grid_minimize)
        return res[0] if np.ndim(ys) == 0 else res

    def interior(self, xs) -> np.ndarray:
        """Whether each of the prox outputs ``xs`` lies ``INTERIOR_MARGIN``
        inside int dom kappa (a bool array): the range assumption's test."""
        return self.kernel.domain.interior_contains(np.asarray(xs, dtype=float), INTERIOR_MARGIN)

    def env(self, ys) -> float | np.ndarray:
        """Envelope at one interior ybar (a float) or at each of an array of
        them (an array), memoized.

        Values in the memo are read first; the other points are solved once
        each, in blocks of rows, by value alone (``grid_min_value``: no
        minimizer is located), and stored. Past ``grid_n`` values the memo
        evicts the oldest ones.
        """
        keys = np.atleast_1d(np.asarray(ys, dtype=float)).tolist()
        memo = self._env_memo
        out = [memo.get(y) for y in keys]
        miss = list(dict.fromkeys(y for y, v in zip(keys, out) if v is None))
        if miss:
            solved = dict(zip(miss, self._solve(miss, grid_min_value)))
            out = [solved[y] if v is None else v for y, v in zip(keys, out)]
            memo.update(solved)
            # dicts keep insertion order: the first keys are the oldest
            for y in list(itertools.islice(memo, max(0, len(memo) - self.grid_n))):
                del memo[y]
        return float(out[0]) if np.ndim(ys) == 0 else np.array(out, dtype=float)

    # -- envelope cache on the interior grid --------------------------------

    def env_coarse(self) -> np.ndarray:
        """Grid-resolution envelope on the interior grid (no refinement),
        built in row blocks: O(N) memory besides one block."""
        if self._env_coarse is None:
            env, i = np.empty(self.Y.size), 0
            phi = self._left_rows(self.Y)
            window = self._tilt_window(*self._row_bounds(self.Y, *self.kg(self.Y)))
            for _, vals in self._scan(phi, self.Y.size, window):
                # objective block: rows ybar in Y[i:], columns x in a window of X
                env[i:i + len(vals)] = vals.min(axis=1)
                i += len(vals)
            if env.min() < -DEFAULT_UNBOUNDED_CAP:
                raise UnboundedBelowError("envelope cache fell below the cap")
            self._env_coarse = env
        return self._env_coarse

    # -- right objective ----------------------------------------------------

    def right_prox(self, xbar: float) -> ProxResult:
        """Global minimizers over interior y of f(y) + D(xbar, y)/lam. Raises
        ``OutOfRangeError`` when kappa(xbar), or the tilt
        grad kappa(y)(xbar - y) at an end of the y grid, overflows."""
        if not self.kernel.domain.contains(float(xbar)):
            raise OutsideInteriorError(f"{xbar} not in dom {self.kernel.name}")
        kx = self._right_kappa(xbar)

        def psi(y):
            fy, ky, gy = self._fkg(y)
            return fy + (kx - ky - gy * (xbar - y)) / self.lam

        return grid_minimize(psi, self.y_grid)

    def _right_kappa(self, xbar):
        """kappa at a point or array ``xbar`` for D(xbar, y) on the y grid
        (``right_prox``, ``prox_hull``, the right certificate), checked as
        ``right_prox`` says, naming the first point that overflows."""
        kx = self.kernel.eval(xbar)
        with np.errstate(over="ignore"):
            self._check_range(xbar, [kx, self.GY[0] * (xbar - self.Y[0]),
                                     self.GY[-1] * (xbar - self.Y[-1])], "y")
        return kx

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
        kap = self.kernel.eval(x1)
        # only where conv is finite: outside the kernel domain kap is +inf too
        out = np.full_like(conv, np.inf)
        fin = np.isfinite(conv)
        out[fin] = (conv[fin] - kap[fin]) / self.lam
        contact = self.hull_contact_mask()
        j = np.clip(np.searchsorted(self.X, x1), 1, len(self.X) - 1)
        in_contact = contact[j - 1] & contact[j] & np.isfinite(out)
        if in_contact.any():
            out = np.where(in_contact, self.fn.eval(x1), out)
        return out.reshape(shape) if shape else float(out[0])

    # -- instance facts, each decided on first use and kept ------------------

    @property
    def hypotheses(self) -> dict[str, bool]:
        """The standing hypotheses by report key."""
        return {key: self.holds(key) for key in STANDING}

    def holds(self, gate: str) -> bool:
        """Whether the instance passes the gate named by its report key."""
        if gate not in self._gates:
            self._gates[gate] = bool(_GATES[gate][0](self))
        return self._gates[gate]

    def require(self, *gates: str) -> None:
        """Raise ``HypothesesUnmetError`` with the skip reason of the first
        failing gate: the standing hypotheses, then ``gates`` in order."""
        for gate in STANDING + gates:
            if not self.holds(gate):
                raise HypothesesUnmetError(_GATES[gate][1].format(self.kernel.name))

    @cached_property
    def f_bounds(self) -> tuple[float, float]:
        """The first and last x-grid points where f is finite."""
        idx = np.nonzero(np.isfinite(self.F))[0]
        return float(self.X[idx[0]]), float(self.X[idx[-1]])

    @cached_property
    def conv_dom_inside(self) -> bool:
        """conv dom f, as sampled, is a nondegenerate interval inside dom kappa."""
        lo, hi = self.f_bounds
        dom = self.kernel.domain
        return lo >= dom.lo and hi <= dom.hi and lo < hi

    @cached_property
    def strongly_convex(self) -> Condition:
        """lam f + kappa - L x^2 / 2 convex on the x grid, L = Lip(grad kappa)."""
        L = self.kernel.grad_lipschitz
        if L is None:
            return Condition("strongly-convex", False, -math.inf)
        return convexity_condition("strongly-convex", self.X,
                                   self.tilted(self.X) - 0.5 * L * np.square(self.X))

    @cached_property
    def f_convex(self) -> Condition:
        """Convexity of f on the full domain grid (closed endpoints included)."""
        return convexity_condition("f-convex", self.X, self.F)

    @cached_property
    def xi_window(self) -> tuple[float, float]:
        """A dual (gradient-space) working range clipped to the primal window."""
        g_lo, g_hi = self.kernel.grad([self.y_grid.lo, self.y_grid.hi]).tolist()
        margin = 0.05 * (g_hi - g_lo)
        return max(-4.0, g_lo + margin), min(4.0, g_hi - margin)

    @cached_property
    def h_convex(self) -> Condition:
        """Convexity of h(xi) = env(grad kappa*(xi)) on a uniform dual grid."""
        xis = np.linspace(*self.xi_window, 161)
        return convexity_condition("h-convex", xis, self.env(self.kernel.grad_conj(xis)))

    @cached_property
    def critical_etas(self) -> tuple[float, ...]:
        """Slopes of the hull segments of lam f + kappa over three cells
        long: the etas where the prox is set-valued."""
        curve = self.hull_curve()
        return tuple(curve.segment_slopes()[np.diff(curve.xs) > 3 * self.x_grid.h].tolist())

    def range_probe(self, n: int, seed: int):
        """(ok, witnesses) of the range assumption on this engine: ``n``
        ybar drawn across the interior, the witnesses the (ybar, minimizer)
        pairs whose minimizer is off the interior."""
        ys = sample_inset(np.random.default_rng(seed), self.y_grid.lo, self.y_grid.hi, n)
        witnesses = prox_escapes(self, ys, self.prox(ys))
        return not witnesses, witnesses

    @cached_property
    def range_assumption(self) -> tuple[bool, tuple]:
        """(ok, witnesses) of ``range_probe`` at ``RANGE_PROBE_N`` points, with a
        seed derived from the instance name alone."""
        ok, witnesses = self.range_probe(RANGE_PROBE_N, zlib.crc32(self.name.encode()))
        return ok, tuple(witnesses)


# An engine holds no reference to its instance, so it is dropped with it.
_ENGINES: weakref.WeakKeyDictionary[Instance, InstanceEngine] = weakref.WeakKeyDictionary()


def engine(inst: Instance) -> InstanceEngine:
    """The instance's engine at the current grid size (``BREGMAN_GRID_N``,
    default ``DEFAULT_GRID_N``), rebuilt when it changes. Raises
    ``GridSizeError`` when the variable is not an integer of at least
    ``MIN_GRID_N``."""
    spec = os.environ.get("BREGMAN_GRID_N")
    try:
        n = DEFAULT_GRID_N if spec is None else int(spec)
    except ValueError:
        n = None
    if n is None or n < MIN_GRID_N:
        raise GridSizeError(f"BREGMAN_GRID_N={spec!r} is not a grid size: "
                            f"expected an integer of at least {MIN_GRID_N}")
    eng = _ENGINES.get(inst)
    if eng is None or eng.grid_n != n:
        eng = _ENGINES[inst] = InstanceEngine(inst, n)
    return eng


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def left_prox(inst: Instance, ybar) -> ProxResult | ProxBatch:
    """Global minimizers of f(x) + D(x, ybar)/lam over the kernel domain: a
    ``ProxResult`` at one ybar, their ``ProxBatch`` at an array of them."""
    return engine(inst).prox(ybar)


def left_env(inst: Instance, ybar: float) -> float:
    """Infimal value of the left proximal subproblem."""
    return engine(inst).env(ybar)


def right_prox(inst: Instance, xbar: float) -> ProxResult:
    """Global minimizers over interior y of g(y) + D(xbar, y)/lam."""
    return engine(inst).right_prox(xbar)


def right_env(inst: Instance, xbar: float) -> float:
    return right_prox(inst, xbar).value


def prox_hull(inst: Instance, x: float) -> float:
    """sup over interior y of env(y) - D(x, y)/lam: the best y-grid sample
    of the grid-resolution envelope, searched on the two cells around it.

    Each round of the search solves its sampled envelopes (by value,
    through the memo) as one block of rows. With s = grad kappa(y) the
    objective is (s x - kappa(x) - (lam f + kappa)*(s)) / lam, concave in s
    since a conjugate is convex, so the sup is ``numerics.concave_sup``: a
    value-only search that stops once its samples bound the sup to within
    rounding, two rounds at a smooth sup (a zoom, then a round aimed at a
    parabola's vertex). This is the definitional route; it reads only
    envelope values and grad kappa, and the geometric route through the
    lower convex envelope of lam f + kappa is ``engine(inst).hull_fn_value``.
    +inf outside dom kappa, and past an end of dom f that the x grid
    samples (``InstanceEngine.f_bounds``), before any solve; an x that
    overflows raises as in ``right_prox``, and so does an x whose best
    y-grid sample is a grid end that the window cut, where the sup may lie
    past the samples.
    """
    eng = engine(inst)
    dom = eng.kernel.domain
    lo, hi = eng.f_bounds
    # past an end of dom f inside the x grid, f and so its hull are +inf
    if not dom.contains(float(x)) or (x < lo and lo > eng.X[0]) or (x > hi and hi < eng.X[-1]):
        return math.inf
    kx = eng._right_kappa(x)

    def psi(y):
        # the y grid reads the grid-resolution envelope
        env = eng.env_coarse() if y is eng.Y else eng.env(y)
        ky, gy = eng.kg(y)
        return env - (kx - ky - gy * (x - y)) / eng.lam, gy

    vals = psi(eng.Y)[0]
    j = np.argmax(np.where(np.isfinite(vals), vals, -np.inf))
    wlo, whi = eng.fn.window
    if (j == 0 and wlo > dom.lo) or (j == vals.size - 1 and whi < dom.hi):
        raise OutOfRangeError(f"{x} out of range for {eng.kernel.name}: the sup over "
                              "ybar is at or past the window's end of the y grid")
    return concave_sup(psi, eng.Y, vals)


def hull_function(inst: Instance) -> ProperFn:
    """The proximal hull as a catalog-style function (geometric route)."""
    eng = engine(inst)
    curve = eng.hull_curve()
    dom = Interval(curve.x_min, curve.x_max)
    return ProperFn(f"hull_{inst.name}", dom, eng.hull_fn_value, inst.fn.window,
                    pb_threshold=inst.fn.pb_threshold)


def hull_instance(inst: Instance) -> Instance:
    return Instance(f"hull_{inst.name}", inst.kernel, hull_function(inst), inst.lam)


# ---------------------------------------------------------------------------
# Prox-boundedness scanning
# ---------------------------------------------------------------------------

def _tail_points(side: str, interval: Interval, window: tuple[float, float]):
    """Geometric probe sequence toward one non-closed side ("lo" or "hi") of
    ``interval``: outward from the window's edge toward an infinite end, and
    toward a finite open end from the window's edge when it lies inside."""
    i, s = (0, -1.0) if side == "lo" else (1, 1.0)  # s: the outward direction
    end = (interval.lo, interval.hi)[i]
    if (interval.lo_closed, interval.hi_closed)[i]:
        return []
    span = max(window[1] - window[0], 1.0)
    if math.isinf(end):
        return [window[i] + s * span * 4.0 ** k for k in range(1, 100)]
    x0 = window[i] if s * (end - window[i]) > 0 else end - s * span * 1e-3
    return [end + (x0 - end) * 0.01 ** k for k in range(1, 150)]


def detect_unbounded(kernel: Kernel, fn: ProperFn, lam: float, probe_y: float) -> bool:
    """True when f + D(., probe_y)/lam is diagnosed unbounded below.

    Fires either on values below ``-DEFAULT_UNBOUNDED_CAP`` on a 513-point
    grid of the domain, or on a monotone divergence along a geometric tail
    toward an open or unbounded side (logarithmic divergences never cross a
    fixed cap on any float grid, so a strictly decreasing tail with
    macroscopic total drop is the signal).
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not kernel.domain.interior_contains(probe_y):
        raise OutsideInteriorError(f"{probe_y} not interior to dom {kernel.name}")

    def phi(x):
        return fn.eval(x) + bregman_distance(kernel, x, probe_y) / lam

    vals = phi(build_grid(kernel.domain, 513, window=fn.window).points)
    finite = vals[np.isfinite(vals)]
    if finite.size and finite.min() < -DEFAULT_UNBOUNDED_CAP:
        return True
    for side in ("lo", "hi"):
        ts = np.array(_tail_points(side, kernel.domain, fn.window))
        # far tails overflow; the tail ends at its first non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            tail = phi(ts)
        stop = ~np.isfinite(tail)
        tail = list(tail[:int(np.argmax(stop)) if stop.any() else tail.size])
        if len(tail) >= 8:
            drops = [b < a for a, b in zip(tail, tail[1:])]
            if all(drops) and tail[-1] < tail[0] - 1.0:
                return True
            if tail[-1] < -DEFAULT_UNBOUNDED_CAP:
                return True
    return False


def threshold_scan(kernel: Kernel, fn: ProperFn,
                   lam_grid: np.ndarray) -> tuple[float, float]:
    """Bracket the prox-boundedness threshold on an ascending lambda grid,
    probing at the midpoint of the interior's window.

    Returns (last finite lambda, first unbounded lambda); the second entry is
    +inf when every lambda in the grid stays bounded.
    """
    lam_grid = np.sort(np.asarray(lam_grid, dtype=float))
    if lam_grid.size == 0:
        raise ValueError("empty lambda grid")
    grid = build_grid(kernel.domain.interior(), n=11, window=fn.window)
    probe = float(0.5 * (grid.lo + grid.hi))
    last_finite = None
    for lam in lam_grid:
        if detect_unbounded(kernel, fn, float(lam), probe):
            if last_finite is None:
                raise AllUnboundedError(f"unbounded already at lambda={lam}")
            return last_finite, float(lam)
        last_finite = float(lam)
    return last_finite, math.inf


# ---------------------------------------------------------------------------
# The range assumption
# ---------------------------------------------------------------------------

def range_probe(inst: Instance, n: int = 500, seed: int = 0):
    """Sample ybar across the interior; check all prox outputs stay interior.

    Returns (ok, witnesses) where witnesses are (ybar, minimizer) pairs that
    landed on or beyond the boundary. Empirically falsifiable, not certifiable.
    """
    return engine(inst).range_probe(n, seed)


def prox_escapes(eng: InstanceEngine, ys, batch: ProxBatch) -> list[tuple[float, float]]:
    """(ybar, minimizer) pairs of the prox ``batch`` at ``ys`` off the
    interior, all tested in one ``eng.interior`` call."""
    off = ~eng.interior(batch.x)
    return list(zip(np.asarray(ys, dtype=float)[batch.row[off]].tolist(), batch.x[off].tolist()))


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


def euclid_crosscheck(inst: Instance, ybar: float) -> float:
    """Hausdorff gap between the Bregman prox and its Euclidean representation.

    The right side evaluates the ordinary proximal map of the tilted function
    f + (kappa - j)/lam at grad kappa(ybar) on an independent grid, where j is
    the half square.
    """
    eng = engine(inst)
    left = eng.prox(ybar)
    z = eng.kernel.grad(ybar)
    lam = eng.lam
    grid = build_grid(eng.kernel.domain, 3001, window=eng.fn.window)

    def psi(w):
        fw, kw = eng.fk(w)
        shifted = fw + (kw - 0.5 * np.square(w)) / lam
        return shifted + 0.5 * np.square(w - z) / lam

    return _hausdorff(left.minimizers, grid_minimize(psi, grid).minimizers)


def env_conjugate_crosscheck(inst: Instance, ybar: float) -> float:
    """|lam env(ybar) - kappa*(eta) + (lam f + kappa)*(eta)| at eta = grad kappa(ybar),
    with (lam f + kappa)* by independent grid conjugation on 4001 points."""
    eng = engine(inst)
    eng.check_interior(ybar)
    eta = float(eng.kernel.grad_arr(ybar))
    lhs = eng.lam * eng.env(ybar)
    grid = build_grid(eng.kernel.domain, 4001, window=eng.fn.window)
    rhs = eng.kernel.conj_eval(eta) - grid_conjugate(eng.tilted, grid, eta)
    return abs(lhs - rhs)
