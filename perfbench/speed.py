"""The machine's momentary speed, measured by a fixed probe loop.

The host this benchmark runs on changes speed by up to 2x over spans of
seconds to minutes (other tenants share its cores and caches; the guest sees
no steal time, so CPU time moves with wall time). Every end-to-end time is
therefore reported at a fixed reference speed. A ``Speedometer`` runs
``probe()`` before an operation when the last probe is ``GAP_S`` old and, in
the processes that run the program themselves, also every ``GAP_S`` during
an operation, from a timer signal; a probe's own time is taken out of the
operation it interrupted. Each operation's wall time is multiplied by
``REF_S / d``, where d is the mean of the probes made within ``WINDOW_S`` of
it. A faster program still reads faster; a slower host no longer does.

The in-process probe, ``probe()``, is the program's hot path in miniature,
written apart from it: a prox solve that scores a 2001-point numpy grid,
then refines the best cell by scalar golden-section steps on an objective
object whose terms are float-subclass values built through ``math`` calls.
Single probes flicker between a fast and a slow level from one millisecond
to the next; the share of slow ones moves with the host's load. Operations
pay the slow share in proportion, so the window takes the mean of the
probes, not the median or the minimum.

Work that is itself process start-up (the cold workload's commands, and
every workload's set-up) does not follow that probe; it is scaled by
``spawn_probe()`` instead, a fresh interpreter that imports numpy.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time

import numpy as np

# Times are reported at the speed where one probe() takes this long (about
# its mean on the 2-vCPU VM the benchmark was tuned on).
REF_S = 0.0020
# The same for spawn_probe().
SPAWN_REF_S = 0.2
# Probe when the last probe is at least this old.
GAP_S = 0.1
# An operation is scaled by the mean of the probes made from this long
# before it starts to this long after it ends.
WINDOW_S = 3.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = np.linspace(-3.0, 3.0, 2001)


class _Ext(float):
    __slots__ = ()

    def __new__(cls, v):
        v = float(v)
        if math.isnan(v):
            raise ValueError("NaN")
        return super().__new__(cls, v)


class _Objective:
    """x -> f(x) + D(x, y)/lam with f = |x| + log(1 + x^2)/2, D the energy distance."""

    def __init__(self, y: float, lam: float):
        self.y, self.lam = y, lam

    def f(self, x: float) -> _Ext:
        return _Ext(abs(x) + 0.5 * math.log1p(x * x))

    def __call__(self, x: float) -> _Ext:
        d = 0.5 * x * x - 0.5 * self.y * self.y - self.y * (x - self.y)
        return _Ext(self.f(x) + _Ext(d / self.lam))

    def many(self, xs: np.ndarray) -> np.ndarray:
        d = 0.5 * xs * xs - 0.5 * self.y * self.y - self.y * (xs - self.y)
        return np.abs(xs) + 0.5 * np.log1p(xs * xs) + d / self.lam


def _solve(y: float) -> float:
    ob = _Objective(y, 0.7)
    i = int(np.argmin(ob.many(_GRID)))
    lo, hi = _GRID[max(i - 1, 0)], _GRID[min(i + 1, len(_GRID) - 1)]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = ob(c), ob(d)
    for _ in range(60):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = ob(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = ob(d)
    return c


def probe(solves: int = 5) -> float:
    """Seconds for ``solves`` miniature prox solves."""
    t0 = time.perf_counter()
    for k in range(solves):
        _solve(-1.5 + 0.6 * k)
    return time.perf_counter() - t0


def spawn_probe(env=None) -> float:
    """Seconds to start a fresh interpreter that imports numpy and exits.

    The probe for work that is itself process start-up: the CLI commands of
    the cold workload and the set-up of every workload.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Speedometer:
    """Times operations and probes the machine around and during them.

    With ``in_op`` a SIGALRM timer also probes inside operations that run
    longer than ``gap_s``; use it only in a process that runs the program
    itself, with the in-process ``probe``.
    """

    def __init__(self, in_op: bool, probe=probe, ref_s: float = REF_S,
                 gap_s: float = GAP_S):
        self.at: list[float] = []     # probe midpoints, perf_counter seconds
        self.probes: list[float] = []
        # (start, wall seconds, seconds less the probes made inside)
        self.ops: list[tuple[float, float, float]] = []
        self.in_op, self._probe, self.ref_s, self.gap_s = in_op, probe, ref_s, gap_s
        self._paused = 0.0
        self._probing = False
        if in_op:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def probe(self) -> float:
        t0 = time.perf_counter()
        d = self._probe()
        self.at.append((t0 + time.perf_counter()) / 2)
        self.probes.append(d)
        return d

    def _on_alarm(self, signum, frame):
        if self._probing:  # a probe slower than gap_s: skip, do not nest
            return
        self._probing = True
        t0 = time.perf_counter()
        self.probe()
        self._paused += time.perf_counter() - t0
        self._probing = False

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` timed; returns (result, seconds)."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.gap_s:
            self.probe()
        if self.in_op:
            due = self.at[-1] + self.gap_s - time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, max(due, 1e-3), self.gap_s)
        self._paused = 0.0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            if self.in_op:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        dt = wall - self._paused
        self.ops.append((t0, wall, dt))
        return out, dt

    def scaled(self) -> list[float]:
        """Every operation's time at the reference speed, in order.

        Probes once more first, so the last operations lie between two probes.
        """
        self.probe()
        return scale(self.ops, self.at, self.probes, self.ref_s)


def scale(ops, at, probes, ref_s: float = REF_S) -> list[float]:
    """Each (start, wall seconds, seconds) of ``ops`` at the reference speed
    where a probe takes ``ref_s``, given probe durations ``probes`` made at
    the increasing times ``at``."""
    at, probes = np.asarray(at, dtype=float), np.asarray(probes, dtype=float)
    out = []
    for start, wall, dt in ops:
        lo = np.searchsorted(at, start - WINDOW_S)
        hi = np.searchsorted(at, start + wall + WINDOW_S)
        out.append(dt * ref_s / float(np.mean(probes[lo:hi])))
    return out
