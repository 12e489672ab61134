"""How fast the machine runs right now, from a kernel of the benchmark's own.

On a shared 2-vCPU machine each CPU changes speed by up to a factor of two
within seconds (other tenants; steal time reads 0 and CPU time equals wall
time), so raw wall times of one commit do not repeat.  Every timed stretch
is therefore bracketed by passes of a fixed kernel that contains no hardyx
code, and times are reported at the reference speed:

    reported = measured * (reference time of the parts) / (their time around it)

The kernel has three parts, one for each kind of work hardyx does:
interpreted float code with small objects and closures (the closed forms,
the solver's objective), numpy calls on tiny arrays (scipy's optimizers)
and numpy on 4096-point boundary grids (the quadrature).  A workload times
the parts its operations use; the grid part tracks the interpreter badly,
and adds noise to workloads that do not use it.  REFERENCE_S holds one pass
of each part at the speed the reference figures in README.md were taken
at; they are units, not tunables, and changing them rescales every time
metric.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = {"interpreted": 0.2e-3, "tiny": 0.2e-3, "grid": 0.4e-3}
PASSES = 10


@dataclass(frozen=True)
class _Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("empty bracket")


def _interpreted() -> float:
    acc = 0.0
    for c in np.linspace(0.3, 11.0, 16).tolist():
        g = lambda L: math.exp(L) * math.exp(math.exp(L)) - c  # noqa: E731
        br = _Bracket(-10.0, 3.0)
        lo, hi = br.lo, br.hi
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid
        acc += lo
    return acc


_TINY = np.array([0.3, 1.2, -0.4, 0.8])
_GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def _tiny_arrays() -> float:
    x = _TINY.copy()
    s = 0.0
    for _ in range(40):
        y = x * 0.5 + 0.1
        x = np.where(y > 0, y, -y)
        s += float(np.dot(x, x))
    return s


def _grid_arrays() -> float:
    z = np.exp(1j * _GRID)
    for _ in range(6):
        z = z * 0.999 + 0.001
        a = np.abs(z) ** 0.7
    return float(a.mean())


PARTS = {"interpreted": _interpreted, "tiny": _tiny_arrays, "grid": _grid_arrays}


def kernel_seconds(parts) -> float:
    """Median time of PASSES passes of the named parts of the kernel."""
    fns = [PARTS[p] for p in parts]
    times = []
    for _ in range(PASSES):
        t0 = perf_counter()
        for fn in fns:
            fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def reference_seconds(parts) -> float:
    return sum(REFERENCE_S[p] for p in parts)


class Scaler:
    """Scales the times of operations to the reference speed.

    ``sample`` times the kernel; every time recorded since the previous
    sample is scaled by the mean of the two samples around it.  ``tick``
    samples once EVERY_S has passed since the last sample, so an operation
    longer than that is bracketed on its own.
    """

    EVERY_S = 0.2

    def __init__(self, parts):
        self.parts = parts
        self.reference = reference_seconds(parts)
        self.scaled = []
        self._pending = []
        self._last = kernel_seconds(parts)
        self.samples = [self._last]
        self._at = perf_counter()

    def sample(self):
        k = kernel_seconds(self.parts)
        self.samples.append(k)
        factor = self.reference / (0.5 * (self._last + k))
        self.scaled.extend((t * factor, ok) for t, ok in self._pending)
        self._pending.clear()
        self._last, self._at = k, perf_counter()

    def factor(self) -> float:
        """Reference speed over the run's median speed, for times taken in bulk."""
        return self.reference / statistics.median(self.samples)

    def record(self, seconds: float, ok: bool) -> None:
        self._pending.append((seconds, ok))

    def tick(self) -> None:
        if perf_counter() - self._at >= self.EVERY_S:
            self.sample()
