"""Hardy space norms from boundary data.

``norm_hp`` computes (integral of |f|^p over the circle / 2 pi)^(1/p) by the
periodic trapezoidal rule, starting from 4096 points and doubling up to 8
times.  For smooth boundary moduli the trapezoid converges spectrally; when
0 < p < 1 and f has boundary zeros the integrand |f|^p only has a Hoelder
cusp there, so if the doublings stall an adaptive pass subdivides panels
until the error concentrated at the cusp is below the requested tolerance.
The same panel machinery handles integrands with a sharp near-singular
peak, refining geometrically into it.  ``QuadConfig.rel_tol`` is the one
quadrature setting.

``norm_hinf`` takes a grid maximum and polishes it with golden-section search
around the best grid angle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fn_repr import PolyCoeffs, _eval_points

__all__ = [
    "QuadConfig",
    "QuadratureError",
    "norm_hp",
    "norm_hinf",
    "parseval_norm",
    "circle_mean",
]

_TWO_PI = 2.0 * np.pi
# the dyadic pass: starting grid size and the doublings allowed before the
# panel pass takes over
_BASE_SAMPLES = 4096
_MAX_REFINEMENTS = 8


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the last two estimates."""

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(f"{message} (last two estimates: {estimates[0]!r}, {estimates[1]!r})")
        self.estimates = estimates


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature control.

    rel_tol: relative agreement required between successive dyadic
        estimates, and the panel pass's error target.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


def _as_theta_evaluator(f):
    """Adapt the accepted function representations to a vectorized theta -> |f| map."""
    if not callable(f):
        raise TypeError(f"cannot evaluate object of type {type(f).__name__}")

    def absf(theta: np.ndarray) -> np.ndarray:
        return np.abs(_eval_points(f, np.exp(1j * theta)))

    return absf


# ---------------------------------------------------------------------------
# adaptive panel quadrature on [0, 2 pi)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _panel_est(g, a: float, b: float) -> float:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, g(mid + half * _GL_NODES)))


def circle_mean(g, rel_tol: float = 1e-9, seeds=(), max_panels: int = 20000) -> float:
    """Mean of g over [0, 2 pi) by error-driven adaptive panel subdivision.

    ``seeds`` lists angles where mass or a cusp is expected; initial panel
    boundaries are placed there so refinement can grade into them.  Panels
    are split worst-error-first until the total error estimate falls below
    rel_tol times the running integral.
    """
    breaks = sorted({0.0, _TWO_PI} | {float(s) % _TWO_PI for s in seeds})
    if breaks[0] > 0.0:
        breaks = [0.0] + breaks
    if breaks[-1] < _TWO_PI:
        breaks.append(_TWO_PI)
    # start from a moderately fine uniform background refined by the seeds
    base = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        m = max(1, int(math.ceil((b - a) / (_TWO_PI / 32))))
        edges = np.linspace(a, b, m + 1)
        base.extend(zip(edges[:-1], edges[1:]))

    heap = []
    total = 0.0
    counter = 0
    for a, b in base:
        whole = _panel_est(g, a, b)
        mid = 0.5 * (a + b)
        halves = _panel_est(g, a, mid) + _panel_est(g, mid, b)
        err = abs(whole - halves)
        total += halves
        heapq.heappush(heap, (-err, counter, a, b, halves))
        counter += 1

    while heap:
        err_total = -sum(item[0] for item in heap)
        if err_total <= rel_tol * max(abs(total), 1e-300):
            break
        if counter >= max_panels:
            # the panel edges are numpy floats; report plain ones
            raise QuadratureError(
                "adaptive panel budget exhausted",
                (float(total / _TWO_PI), float((total + err_total) / _TWO_PI)),
            )
        neg_err, _, a, b, halves = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        total -= halves
        for aa, bb in ((a, mid), (mid, b)):
            whole = _panel_est(g, aa, bb)
            m2 = 0.5 * (aa + bb)
            sub = _panel_est(g, aa, m2) + _panel_est(g, m2, bb)
            total += sub
            heapq.heappush(heap, (-abs(whole - sub), counter, aa, bb, sub))
            counter += 1

    # deterministic final summation order
    parts = sorted((a, h) for _, _, a, b, h in heap)
    return math.fsum(h for _, h in parts) / _TWO_PI


# ---------------------------------------------------------------------------
# H^p norm, 0 < p < infinity
# ---------------------------------------------------------------------------

def norm_hp(f, p: float, cfg: QuadConfig | None = None) -> float:
    """The H^p quasi-norm (mean of |f|^p on the circle)^(1/p), 0 < p < inf.

    Dyadic refinement doubles the grid, reusing previous samples, until two
    successive norm estimates agree to cfg.rel_tol relatively.  If that
    stalls, an adaptive panel pass finishes the job, and raises
    QuadratureError with its last two estimates if it runs out of panels.
    """
    if not (0 < p < math.inf):
        raise ValueError(f"p must lie in (0, inf) (got {p})")
    cfg = cfg or QuadConfig()
    absf = _as_theta_evaluator(f)

    n = _BASE_SAMPLES
    theta = coarse_theta = _TWO_PI * np.arange(n) / n
    prof = absf(theta)
    mean = float(np.mean(prof ** p))
    prev = mean ** (1.0 / p) if mean > 0 else 0.0
    for _ in range(_MAX_REFINEMENTS):
        mids = theta + _TWO_PI / (2 * n)
        mid_pows = absf(mids) ** p
        mean = 0.5 * (mean + float(np.mean(mid_pows)))
        n *= 2
        theta = _TWO_PI * np.arange(n) / n
        cur = mean ** (1.0 / p) if mean > 0 else 0.0
        if abs(cur - prev) <= cfg.rel_tol * max(cur, 1e-300):
            return cur
        prev = cur

    # refinement stalled: cusp or sharp peak; locate trouble from the
    # starting grid's profile and hand over to the adaptive panels.
    big = prof.max()
    seeds = coarse_theta[prof < 1e-6 * max(big, 1e-300)]
    seeds = list(seeds[:64]) + [float(coarse_theta[int(np.argmax(prof))])]
    mean = circle_mean(lambda th: absf(th) ** p, cfg.rel_tol, seeds=seeds)
    return mean ** (1.0 / p) if mean > 0 else 0.0


def norm_hinf(f, return_witness: bool = False):
    """The boundary sup-norm: grid maximum plus golden-section polish.

    With return_witness=True the attained angle is returned alongside the
    norm value.
    """
    absf = _as_theta_evaluator(f)
    n = _BASE_SAMPLES
    theta = _TWO_PI * np.arange(n) / n
    vals = absf(theta)
    m = int(np.argmax(vals))
    h = _TWO_PI / n

    # golden-section maximization on [theta_m - h, theta_m + h]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta[m] - h, theta[m] + h
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = float(absf(np.array([c]))[0]), float(absf(np.array([d]))[0])
    while b - a > 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(absf(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(absf(np.array([d]))[0])
    best_theta = 0.5 * (a + b)
    best = max(float(vals[m]), float(absf(np.array([best_theta]))[0]))
    if return_witness:
        return best, best_theta % _TWO_PI
    return best


def parseval_norm(c: PolyCoeffs) -> float:
    """The exact H^2 norm of a polynomial: sqrt(sum |a_n|^2)."""
    if not isinstance(c, PolyCoeffs):
        c = PolyCoeffs(tuple(c))
    return math.sqrt(math.fsum(abs(a) ** 2 for a in c.coeffs))
