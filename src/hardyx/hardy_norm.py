"""Hardy space norms from boundary data.

``norm_hp`` computes (integral of |f|^p over the circle / 2 pi)^(1/p) by the
periodic trapezoidal rule, starting from 4096 points and doubling up to 3
times (32768 points in all).  For smooth boundary moduli the trapezoid
converges spectrally, so two estimates agree within those doublings.  When
0 < p < 1 and f has boundary zeros the integrand |f|^p only has a Hoelder
cusp there, where each doubling gains a fixed factor at best; so if the
doublings stall an adaptive pass subdivides panels until the error
concentrated at the cusp is below the requested tolerance.  The same panel
machinery handles integrands with a sharp near-singular peak, refining
geometrically into it, and a starting grid that meets a pole or a NaN.
``QuadConfig.rel_tol`` is the one quadrature setting; the panels take the
mean of |f|^p to rel_tol * min(1, p), which holds the norm to rel_tol.

The mean is taken of (|f|/M)^p and the norm returned as M mean^(1/p), so
that p in the hundreds or more neither under- nor overflows.  M is 1
wherever the starting grid's largest finite sample, raised to p, and a sum
of 32768 such terms stay in the normal double range; elsewhere it is that
sample.  A finer grid or a panel node can meet a higher peak between the
starting grid's points, higher by a factor (1 + delta)^p; if that takes a
finite sample's power out of the range, the measurement starts again with M
that sample.  A polynomial's kept grids make that restart cheap.

A ``PolyCoeffs`` is sampled on each trapezoid grid by one zero-padded
inverse FFT of its coefficients (twisted by e^{i pi j/n} for the midpoint
grid, folded mod n past degree n), in place of a Horner pass per grid.
It is immutable, so it keeps |f| on each grid it meets, read-only, and
the norms measured from them: a sweep over p and rel_tol samples it once
per grid, at most 4096 + 4096 + 8192 + 16384 doubles, and the sup-norm
reads the same starting grid.  Other callables, and the panels' nodes, are
evaluated directly: the panel pass (``circle_mean``) makes one call for
all its starting panels and one per split, on the 64 nodes of the four
quarter panels.

``norm_hinf`` takes a grid maximum and polishes it with golden-section search
around the best grid angle; a polynomial is evaluated there one point at a
time by a scalar Horner.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fn_repr import PolyCoeffs, _eval_points, _is_int, _memoized, _poly_grid

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
_MAX_REFINEMENTS = 3
# log of the range |f|^p may take unscaled: normal doubles, with room for
# the sum of the finest grid's samples
_LOG_POW_MIN = math.log(sys.float_info.min)
_LOG_POW_MAX = math.log(sys.float_info.max / (_BASE_SAMPLES << _MAX_REFINEMENTS))


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


def _grid_sampler(f, absf):
    """|f| on the grid 2 pi m / n, or with ``half`` on 2 pi (m + 1/2) / n.

    A polynomial takes one inverse FFT per grid, on the first call for that
    grid only: the array is kept, read-only, in its memo.  Other callables
    go through absf at the grid angles.
    """
    if isinstance(f, PolyCoeffs):
        def sample(n: int, half: bool) -> np.ndarray:
            vals = np.abs(_poly_grid(f, n, half))
            vals.setflags(write=False)
            return vals

        return lambda n, half: _memoized(f, ("grid", n, half), lambda: sample(n, half))

    def grid(n: int, half: bool) -> np.ndarray:
        theta = _TWO_PI * np.arange(n) / n
        return absf(theta + _TWO_PI / (2 * n) if half else theta)

    return grid


def _point_sampler(f, absf):
    """|f| at one angle: a scalar Horner for a polynomial, absf otherwise."""
    if isinstance(f, PolyCoeffs):
        top, *rest = f.coeffs[::-1]

        def one(theta: float) -> float:
            z = complex(math.cos(theta), math.sin(theta))
            acc = top
            for c in rest:
                acc = acc * z + c
            return abs(acc)

        return one
    return lambda theta: float(absf(np.array([theta]))[0])


# ---------------------------------------------------------------------------
# adaptive panel quadrature on [0, 2 pi)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(16)
# panel count from which circle_mean watches its error estimate for a floor
_FLOOR_START = 1024


def _panel_ests(g, a: np.ndarray, b: np.ndarray, total: float) -> list[float]:
    """The 16-node Gauss-Legendre estimate of g on each panel [a_i, b_i].

    g is called once, on the nodes of every panel laid out panel by panel.
    Each panel is summed by its own np.dot over its 16 values, so it gets
    the double it would get from a call of its own.  A non-finite estimate
    raises QuadratureError at once, naming the first non-finite node;
    ``total`` is the running integral before these panels.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    theta = mid[:, None] + half[:, None] * _GL_NODES
    vals = np.reshape(g(theta.ravel()), theta.shape)
    ests = [h * float(np.dot(_GL_WEIGHTS, row)) for h, row in zip(half.tolist(), vals)]
    if not math.isfinite(sum(ests)):
        bad = theta[~np.isfinite(vals)]
        at = float(bad[0] if bad.size else mid[0])
        raise QuadratureError(
            f"integrand is not finite at theta = {at!r}", (total / _TWO_PI, math.nan)
        )
    return ests


def circle_mean(g, rel_tol: float = 1e-9, seeds=(), max_panels: int = 20000) -> float:
    """Mean of g over [0, 2 pi) by error-driven adaptive panel subdivision.

    g receives one flat array of angles per call and must act elementwise:
    its value at an angle may not depend on the other angles in the call.
    It is called once for all the starting panels and once per split.

    ``seeds`` lists angles where mass or a cusp is expected; initial panel
    boundaries are placed there so refinement can grade into them.  Panels
    are split worst-error-first until the total error estimate falls below
    rel_tol times the running integral.  A panel keeps the estimates of its
    two halves, which are the whole-panel estimates of its children, so a
    split evaluates only the four quarter panels.

    Past the round-off floor of g, where its evaluation noise outweighs
    rel_tol, splitting stops shrinking the error estimate.  Once the panel
    count has grown eightfold from 1024 on without the estimate halving,
    QuadratureError names that floor rather than spending the whole budget.
    A non-finite value of g raises QuadratureError at once.
    """
    if not (rel_tol > 0):  # a NaN fails
        raise ValueError(f"rel_tol must be positive (got {rel_tol!r})")
    if not _is_int(max_panels) or max_panels < 1:
        raise ValueError(f"max_panels must be an integer >= 1 (got {max_panels!r})")
    seeds = [float(s) for s in seeds]
    if not all(map(math.isfinite, seeds)):
        raise ValueError(f"seeds must be finite angles (got {seeds!r})")
    breaks = sorted({0.0, _TWO_PI} | {s % _TWO_PI for s in seeds})
    if breaks[0] > 0.0:
        breaks = [0.0] + breaks
    if breaks[-1] < _TWO_PI:
        breaks.append(_TWO_PI)
    # start from a moderately fine uniform background refined by the seeds
    lo, hi = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        m = max(1, int(math.ceil((b - a) / (_TWO_PI / 32))))
        edges = np.linspace(a, b, m + 1)
        lo.append(edges[:-1])
        hi.append(edges[1:])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    mid = 0.5 * (lo + hi)
    # every starting panel, then its left and its right half, in one call
    ests = _panel_ests(g, np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)), math.nan)
    n = len(lo)

    heap = []
    total = 0.0
    counter = 0
    for a, b, whole, left, right in zip(
        lo.tolist(), hi.tolist(), ests[:n], ests[n:2 * n], ests[2 * n:]
    ):
        halves = left + right
        total += halves
        heapq.heappush(heap, (-abs(whole - halves), counter, a, b, halves, left, right))
        counter += 1

    # The sum of the errors in heap order decides convergence.  That pass is
    # O(panels), so a running sum stands in for it while it stays within a
    # factor 2 of the last exact sum and above the target: its rounding, far
    # below 1e-6 relative, cannot then hide a step that would converge.
    err_run = err_sync = math.inf
    # the error estimate at panel counts 1024, 2048, 4096, ...
    marks, next_mark = [], _FLOOR_START
    while heap:
        target = rel_tol * max(abs(total), 1e-300)
        if (
            err_run <= (1.0 + 1e-6) * target
            or not 0.5 * err_sync < err_run < 2.0 * err_sync
            or counter >= min(next_mark, max_panels)
        ):
            err_total = err_run = err_sync = -sum(map(itemgetter(0), heap))
            if err_total <= target:
                break
            estimates = (total / _TWO_PI, (total + err_total) / _TWO_PI)
            if counter >= next_mark:
                marks.append(err_total)
                next_mark *= 2
                if len(marks) >= 4 and marks[-1] > 0.5 * marks[-4]:
                    raise QuadratureError(
                        "error estimate stalled at the round-off floor of the integrand", estimates
                    )
            if counter >= max_panels:
                raise QuadratureError("adaptive panel budget exhausted", estimates)
        neg_err, _, a, b, halves, left, right = heapq.heappop(heap)
        err_run += neg_err
        mid = 0.5 * (a + b)
        # the quarter panels: the halves of the two children
        edges = np.array((a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b))
        q0, q1, q2, q3 = _panel_ests(g, edges[:-1], edges[1:], total)
        total -= halves
        for aa, bb, whole, ql, qr in ((a, mid, left, q0, q1), (mid, b, right, q2, q3)):
            sub = ql + qr
            total += sub
            err = abs(whole - sub)
            err_run += err
            heapq.heappush(heap, (-err, counter, aa, bb, sub, ql, qr))
            counter += 1

    # deterministic final summation order
    parts = sorted((a, h) for _, _, a, _, h, _, _ in heap)
    return math.fsum(h for _, h in parts) / _TWO_PI


# ---------------------------------------------------------------------------
# H^p norm, 0 < p < infinity
# ---------------------------------------------------------------------------

def norm_hp(f, p: float, cfg: QuadConfig | None = None) -> float:
    """The H^p quasi-norm (mean of |f|^p on the circle)^(1/p), 0 < p < inf.

    Dyadic refinement doubles the grid, reusing previous samples, until two
    successive norm estimates agree to cfg.rel_tol relatively.  If that
    stalls, or a grid sample is not finite (a pole on the circle), an
    adaptive panel pass finishes the job, and raises QuadratureError with
    its last two estimates if it runs out of panels.  The panels take the
    mean of |f|^p to rel_tol * min(1, p), so that its 1/p-th power, the
    norm, meets rel_tol.  The mean is taken of (|f|/M)^p, with M from the
    starting grid, or from a higher peak found later, so large p neither
    under- nor overflows.

    A polynomial is sampled once per grid whatever p and rel_tol, and its
    norm is measured once per (p, rel_tol).
    """
    if not (0 < p < math.inf):
        raise ValueError(f"p must lie in (0, inf) (got {p})")
    cfg = cfg or QuadConfig()
    return _memoized(f, ("hp", p, cfg.rel_tol), lambda: _norm_hp(f, p, cfg.rel_tol))


def _finite_max(x: np.ndarray) -> float:
    """The largest finite value in x, or 0.0 if there is none."""
    big = float(x.max())
    if not math.isfinite(big):
        finite = x[np.isfinite(x)]
        big = float(finite.max()) if finite.size else 0.0
    return big


def _pow_scale(prof: np.ndarray, p: float) -> float:
    """M for the mean of (|f|/M)^p, from the starting grid's samples prof.

    M is 1 while the largest finite sample, raised to p, stays within
    _LOG_POW_MIN and _LOG_POW_MAX, so that every norm computable unscaled
    keeps its bits; elsewhere M is that sample.
    """
    big = _finite_max(prof)
    if big == 0.0 or _LOG_POW_MIN <= p * math.log(big) <= _LOG_POW_MAX:
        return 1.0
    return big


class _PowerOverflow(Exception):
    """A finite sample above M took (|f|/M)^p out of the double range."""

    def __init__(self, peak: float):
        super().__init__(peak)
        self.peak = peak


def _check_headroom(x: np.ndarray, scale: float, p: float) -> None:
    """Raise _PowerOverflow if x's largest finite value, over scale, to the
    power p leaves _LOG_POW_MAX; a non-finite mean is then the scale's."""
    peak = _finite_max(x)
    if peak > scale and p * math.log(peak / scale) > _LOG_POW_MAX:
        raise _PowerOverflow(peak)


def _norm_hp(f, p: float, rel_tol: float) -> float:
    # A later grid or a panel node can find a peak above the starting grid's
    # by (1 + delta)^p; then the measurement starts again with M that peak.
    # M grows by e^(_LOG_POW_MAX / p) at least each time, and stays below the
    # sup of |f|.  A polynomial's kept grids make the dyadic pass cheap.
    absf = _as_theta_evaluator(f)
    grid = _grid_sampler(f, absf)
    prof = grid(_BASE_SAMPLES, False)
    scale = _pow_scale(prof, p)
    while True:
        try:
            return _scaled_norm_hp(absf, grid, prof, p, rel_tol, scale)
        except _PowerOverflow as exc:
            scale = exc.peak


def _scaled_norm_hp(absf, grid, prof, p: float, rel_tol: float, scale: float) -> float:
    """The dyadic pass, then the panels, on (|f|/scale)^p; prof is the
    starting grid's |f|."""
    def power(x):
        return (x / scale) ** p

    def root(mean: float) -> float:
        return scale * mean ** (1.0 / p) if mean > 0 else 0.0

    n = _BASE_SAMPLES
    samples = prof
    mean = float(np.mean(power(prof)))
    prev = root(mean)
    for _ in range(_MAX_REFINEMENTS):
        if not math.isfinite(mean):
            break
        samples = grid(n, True)
        mean = 0.5 * (mean + float(np.mean(power(samples))))
        n *= 2
        cur = root(mean)
        if abs(cur - prev) <= rel_tol * max(cur, 1e-300) and math.isfinite(mean):
            return cur
        prev = cur

    if math.isfinite(mean):
        # refinement stalled: cusp or sharp peak; locate trouble from the
        # starting grid's profile and hand over to the adaptive panels.
        coarse_theta = _TWO_PI * np.arange(_BASE_SAMPLES) / _BASE_SAMPLES
        big = prof.max()
        seeds = coarse_theta[prof < 1e-6 * max(big, 1e-300)]
        seeds = list(seeds[:64]) + [float(coarse_theta[int(np.argmax(prof))])]
    else:
        _check_headroom(samples, scale, p)
        # the last grid met a pole or a NaN, which no trapezoid sum can use;
        # seed the panels there, where no Gauss-Legendre node lands
        shift = 0.0 if samples is prof else 0.5
        bad = np.flatnonzero(~np.isfinite(samples))[:64]
        seeds = list(_TWO_PI * (bad + shift) / len(samples))

    # the panels stop at the first non-finite estimate: keep the |f| of the
    # last call, to tell an overflow from a pole
    last = [prof]

    def g(theta):
        last[0] = absf(theta)
        return power(last[0])

    try:
        return root(circle_mean(g, rel_tol * min(1.0, p), seeds=seeds))
    except QuadratureError:
        _check_headroom(last[0], scale, p)
        raise


def norm_hinf(f, return_witness: bool = False):
    """The boundary sup-norm: grid maximum plus golden-section polish.

    With return_witness=True the attained angle is returned alongside the
    norm value.  A polynomial's pair is measured once.
    """
    best, best_theta = _memoized(f, ("hinf",), lambda: _norm_hinf(f))
    if return_witness:
        return best, best_theta
    return best


def _norm_hinf(f) -> tuple[float, float]:
    absf = _as_theta_evaluator(f)
    one = _point_sampler(f, absf)
    n = _BASE_SAMPLES
    vals = _grid_sampler(f, absf)(n, False)
    m = int(np.argmax(vals))
    h = _TWO_PI / n
    theta_m = _TWO_PI * m / n

    # golden-section maximization on [theta_m - h, theta_m + h]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta_m - h, theta_m + h
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = one(c), one(d)
    while b - a > 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = one(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = one(d)
    best_theta = 0.5 * (a + b)
    return max(float(vals[m]), one(best_theta)), best_theta % _TWO_PI


def parseval_norm(c: PolyCoeffs) -> float:
    """The exact H^2 norm of a polynomial: sqrt(sum |a_n|^2)."""
    if not isinstance(c, PolyCoeffs):
        c = PolyCoeffs(tuple(c))
    return math.sqrt(math.fsum(abs(a) ** 2 for a in c.coeffs))
