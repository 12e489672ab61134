"""The k-fold rotation-averaging transform on the unit disc.

W_k f(z) = (1/k) sum_{j<k} f(omega^j z) with omega = e^{2 pi i/k} keeps
exactly the Taylor coefficients at indices divisible by k.  The transform is
bounded on H^p by max(k^{1/p-1}, 1); for p < 1 that constant is sharp but
never attained, which ``sharpness_ratio`` demonstrates on the family
f_eps(z) = (z - (1+eps))^{-1/p} as eps shrinks.  There ||f_eps||_p^p is a
complete elliptic integral, taken from the arithmetic-geometric mean, and
only ||W_k f_eps||_p^p is integrated.

``wiener_bound_check`` measures ||f|| before W_k f, through ``norm_hp`` or
``norm_hinf``.  A polynomial keeps its boundary samples and norms, and its
W_k f per k (``wiener_coeffs``).  W_k f(z) = g(z^k), so ``hardy_norm``
measures it through g(w), which has the same norms for every p; a sweep
over k and p samples f and each such g once per grid: checks at several k
share ||f||, and checks at several p share the samples of f and of g.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fn_repr import PolyCoeffs, StructuredExtremal, _eval_points, _is_int, _memoized
from .hardy_norm import QuadConfig, circle_mean, norm_hinf, norm_hp

__all__ = [
    "WienerRatioReport",
    "wiener_coeffs",
    "wiener_eval",
    "wiener_bound_check",
    "sharpness_ratio",
    "inner_defect",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WienerRatioReport:
    """Outcome of a single bound check.

    For p < 1 both ratio and bound are stated in the p-th power convention
    (ratio = ||W_k f||^p / ||f||^p against bound k^{1-p}); for p >= 1 they
    are plain norm ratios against bound 1.
    """

    k: int
    p: float
    ratio: float
    bound: float
    f_descriptor: str

    @property
    def passed(self) -> bool:
        return self.ratio <= self.bound * (1 + 1e-6)


def _check_k(k: int) -> int:
    if not _is_int(k) or k < 2:
        raise ValueError(f"k must be an integer >= 2 (got {k!r})")
    return int(k)


def wiener_coeffs(c: PolyCoeffs, k: int) -> PolyCoeffs:
    """Zero every coefficient whose index is not a multiple of k.

    The result is kept in c's memo: the same instance and k give the same
    PolyCoeffs, with the samples and norms measured on it so far.
    """
    _check_k(k)
    return _memoized(
        c, ("wiener", k),
        lambda: PolyCoeffs(tuple(a if i % k == 0 else 0 for i, a in enumerate(c.coeffs))),
    )


def wiener_eval(f, k: int, z):
    """(1/k) sum_{j<k} f(omega^j z); z may be a scalar or an array."""
    _check_k(k)
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    acc = np.zeros_like(zs)
    for j in range(k):
        rot = np.exp(2j * math.pi * j / k)
        acc = acc + _eval_points(f, rot * zs)
    acc /= k
    return complex(acc[0]) if scalar else acc


def _describe(f) -> str:
    if isinstance(f, PolyCoeffs):
        return f"poly degree {f.degree}"
    if isinstance(f, StructuredExtremal):
        return f"structured extremal k={f.k} l={f.zero_count}"
    return getattr(f, "__name__", None) or type(f).__name__


def wiener_bound_check(f, k: int, p: float, cfg: QuadConfig | None = None) -> WienerRatioReport:
    """Compare ||W_k f|| with the H^p bound max(k^{1/p-1}, 1) ||f||."""
    _check_k(k)
    if p <= 0:
        raise ValueError(f"p must be positive (got {p})")
    if math.isinf(p):
        norm = norm_hinf
    else:
        norm = lambda g: norm_hp(g, p, cfg)  # noqa: E731
    nf = norm(f)
    if nf == 0:
        raise ValueError("f has zero norm; the ratio is undefined")
    if isinstance(f, PolyCoeffs):
        nw = norm(wiener_coeffs(f, k))
    else:
        nw = norm(lambda z: wiener_eval(f, k, z))
    if p < 1:
        ratio, bound = (nw / nf) ** p, float(k) ** (1.0 - p)
    else:
        ratio, bound = nw / nf, 1.0
    return WienerRatioReport(k=k, p=p, ratio=ratio, bound=bound, f_descriptor=_describe(f))


# ---------------------------------------------------------------------------
# sharpness family f_eps(z) = (z - (1+eps))^{-1/p}
# ---------------------------------------------------------------------------

def _log_w(theta: np.ndarray, eps: float) -> np.ndarray:
    """log w for w = e^{i theta} - a, so that f_eps = exp(-log(w) / p).

    w is formed as -(eps + 2 sin^2(theta/2)) + i sin(theta), which keeps full
    relative accuracy next to the pole a = 1 + eps instead of cancelling in
    e^{i theta} - a.  Re w <= -eps < 0, so a logarithm cut along the
    positive reals never meets the range; taking arg in (0, 2 pi) keeps
    w^{-1/p} continuous around the whole circle.  (Any fixed branch shifts
    f_eps by a global unimodular constant only, leaving norms unchanged.)
    """
    s = np.sin(0.5 * theta)
    w = -(eps + 2.0 * s * s) + 1j * np.sin(theta)
    return np.log(np.abs(w)) + 1j * (np.angle(w) % _TWO_PI)


def _even_mean(h, half_period: float, rel_tol: float) -> float:
    """Circle mean of an even h with period 2 * half_period, from [0, half_period].

    ``circle_mean`` integrates h stretched onto [0, 2 pi), so a peak of h at
    0 lands on the seeded panel edge 0, where the starting panels are graded
    down to 3e-16 and double-precision nodes keep their full relative
    accuracy however far the panels are refined.
    """
    # The seed 0 is graded from both sides, and the side toward 2 pi is
    # needed: s = 2 pi is the half period, where W_k f_eps can nearly vanish.
    # At p = 1/2, k = 2, eps = 1e-8 the integrand is 7.1e-5 there and 7.1e-3
    # at 1e-4 rad from it; without those panels sharpness_ratio(0.5, 2, .)
    # moved from 6.7e-16 to 4.2e-12 off its 40-digit oracle.
    scale = half_period / _TWO_PI
    return circle_mean(lambda s: h(scale * s), rel_tol, seeds=(0.0,))


def _pole_mean(eps: float) -> float:
    """The mean of 1/|e^{i theta} - a| over the circle, a = 1 + eps > 1.

    It is (2 / (pi (a + 1))) K(2 sqrt(a) / (a + 1)), and K(k) is
    pi / (2 AGM(1, k')) with k' = (a - 1)/(a + 1) (Borwein & Borwein, Pi and
    the AGM, 1987), so the mean is 1 / ((2 + eps) AGM(1, eps / (2 + eps))).
    The AGM converges quadratically, in about log2(log(1/eps)) + 4 steps.
    """
    a, b = 1.0, eps / (2.0 + eps)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 1.0 / ((2.0 + eps) * a)


def sharpness_ratio(p: float, k: int, eps: float, rel_tol: float = 1e-11) -> float:
    """||W_k f_eps||^p / ||f_eps||^p; tends to k^{1-p} from below as eps -> 0.

    The convergence is logarithmic in 1/eps.  At p = 1/2, k = 2 a 40-digit
    mpmath oracle gives 1.2964379625 at eps = 1e-5 (91.7% of sqrt(2)),
    1.3440091880 at 1e-9 and 1.3504481309 at 1e-10; the ratio first reaches
    95% of the limit at eps ~ 1.18e-9.

    The denominator, the mean of |f_eps|^p = 1/|e^{i theta} - (1+eps)|, is
    a complete elliptic integral and comes from the AGM (``_pole_mean``).
    The one circle mean, of the numerator, is taken over a half period,
    where the integrand has its one peak at theta = 0, a seed of the panels,
    which are graded into it so that one integrand call resolves the peak.
    Against that oracle the result is within 7e-16 for every eps from 1
    down to 1e-12, in about 1 ms per call at p = 1/2, k = 2 and 2.5 ms at
    p = 0.1, k = 5 on a 2-vCPU x86-64 machine, whatever eps.  eps may be
    any positive, finite, non-subnormal float.
    """
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    _check_k(k)
    if not (sys.float_info.min <= eps < math.inf):
        # below the smallest normal float 1/eps overflows
        raise ValueError(f"eps must be positive, finite and not subnormal (got {eps})")

    # |W_k f_eps| is even with period 2 pi/k.  On [0, pi/k] the j = 0
    # rotation is the one nearest the pole; dividing every term by it keeps
    # the sum bounded however large eps^{-1/p} is.
    shifts = [_TWO_PI * j / k for j in range(k)]

    def num(theta):
        logs = [_log_w(theta + s, eps) for s in shifts]
        acc = sum(np.exp((logs[0] - lw) / p) for lw in logs)
        return np.abs(acc / k) ** p * np.exp(-logs[0].real)

    return _even_mean(num, math.pi / k, rel_tol) / _pole_mean(eps)


def inner_defect(f, k: int, N: int = 4096) -> float:
    """max over an N-grid of |1 - |W_k f||, for f of unit boundary modulus.

    A vanishing defect certifies that the averaged function is inner again,
    which forces W_k f = f; a positive defect witnesses W_k f != f.
    """
    _check_k(k)
    if not _is_int(N) or N < 4:
        raise ValueError(f"N must be an integer >= 4 (got {N!r})")
    theta = _TWO_PI * np.arange(N) / N
    z = np.exp(1j * theta)
    fv = _eval_points(f, z)
    if np.max(np.abs(np.abs(fv) - 1.0)) > 1e-8:
        raise ValueError("f does not have unit modulus on the boundary grid")
    wv = wiener_eval(f, k, z)
    return float(np.max(np.abs(1.0 - np.abs(wv))))
