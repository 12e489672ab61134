"""Reference values for the benchmark's correctness checks.

Nothing here imports hardyx.  The paper's closed forms are evaluated in
mpmath; norms of polynomials come from Parseval and from the Gamma-function
identity for (1 + z^m)^j; norms of structured extremals come from the exact
coefficient identity; Re a_k comes from a numpy FFT of this module's own
evaluation of the product form; the sharpness ratio at p = 1/2, k = 2 comes
from the complete elliptic integral K and the substitution w = z^2.

Floating-point starts are refined by Newton steps in mpmath, whose residual
is checked at working precision, so every returned value is correct to far
better than the tolerances the checks apply.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly

DPS = 32

# eps ladder of the sharpness operations; oracle_values.json holds the
# 40-digit ratios at p = 1/2, k = 2 (regenerate with `python3 perfbench/oracles.py`)
SHARPNESS_EPS = tuple(10.0 ** -n for n in range(2, 13))


class OracleError(ArithmeticError):
    """An oracle iteration did not reach its residual bound."""


def _eps(dps: int):
    return mp.mpf(10) ** (8 - dps)


# ---------------------------------------------------------------------------
# k = 1: alpha, beta, t_p and Phi_1
# ---------------------------------------------------------------------------

def _log_alpha(p: float, t: float) -> mp.mpf:
    """log alpha on the increasing branch of t = alpha (1 + alpha^2)^(-1/p).

    g(L) = L - log(1 + e^{2L}) / p - log t is concave and increasing there,
    so Newton from L = log t (where g <= 0) rises monotonically to the root.
    """
    inv = 0.0 if math.isinf(p) else 1.0 / p
    lt = math.log(t)
    L = lt
    for _ in range(200):
        step = (L - inv * math.log1p(math.exp(2 * L)) - lt) / (
            1.0 - 2.0 * inv / (1.0 + math.exp(-2 * L)))
        L -= step
        if abs(step) <= 1e-16 * (1.0 + abs(L)):
            break
    with mp.workdps(DPS):
        Lm, ltm, invm = mp.mpf(L), mp.log(t), (0 if inv == 0 else 1 / mp.mpf(p))
        for _ in range(200):
            e = mp.exp(2 * Lm)
            g = Lm - invm * mp.log1p(e) - ltm
            if abs(g) <= _eps(DPS):
                return Lm
            Lm -= g / (1 - 2 * invm * e / (1 + e))
    raise OracleError(f"alpha(p={p}, t={t}) did not converge")


def _scaled_F(p, L, exp=mp.exp):
    # e^{2L} F_p(e^L) with F_p(a) = p^2 a^-2 + 2p(2-p) + (2-p)^2 a^2 - 4(a^-p + a^{2-p} - 1)
    q = 2 - p
    return (p * p + 2 * p * q * exp(2 * L) + q * q * exp(4 * L)
            - 4 * (exp(q * L) + exp((4 - p) * L) - exp(2 * L)))


def _J(p, L, exp=mp.exp):
    # J_p(e^L) = 1 - 2 a^p + a^2, whose root in (0, 1) is alpha_1
    return 1 - 2 * exp(p * L) + exp(2 * L)


def _scaled_F_dL(p, L):
    q = 2 - p
    return (4 * p * q * mp.exp(2 * L) + 4 * q * q * mp.exp(4 * L)
            - 4 * (q * mp.exp(q * L) + (4 - p) * mp.exp((4 - p) * L) - 2 * mp.exp(2 * L)))


def _bisect(f, lo, hi, steps):
    f_lo = f(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _float_log_alpha_p(p: float):
    """Double-precision log alpha_p by bisection, or None if F_p loses its sign."""
    hi1 = math.log(p) / (2.0 - p)
    L1 = _bisect(lambda L: _J(p, L, math.exp), min(hi1 - 2, -math.log(2) / p - 1), hi1, 200)
    L2 = 0.5 * math.log(p / (2.0 - p))
    F = lambda L: _scaled_F(p, L, math.exp)  # noqa: E731
    if not F(L1) > 0 > F(L2):
        return None
    return _bisect(F, L1, L2, 200), L1, L2


def _newton_F(pm, L, lo, hi, dps, steps):
    for _ in range(steps):
        if not lo < L < hi:
            return None
        r, d = _scaled_F(pm, L), _scaled_F_dL(pm, L)
        step = r / d
        L -= step
        if abs(step) <= _eps(dps):
            return +L
    return None


def log_alpha_p(p: float) -> mp.mpf:
    """log alpha_p, the zero of F_p between alpha_1 and alpha_2 (0 < p < 1).

    alpha_1 solves 1 - 2a^p + a^2 = 0 left of the minimum a = p^{1/(2-p)};
    alpha_2 = sqrt(p / (2 - p)).  As p -> 1 the three merge at 1 and F_p
    cancels like (1 - p)^4, so the working precision grows with -log(1 - p),
    and the double-precision start is skipped once it cannot see the sign
    pattern.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    dps = DPS + int(6 * max(0.0, -math.log10(1.0 - p)))
    start = _float_log_alpha_p(p) if p <= 0.99 else None
    with mp.workdps(dps):
        pm = mp.mpf(p)
        if start is not None:
            L, lo, hi = start
            slack = 1e-9 * (1.0 + abs(lo))
            out = _newton_F(pm, mp.mpf(L), lo - slack, hi + slack, dps, 12)
            if out is not None:
                return out
        hi1 = mp.log(pm) / (2 - pm)
        L1 = _bisect(lambda L: _J(pm, L), min(hi1 - 2, -mp.log(2) / pm - 1), hi1, 4 * dps)
        L2 = mp.log(pm / (2 - pm)) / 2
        F = lambda L: _scaled_F(pm, L)  # noqa: E731
        if not F(L1) > 0 > F(L2):
            raise OracleError(f"F_p has no sign change on [alpha_1, alpha_2] at p={p}")
        L = _bisect(F, L1, L2, 30)
        out = _newton_F(pm, L, L1, L2, dps, 40)
        return out if out is not None else _bisect(F, L1, L2, 4 * dps)


def t_p(p: float) -> float:
    """The regime switch point alpha_p (1 + alpha_p^2)^{-1/p}, 0 < p < 1."""
    L = log_alpha_p(p)
    with mp.workdps(DPS):
        return float(mp.exp(L - mp.log1p(mp.exp(2 * L)) / p))


def switch_point(p: float) -> float:
    """Where the first-coefficient extremal changes regime."""
    if math.isinf(p):
        return 1.0
    if p >= 1:
        return 2.0 ** (-1.0 / p)
    return t_p(p)


def phi1(p: float, t: float, switch: float) -> float:
    """Phi_1(p, t), the sharp bound on Re a_1, given the switch point.

    Below the switch the extremal has parameter alpha and value
    (1 + alpha^2)^{-1/p} (1 + (2/p - 1) alpha^2); above it beta =
    sqrt(t^{-p} - 1) and value 2 beta / p (1 + beta^2)^{-1/p}.  At p = inf
    the value is 1 - t^2.
    """
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1] (got {t})")
    with mp.workdps(DPS):
        if math.isinf(p):
            return float(1 - mp.mpf(t) ** 2)
        if t == 0:
            return 1.0
        pm = mp.mpf(p)
        if t < switch:
            a2 = mp.exp(2 * _log_alpha(p, t))
            return float((1 + a2) ** (-1 / pm) * (1 + (2 / pm - 1) * a2))
        b2 = mp.mpf(t) ** (-pm) - 1
        return float(2 * mp.sqrt(b2) / pm * (1 + b2) ** (-1 / pm))


def tp_band(p: float) -> tuple[float, float]:
    """log of the paper's band 2^{-1/p} < t_p < 2^{-1/p} sqrt(p) (2-p)^{1/p-1/2}."""
    lo = -math.log(2.0) / p
    return lo, lo + 0.5 * math.log(p) + (1.0 / p - 0.5) * math.log(2.0 - p)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def parseval(coeffs) -> float:
    """The H^2 norm of a polynomial, sqrt(sum |a_n|^2)."""
    c = np.asarray(coeffs, dtype=complex)
    return math.sqrt(math.fsum((c.real ** 2 + c.imag ** 2).tolist()))


def cusp_norm(j: int, p: float) -> float:
    """||(1 + z^m)^j||_p = (Gamma(1 + jp) / Gamma(1 + jp/2)^2)^{1/p}, any m >= 1."""
    with mp.workdps(DPS):
        s = j * mp.mpf(p)
        return float((mp.gamma(1 + s) / mp.gamma(1 + s / 2) ** 2) ** (1 / mp.mpf(p)))


def cusp_coeffs(j: int, m: int) -> list[float]:
    """Taylor coefficients of (1 + z^m)^j."""
    c = [0.0] * (j * m + 1)
    for i in range(j + 1):
        c[i * m] = float(math.comb(j, i))
    return c


# ---------------------------------------------------------------------------
# structured extremals C prod_{j<l} (lam_j - z)/(1 - conj(lam_j) z) prod_j (1 - conj(lam_j) z)^{2/p}
# ---------------------------------------------------------------------------

_UNIMODULAR = 1e-14


def structured_norm(scale: complex, p: float, lambdas) -> float:
    """||f||_p from |f|^p = |C|^p |prod_j (1 - conj(lam_j) z)|^2 on the circle.

    The mean of |f|^p is |C|^p sum |c_n|^2 over the coefficients c_n of
    prod_j (1 - conj(lam_j) z).  At p = inf only the Blaschke factors are
    present and they are unimodular, so the norm is |C|.
    """
    if math.isinf(p):
        return abs(scale)
    c = np.array([1.0 + 0j])
    for lam in lambdas:
        c = npoly.polymul(c, [1.0, -np.conj(lam)])
    return abs(scale) * math.fsum((c.real ** 2 + c.imag ** 2).tolist()) ** (1.0 / p)


def structured_origin(scale: complex, zero_count: int, lambdas) -> complex:
    """f(0) = C prod_{j<l} lam_j; every outer factor is 1 at the origin."""
    out = complex(scale)
    for lam in lambdas[:zero_count]:
        out *= complex(lam)
    return out


def _structured_boundary(scale, p, zero_count, lambdas, n):
    z = np.exp(2j * np.pi * np.arange(n) / n)
    out = np.full(n, complex(scale))
    for lam in lambdas[:zero_count]:
        if abs(abs(lam) - 1.0) <= _UNIMODULAR:
            out *= lam  # a unimodular Blaschke factor is the constant lam
        else:
            out *= (lam - z) / (1.0 - np.conj(lam) * z)
    if not math.isinf(p):
        for lam in lambdas:
            w = 1.0 - np.conj(lam) * z
            with np.errstate(divide="ignore"):
                out *= np.where(w == 0, 0.0, np.exp((2.0 / p) * np.log(np.where(w == 0, 1.0, w))))
    return out


def structured_coeff(scale: complex, p: float, zero_count: int, lambdas, k: int) -> complex:
    """a_k of the product form by FFT of boundary values, doubled until stable."""
    n, prev = 1 << 12, None
    while n <= 1 << 20:
        cur = complex(np.fft.fft(_structured_boundary(scale, p, zero_count, lambdas, n))[k] / n)
        if prev is not None and abs(cur - prev) <= 1e-11 * max(1.0, abs(cur)):
            return cur
        prev, n = cur, 2 * n
    raise OracleError("FFT coefficient did not stabilise")


# ---------------------------------------------------------------------------
# sharpness family f_eps = (z - (1 + eps))^{-1/p} at p = 1/2, k = 2
# ---------------------------------------------------------------------------

def sharpness_half_two(eps: float, dps: int = 40) -> float:
    """||W_2 f_eps||^{1/2} / ||f_eps||^{1/2} at p = 1/2.

    f_eps = (z - a)^{-2} with a = 1 + eps.  The mean of |f_eps|^{1/2} =
    1/|z - a| is 2 K(4a/(a+1)^2) / (pi (a+1)).  W_2 f_eps = (z^2 + a^2) /
    (z^2 - a^2)^2, and w = z^2 turns the mean of its |.|^{1/2} into the mean
    of |w + a^2|^{1/2} / |w - a^2|, integrated over [0, pi] with breakpoints
    graded geometrically into the peak at 0.
    """
    with mp.workdps(dps):
        a = 1 + mp.mpf(eps)
        b = a * a
        den = 2 / (mp.pi * (a + 1)) * mp.ellipk(4 * a / (a + 1) ** 2)
        g = lambda t: mp.sqrt(abs(mp.expj(t) + b)) / abs(mp.expj(t) - b)  # noqa: E731
        width = b - 1
        pts = [mp.mpf(0)] + [width * 4 ** j for j in range(-2, 60) if width * 4 ** j < mp.pi]
        num = mp.quad(g, pts + [mp.pi]) / mp.pi
        return float(num / den)


def _main():
    import json
    import pathlib

    out = pathlib.Path(__file__).with_name("oracle_values.json")
    values = {repr(eps): sharpness_half_two(eps) for eps in SHARPNESS_EPS}
    out.write_text(json.dumps({"sharpness_half_two": values}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    _main()
