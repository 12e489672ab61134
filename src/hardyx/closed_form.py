"""Closed forms and implicit equations for the first-coefficient extremum.

phi1(p, t) evaluates the sharp bound on Re a_1 over the unit ball of H^p
with f(0) = t fixed.  Two regimes meet at a switch point: below it the
extremal is a Moebius-type product (parameter alpha), above it an outer
function (parameter beta).  For p >= 1 the switch sits at 2^{-1/p}; for
0 < p < 1 it sits at the threshold t_p defined implicitly by F_p(alpha_p)=0,
where both regimes attain the same value and the extremal is non-unique.

All implicit equations are solved in log(alpha) by Newton's method kept
inside a sign-changing bracket.  The log coordinate matters: alpha_p is
about e^{-349} at p = 1e-300, the small end of the supported p range, and
alpha_1(p) behaves like 2^{-1/p}; a root-finder in alpha itself would lose
all relative accuracy there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "MOEBIUS_OUTER",
    "OUTER",
    "BOTH",
    "ClosedFormResult",
    "RootBracket",
    "solve_alpha",
    "solve_beta",
    "phi1",
    "F_p",
    "alpha1",
    "alpha2",
    "alpha_p",
    "t_p",
    "beta_of_alpha",
    "t_star",
    "psi1",
    "AppendixValues",
    "appendix_functions",
]

MOEBIUS_OUTER = "MOEBIUS_OUTER"
OUTER = "OUTER"
BOTH = "BOTH"

# threshold for treating t as sitting exactly on a regime boundary
_BOUNDARY_SNAP = 1e-13
# smallest p at which t_p, alpha_p and phi1 answer (see _log_alpha_p)
_P_MIN = 1e-300
# below this 1 - p, alpha_p is solved on the u-form of F_p (_Fp_near_one)
_NEAR_ONE = 0.35


@dataclass(frozen=True)
class ClosedFormResult:
    value: float
    regime: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.regime not in (MOEBIUS_OUTER, OUTER, BOTH):
            raise ValueError(f"unknown regime tag {self.regime!r}")
        if self.value < 0:
            raise ValueError("value must be non-negative")
        if (self.alpha is None) == (self.regime in (MOEBIUS_OUTER, BOTH)):
            raise ValueError("alpha present iff regime is MOEBIUS_OUTER or BOTH")
        if (self.beta is None) == (self.regime in (OUTER, BOTH)):
            raise ValueError("beta present iff regime is OUTER or BOTH")


@dataclass(frozen=True)
class RootBracket:
    """A sign-changing interval, which the bracketed Newton iteration keeps shrinking."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")
        if not self.f_lo * self.f_hi < 0:
            raise ValueError("bracket endpoints must have opposite signs")


def _root(fdf, br: RootBracket, tol: float = 1e-13, x0: float | None = None) -> float:
    """Newton's method kept inside a verified bracket (rtsafe, Numerical Recipes §9.4).

    fdf(x) returns (f(x), f'(x)).  From x0, if it lies inside the open
    bracket, or else from the midpoint on, each value of f replaces the end
    of the bracket with its sign.  A Newton step that leaves the open
    bracket, is not under half the step before last, or has f' zero or not
    finite becomes a bisection step.  Returns once |f/f'| <= tol, or at a
    bisection midpoint within tol of both ends or rounding to one of them.
    """
    lo, hi, f_lo = br.lo, br.hi, br.f_lo
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    while True:
        fx, d = fdf(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (f_lo > 0):
            lo, f_lo = x, fx
        else:
            hi = x
        step = fx / d if d != 0 and math.isfinite(d) else math.nan
        if abs(step) <= tol:
            return x - step
        if lo < x - step < hi and abs(2 * fx) <= abs(dx_old * d):
            dx_old, dx = dx, step
            x -= step
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            x = lo + dx
            if dx <= tol or x == lo or x == hi:
                return x


# ---------------------------------------------------------------------------
# forward maps and implicit equations
# ---------------------------------------------------------------------------

def _t_of_log_alpha(p: float, L: float) -> float:
    # alpha (1+alpha^2)^{-1/p} evaluated from L = log(alpha), overflow-free;
    # finite p only (t_p and _branch_top at p < 1 call it)
    return math.exp(L - math.log1p(math.exp(2 * L)) / p)


def _branch_top(p: float) -> tuple[float, float]:
    """(log alpha, t) at the top of the increasing branch of t(alpha), finite p.

    The branch ends at alpha = 1 for p >= 1 and at alpha2(p) for 0 < p < 1,
    where t = alpha (1+alpha^2)^{-1/p} turns around; its t is the largest
    value the map reaches on [0, 1].
    """
    if p >= 1:
        return 0.0, 2.0 ** (-1.0 / p)
    L = 0.5 * (math.log(p) - math.log(2.0 - p))  # log alpha2
    return L, _t_of_log_alpha(p, L)


@functools.lru_cache(maxsize=256)
def _one_zero_top(k: int, p: float) -> tuple[float, float]:
    """(log r*, U) for U = sup_{0<r<=1} r (S_{k-1}(r) / S_k(r))^{1/p}, finite p.

    S_n(r) = sum_{j<=n} r^{2j}.  U bounds |g(0)|/||g|| at zero count 1 of
    the degree-k search (solver module docstring).  With x = r^2 = e^u, the
    log of the maximand is h(u) = u/2 - log1p(x^k / S_{k-1}) / p, and
    h'(u) = 1/2 - D(x)/p, where D = m_k - m_{k-1} and m_n is the mean of j
    under the weights x^j on 0..n.  D' = V_k - V_{k-1} for the variances
    V_n under the same weights; for x <= 1 the top point k adds spread, so
    h is strictly concave.  D(1) = 1/2, so for p >= 1 the sup is at r = 1,
    where U = (k/(k+1))^{1/p}.  For p < 1 the root of h' lies where
    x^k / 2 <= D = p/2 <= k x^k, and bisection on the sign of h' finds it.
    There -h'' <= k^2 x^k / p <= k, so at the midpoint of the final bracket,
    of width du <= 1e-12, h falls short of its maximum by at most k du^2,
    and its rounding costs a few ulp: the solver's 2 _FEAS_TOL margin
    covers both.  At k = 1 this is the top of the alpha branch, _branch_top.
    """
    if p >= 1:
        return 0.0, (k / (k + 1)) ** (1.0 / p)

    def gap(x):
        # D(x) = x^k sum_{j<k} (k-j) x^j / (S_{k-1} S_k), and S_{k-1}, by Horner
        s = w = 0.0
        for j in range(k - 1, -1, -1):
            s = s * x + 1.0
            w = w * x + (k - j)
        xk = x ** k
        return xk * w / (s * (s + xk)), xk / s

    lo = (math.log(p) - math.log(2 * k)) / k
    hi = math.log(p) / k
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(math.exp(mid))[0] < 0.5 * p:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    return 0.5 * u, math.exp(0.5 * u - math.log1p(gap(math.exp(u))[1]) / p)


def solve_alpha(p: float, t: float) -> float:
    """Invert t = alpha (1+alpha^2)^{-1/p} on the relevant increasing branch.

    For p >= 1 that branch is alpha in [0, 1) onto [0, 2^{-1/p}); for
    0 < p < 1 it is [0, alpha2(p)], beyond which the map turns around.
    """
    if p <= 0:
        raise ValueError(f"p must be positive (got {p})")
    if t < 0:
        raise ValueError(f"t must be non-negative (got {t})")
    if t == 0:
        return 0.0
    if math.isinf(p):
        if t >= 1:
            raise ValueError(f"t={t} outside [0, 1) for the p=inf branch")
        return t

    hi_L, top = _branch_top(p)
    if t >= top:
        # the top, where h below has a double root for p <= 1, and rounding
        # noise above it are snapped; anything worse is a domain error
        if t <= top * (1 + 1e-12):
            return math.exp(hi_L)
        raise ValueError(f"t={t} exceeds the branch maximum {top}")

    # The root L = log alpha of h(L) = L - log1p(e^{2L})/p - log t, nearly
    # linear where the residual t(L) - t is exponential, is sought as
    # d = L - log t: alpha = t e^d then keeps full relative accuracy however
    # small t is, where e^L would carry |log t| ulps.  As t(L) <= e^L the
    # root has d >= 0, and h is concave and increasing there, so Newton's
    # step from d = 0 stays at or below the root.
    log_t = math.log(t)

    def hdh(d):
        a2 = math.exp(2 * (log_t + d))
        return d - math.log1p(a2) / p, 1.0 - (2.0 / p) * a2 / (1.0 + a2)

    h_lo, dh_lo = hdh(0.0)
    if h_lo == 0.0:
        # t^2 underflows, and alpha = t (1 + alpha^2)^{1/p} is t
        return t
    hi_d = hi_L - log_t
    h_hi = hdh(hi_d)[0]
    if h_hi <= 0.0:
        # t lies within rounding of the top of the branch
        return math.exp(hi_L)
    d = _root(hdh, RootBracket(0.0, hi_d, h_lo, h_hi), x0=-h_lo / dh_lo)
    return t * math.exp(d)


def solve_beta(p: float, t: float) -> float:
    """beta = sqrt(t^{-p} - 1), valid while it lands in [0, 1]."""
    if not (0 < p < math.inf):
        raise ValueError(f"p must lie in (0, inf) (got {p})")
    if not (0 < t <= 1):
        raise ValueError(f"t must lie in (0, 1] (got {t})")
    try:
        b2 = t ** (-p) - 1.0
    except OverflowError:
        # t^{-p} past the double range puts beta far above 1
        raise ValueError(f"t={t} lies below the outer branch (t^-p overflows)") from None
    beta = math.sqrt(max(b2, 0.0))
    if beta > 1.0:
        if beta <= 1.0 + 1e-12:
            return 1.0
        raise ValueError(f"t={t} lies below the outer branch (beta={beta} > 1)")
    return beta


def _case1_value(p: float, alpha: float) -> float:
    if math.isinf(p):
        return 1.0 - alpha * alpha
    a2 = alpha * alpha
    return math.exp(-math.log1p(a2) / p) * (1.0 + (2.0 / p - 1.0) * a2)


def _case2_value(p: float, beta: float) -> float:
    # finite p only: phi1 returns its p = inf value 0 itself
    b2 = beta * beta
    return math.exp(-math.log1p(b2) / p) * 2.0 * beta / p


def phi1(p: float, t: float) -> ClosedFormResult:
    """The sharp first-coefficient bound at fixed f(0) = t, with regime tag.

    Domain: p >= _P_MIN = 1e-300 (or inf) and 0 <= t <= 1.  Smaller p raise
    ValueError: t_p, which places the regime switch for p < 1, is certified
    down to that floor and no further.  Above t_p, solve_beta's
    t^{-p} - 1 cancels as p -> 0, so the outer regime's relative error
    grows like 1e-16 / (p log(1/t)).
    """
    if p <= 0:
        raise ValueError(f"p must be positive (got {p})")
    if not (0 <= t <= 1):
        raise ValueError(f"t must lie in [0, 1] (got {t})")

    if p >= 1:
        switch = 1.0 if math.isinf(p) else 2.0 ** (-1.0 / p)
        if t < switch - _BOUNDARY_SNAP:
            alpha = solve_alpha(p, t)
            return ClosedFormResult(_case1_value(p, alpha), MOEBIUS_OUTER, alpha=alpha)
        if math.isinf(p):
            return ClosedFormResult(0.0, OUTER, beta=0.0)
        beta = solve_beta(p, max(t, switch))
        return ClosedFormResult(_case2_value(p, beta), OUTER, beta=beta)

    tp = t_p(p)
    if abs(t - tp) <= _BOUNDARY_SNAP * max(1.0, tp):
        ap = alpha_p(p)
        beta = beta_of_alpha(p, ap)
        return ClosedFormResult(_case1_value(p, ap), BOTH, alpha=ap, beta=beta)
    if t < tp:
        alpha = solve_alpha(p, t)
        return ClosedFormResult(_case1_value(p, alpha), MOEBIUS_OUTER, alpha=alpha)
    beta = solve_beta(p, t)
    return ClosedFormResult(_case2_value(p, beta), OUTER, beta=beta)


# ---------------------------------------------------------------------------
# the 0 < p < 1 implicit machinery
# ---------------------------------------------------------------------------

def F_p(p: float, alpha: float) -> float:
    """p^2 a^{-2} + 2p(2-p) + (2-p)^2 a^2 - 4(a^{-p} + a^{2-p} - 1).

    Evaluated as (p/a + (2-p) a)^2 - 4 expm1(log1p(a^2) - p log a), the
    same sum regrouped so that only the two squares' difference cancels.
    Near a = 1 that difference is F_p = O(u^3), u = -log a, out of O(1)
    terms, so where the series of _Fp_near_one hold (u <= 0.55 and
    (1-p) u <= 0.2) it is u^4 times that scaled u-form, and F_p(p, 1) = 0.
    For alpha so small that p/alpha leaves the double range the value is
    +inf, which is its sign there.

    Domain: 1e-12 <= p < 1.  As p -> 0, F_p = O(p) while its terms stay
    O(1), so the relative error grows like 1/p: against a 120-digit sum it
    is within 4e-14/p at 50 alpha in (1e-6, 1 - 1e-9), for p from 0.5 down
    to 1e-12, where it is 1.1e-2.  Smaller p raise ValueError: from about
    p = 1e-14 on the value can take the wrong sign, as at (1e-100, 0.9),
    where it was +1.1e-19 against -2.8e-103.
    """
    if not (1e-12 <= p < 1):
        raise ValueError(f"p must lie in [1e-12, 1) (got {p})")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1] (got {alpha})")
    L = math.log(alpha)
    if -L <= 0.55 and -(1 - p) * L <= 0.2:
        return L ** 4 * _Fp_near_one(1 - p, L)[0] if L else 0.0
    x = math.log1p(alpha * alpha) - p * L
    if x > 709.0:
        # alpha < e^{-709}: the square, about (p/alpha)^2, overflows first
        return math.inf
    a = p / alpha + (2 - p) * alpha
    return a * a - 4 * math.expm1(x)


def _Jp_log(p: float, L: float) -> tuple[float, float]:
    """J_p(a) = 1 - 2 a^p + a^2 at L = log a, and its derivative 2(a^2 - p a^p) in L.

    Both regrouped through expm1 so that as p -> 1 only O((1-p)^2) terms
    cancel, and as p -> 0 neither power loses accuracy.
    """
    em = math.expm1(L)
    ap = math.exp(p * L)
    eq = math.expm1((1 - p) * L)
    return em * em + 2 * ap * eq, 2 * ((em + 1) * em + ap * eq + (1 - p) * ap)


def alpha1(p: float) -> float:
    """The root in (0, 1) of J_p(a) = 1 - 2 a^p + a^2 = 0; behaves like 2^{-1/p}.

    Domain: 1/1022 <= p < 1, where the root is at least the smallest normal
    double 2^-1022 and keeps full relative precision.  Other p raise
    ValueError: below 1/1022 the root would be subnormal or underflow to 0.
    t_p and phi1 work with log alpha and do not need it.
    """
    if not (1.0 / 1022.0 <= p < 1):
        raise ValueError(f"alpha1 needs 1/1022 <= p < 1 (got {p}): "
                         f"alpha_1 ~ 2^(-1/p) leaves the normal double range below")
    fdf = functools.partial(_Jp_log, p)
    # J_p decreases to its minimum at a = p^{1/(2-p)} and is negative there,
    # so the interior root lies left of the minimum; at L = -log(2)/p - 1
    # the middle term is e^{-p} < 1, so J_p > 0 there and further left
    hi = math.log(p) / (2.0 - p)
    lo = min(hi - 2.0, -math.log(2.0) / p - 1.0)
    # as p -> 1 the root nears a double one at L = 0: the tolerance follows it
    L = _root(fdf, RootBracket(lo, hi, fdf(lo)[0], fdf(hi)[0]), tol=1e-13 * min(1.0, -hi))
    if abs(fdf(L)[0]) > 1e-13:
        raise RuntimeError(f"J_p residual too large at the computed root for p={p}")
    return math.exp(L)


def alpha2(p: float) -> float:
    """sqrt(p / (2-p)), the stationary point of F_p."""
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    # two roots, so that a subnormal p keeps its digits
    return math.sqrt(p) / math.sqrt(2.0 - p)


def _Fp_scaled(p: float, lp: float, L: float) -> tuple[float, float]:
    """a^2 F_p(a) / p^2 at L = log a (lp = log p), and its derivative in L.

    The exact regrouping a^2 F_p = (p + (2-p) a^2)^2 - 4 a^2 expm1(log1p(a^2)
    - p L), over p^2: with w = a^2/p every term is O(1) down to p = _P_MIN,
    and only the two terms' difference cancels.  As p -> 1 they both tend to
    4 while F_p is O((1-p)^4), which is where _Fp_near_one takes over.
    """
    w = math.exp(2 * L - lp)
    em = math.expm1(math.log1p(p * w) - p * L)
    a = 1 + (2 - p) * w
    return (a * a - 4 * w * em / p,
            4 * w * ((2 - p) * a - 2 * em / p - (em + 1) * (2 * w / (1 + p * w) - 1)))


def _Fp_near_one(d: float, L: float) -> tuple[float, float]:
    """F_p(a) / u^4 at p = 1 - d and u = -L = -log a, and its derivative in L.

    With c = cosh u and s = sinh u, exactly
    F_p / 4 = (c-1)^2 + d^2 (s^2 - u^2 c) - 2c [E(du) + d (s - u)],
    E(x) = e^{-x} - 1 + x - x^2/2, and c - 1 = 2 sinh^2(u/2).  E and s - u
    come from their Taylor series (to within 2^-56 for u <= 0.55, x <= 0.2),
    and s^2 - u^2 c = (s - u)(s + u) - u^2 (c - 1) loses about 2 bits, so
    every term keeps its relative accuracy as u ~ 4d/3 -> 0 and the terms
    are all O(d^4): F_p / u^4 is O(1) at the root.
    """
    u = -L
    w = u * u
    sh = math.sinh(0.5 * u)
    cm = 2 * sh * sh
    c = 1 + cm
    sm = u * w * (1 / 6 + w * (1 / 120 + w * (1 / 5040 + w * (1 / 362880 + w * (
        1 / 39916800 + w * (1 / 6227020800 + w / 1307674368000))))))
    s = u + sm
    x = d * u
    e3 = x * x * x * (-1 / 6 + x * (1 / 24 + x * (-1 / 120 + x * (1 / 720 + x * (
        -1 / 5040 + x * (1 / 40320 + x * (-1 / 362880 + x * (1 / 3628800 + x * (
        -1 / 39916800 + x * (1 / 479001600 - x / 6227020800))))))))))
    g = e3 + d * sm
    h = cm * cm + d * d * (sm * (s + u) - w * cm) - 2 * c * g
    dh = 2 * cm * s + d * d * (2 * c * sm - w * s) - 2 * s * g - 2 * c * d * (cm - e3 - 0.5 * x * x)
    u4 = w * w
    return 4 * h / u4, 4 * (4 * h / u - dh) / u4


@functools.lru_cache(maxsize=256)
def _log_alpha_p(p: float) -> float:
    """log alpha_p, memoised per p.

    F_p decreases on (0, alpha2), its only stationary point, so its zero
    alpha_p is bracketed by [1.5 log alpha2, log alpha2]: log alpha_p /
    log alpha2 rises from 1 as p -> 0 to at most 1.342 (near p = 0.2) and
    tends to 4/3 as p -> 1, where u_p ~ 4(1-p)/3 and u2 = atanh(1-p).  So
    the Newton iteration starts at (4/3) log alpha2.  A p that raises is
    not remembered and raises again.
    """
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    if p < _P_MIN:
        raise ValueError(f"p = {p} lies below {_P_MIN}, the smallest p the closed forms "
                         f"support: a^2/p and p log a would leave the normal doubles")
    d = 1.0 - p
    if d < _NEAR_ONE:
        fdf = functools.partial(_Fp_near_one, d)
        hi = -math.atanh(d)
    else:
        lp = math.log(p)
        fdf = functools.partial(_Fp_scaled, p, lp)
        hi = 0.5 * (lp - math.log(2.0 - p))
    lo = 1.5 * hi
    f_lo, f_hi = fdf(lo)[0], fdf(hi)[0]
    if not (f_lo > 0 and f_hi < 0):
        raise RuntimeError(f"F_p sign pattern violated at the bracket for p={p}: "
                           f"{f_lo} at log a = {lo}, {f_hi} at log alpha2 = {hi}")
    L = _root(fdf, RootBracket(lo, hi, f_lo, f_hi), x0=4.0 / 3.0 * hi)
    if abs(fdf(L)[0]) > 1e-12:
        raise RuntimeError(f"F_p residual too large at the computed root for p={p}")
    return L


def alpha_p(p: float) -> float:
    """The unique zero of F_p between alpha1 and alpha2, to about an ulp of log alpha.

    Domain: _P_MIN = 1e-300 <= p < 1; smaller p raise ValueError.
    """
    return math.exp(_log_alpha_p(p))


# memoised apart from log alpha_p: one memo of (log alpha_p, t_p) pairs
# raised the curves benchmark's peak memory by 0.6 MB, two of floats do not
@functools.lru_cache(maxsize=256)
def t_p(p: float) -> float:
    """The regime-switch point alpha_p (1 + alpha_p^2)^{-1/p} for p < 1.

    Domain: _P_MIN = 1e-300 <= p < 1; smaller p raise ValueError.  The
    relative error is about an ulp of log t_p: within 1e-14 for p >= 1e-17.
    Memoised per p, since phi1 asks for it on every call.
    """
    return _t_of_log_alpha(p, _log_alpha_p(p))


def _tp_band_log(p: float) -> tuple[float, float]:
    """Logs of the band edges 2^{-1/p} < t_p < 2^{-1/p} sqrt(p) (2-p)^{1/p-1/2}.

    In log space, so small p can neither underflow the lower edge nor
    overflow the powers in the upper one.
    """
    log_lo = -math.log(2.0) / p
    return log_lo, log_lo + 0.5 * math.log(p) + (1.0 / p - 0.5) * math.log(2.0 - p)


def beta_of_alpha(p: float, alpha: float) -> float:
    """The outer-branch parameter reaching the same t as alpha: beta^2 = a^{-p} (1 + a^2) - 1.

    Domain: 0 < p < inf and 0 < alpha <= 1 where beta^2 stays in the double
    range, as it does for every alpha at p <= 0.95; elsewhere ValueError.
    """
    if not (0 < p < math.inf):
        raise ValueError(f"p must lie in (0, inf) (got {p})")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1] (got {alpha})")
    try:
        b2 = math.expm1(math.log1p(alpha * alpha) - p * math.log(alpha))
    except OverflowError:
        raise ValueError(f"beta^2 leaves the double range at p={p}, alpha={alpha}") from None
    return math.sqrt(b2)


def t_star(p: float) -> float:
    """(1 - p/2)^{1/p}, where t -> phi1(p, t) peaks for 0 < p < 1.

    Domain: _P_MIN = 1e-300 <= p < 2, the floor of t_p and phi1; smaller p
    raise ValueError (at subnormal p, -p/2 rounds, and at 5e-324 to 0).
    """
    if not (_P_MIN <= p < 2):
        raise ValueError(f"p must lie in [{_P_MIN}, 2) (got {p})")
    return math.exp(math.log1p(-0.5 * p) / p)


def psi1(p: float) -> float:
    """(1 - p/2)^{1/p} * 2 / sqrt(p(2-p)), the peak value of phi1(p, .), on t_star's domain."""
    return t_star(p) * 2.0 / math.sqrt(p * (2.0 - p))


# ---------------------------------------------------------------------------
# auxiliary functions backing the sign analysis of F_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendixValues:
    G_p: float
    H: float
    I: float
    J_p: float
    K: float


def appendix_functions(p: float, x: float) -> AppendixValues:
    """Evaluate the auxiliary quantities used in the F_p sign analysis.

    G_p and J_p are functions of x = alpha; H, I, K depend on p alone.
    G_p is the scaled derivative a^{1+p} F_p'(a) / (2(2-p)) in closed form.
    Domain: 0 < p < 1 and 0 < x <= 1 where p x^{p-2}, a factor of G_p's
    first term, stays in the double range; elsewhere ValueError.
    """
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    if not (0 < x <= 1):
        raise ValueError(f"x must lie in (0, 1] (got {x})")
    L = math.log(x)
    lp = math.log(p)
    try:
        g1 = p / (2.0 - p) * math.exp(lp + (p - 2.0) * L)
    except OverflowError:
        raise ValueError(f"G_p leaves the double range at p={p}, x={x}") from None
    g = (
        -g1
        + (2.0 - p) * math.exp((2.0 + p) * L)
        + 2.0 * p / (2.0 - p)
        - 2.0 * math.exp(2.0 * L)
    )
    h = 2.0 - (1.0 + 2.0 * p - p * p) * p ** (0.5 * p) * (2.0 - p) ** (
        0.5 * (2.0 - p)
    )
    i = 4.0 * (1.0 - p) / (1.0 + 2.0 * p - p * p) + lp - math.log(2.0 - p)
    k = 2.0 - 2.0 * p + p * p - p ** p * (2.0 - p) ** (2.0 - p)
    return AppendixValues(G_p=g, H=h, I=i, J_p=_Jp_log(p, L)[0], K=k)
