import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyx import closed_form
from hardyx.closed_form import (
    BOTH,
    MOEBIUS_OUTER,
    OUTER,
    ClosedFormResult,
    F_p,
    _branch_top,
    _Jp_log,
    _root,
    alpha1,
    alpha2,
    alpha_p,
    appendix_functions,
    beta_of_alpha,
    phi1,
    psi1,
    solve_alpha,
    solve_beta,
    t_p,
    t_star,
)

INF = math.inf


# ---------------------------------------------------------------------------
# implicit-parameter solvers
# ---------------------------------------------------------------------------

def test_solve_alpha_basics():
    assert solve_alpha(2.0, 0.0) == 0.0
    # near the top of the p = 1 branch the parameter approaches 1
    assert solve_alpha(1.0, 0.4999) > 0.95
    a = solve_alpha(0.5, 0.3)
    assert a * (1 + a * a) ** -2.0 == pytest.approx(0.3, abs=1e-12)


def test_solve_alpha_top_of_branch():
    assert solve_alpha(2.0, 2.0**-0.5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        solve_alpha(2.0, 0.8)
    with pytest.raises(ValueError):
        solve_alpha(0.5, 0.5)  # above the increasing branch's reach


def test_solve_alpha_one_ulp_below_the_top_takes_the_top():
    # h at the branch top rounds to -1.1e-16 here, so no root is bracketed
    # and the rounding fallback returns the top's alpha
    hi_L, top = _branch_top(0.5)
    t = math.nextafter(top, 0.0)
    assert t == 0.3247595264191645
    assert solve_alpha(0.5, t) == math.exp(hi_L)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=8.0),
    frac=st.floats(min_value=0.0, max_value=0.999),
)
def test_solve_alpha_forward_round_trip(p, frac):
    t = frac * 2.0 ** (-1.0 / p)
    a = solve_alpha(p, t)
    assert 0.0 <= a < 1.0
    assert a * (1 + a * a) ** (-1.0 / p) == pytest.approx(t, abs=1e-10)


def test_solve_beta_examples():
    assert solve_beta(0.7, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert solve_beta(1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert solve_beta(0.5, 0.81) == pytest.approx(1.0 / 3.0, abs=1e-13)
    with pytest.raises(ValueError):
        solve_beta(1.0, 0.4)  # would need beta > 1


# t from the smallest subnormal to the last double below 1
_T_GRID_INF = [5e-324, 1e-310, 2.2250738585072014e-308, *(10.0 ** -e for e in range(300, 0, -20)),
               0.25, 0.5, 0.75, 0.9, 1 - 1e-9, 1 - 1e-13, 1 - 2.0**-53]


def test_solve_alpha_and_beta_at_p_inf():
    # at p = inf t(alpha) is alpha itself, and the outer branch is t = 1 alone
    for t in _T_GRID_INF:
        assert solve_alpha(INF, t) == t, t
        with pytest.raises(ValueError, match="below the outer branch"):
            solve_beta(INF, t)
    assert solve_alpha(INF, 0.0) == 0.0
    assert solve_alpha(INF, 1.0) == 1.0
    assert solve_beta(INF, 1.0) == 0.0
    with pytest.raises(ValueError, match="exceeds the branch maximum"):
        solve_alpha(INF, 1 + 1e-9)


def test_solve_beta_snaps_rounding_at_the_switch_to_one():
    # at p = 2 beta reaches 1 at t = 2^-1/2; a double below it rounds beta
    # just above 1, while 1e-6 below it lies off the outer branch
    assert solve_beta(2.0, math.nextafter(2**-0.5, 0)) == 1.0
    with pytest.raises(ValueError, match="below the outer branch"):
        solve_beta(2.0, 2**-0.5 - 1e-6)


@pytest.mark.parametrize("p", [0.5, 2.0, INF])
def test_solve_beta_at_t_one_is_plus_zero(p):
    # -p log 1 is -0.0 at finite p and NaN at p = inf; beta is +0.0 at each
    beta = solve_beta(p, 1.0)
    assert beta == 0.0 and math.copysign(1.0, beta) == 1.0


# ---------------------------------------------------------------------------
# phi1
# ---------------------------------------------------------------------------

def test_phi1_pythagorean_instance():
    res = phi1(2.0, 0.6)
    assert res.value == pytest.approx(0.8, abs=1e-12)
    assert res.regime == MOEBIUS_OUTER
    assert res.alpha == pytest.approx(0.75, abs=1e-12)
    assert res.beta is None


def test_phi1_sup_norm_case():
    assert phi1(INF, 0.5).value == pytest.approx(0.75, abs=1e-14)
    assert phi1(INF, 1.0).value == 0.0


def test_phi1_peak_for_small_p():
    res = phi1(0.5, 0.5625)
    assert res.value == pytest.approx(1.299038105676658, abs=1e-12)
    assert res.value == pytest.approx(psi1(0.5), abs=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, INF])
def test_phi1_endpoints(p):
    assert phi1(p, 0.0).value == pytest.approx(1.0, abs=1e-12)
    assert phi1(p, 1.0).value == pytest.approx(0.0, abs=1e-12)


def test_phi1_outer_regime_tag():
    res = phi1(2.0, 0.9)
    assert res.regime == OUTER
    assert res.alpha is None and res.beta is not None


def test_phi1_both_regime_at_switch_point():
    p = 0.5
    res = phi1(p, t_p(p))
    assert res.regime == BOTH
    assert res.alpha is not None and res.beta is not None
    # continuity across the switch
    for h in (1e-9, -1e-9):
        assert phi1(p, t_p(p) + h).value == pytest.approx(res.value, abs=1e-6)


@pytest.mark.parametrize("p", [1.0, 2.0, 8.0, 1e3])
def test_phi1_one_double_below_the_switch_is_moebius_and_continuous(p):
    # for every p the side is t < switch, with no snap towards either regime
    switch = 2.0 ** (-1.0 / p)
    below, at = phi1(p, math.nextafter(switch, 0.0)), phi1(p, switch)
    assert below.regime == MOEBIUS_OUTER and at.regime == OUTER
    assert below.value == pytest.approx(at.value, rel=1e-12)


def test_phi1_at_p_inf_one_double_below_one():
    # 1 - t^2 as (1 - t)(1 + t): 2^-53 (2 - 2^-53) rounds to 2^-52
    res = phi1(INF, 1.0 - 2.0**-53)
    assert res.regime == MOEBIUS_OUTER
    assert res.value == pytest.approx(2.0**-52, rel=2.0**-52)


_P_GRID = [1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0, 2.0, 8.0, 1e3, INF]
_ONE_MINUS_T_GRID = [0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-6, 1e-9, 1e-11, 1e-13, 2.0**-52, 2.0**-53]


def _mp_phi1(p, t, switch):
    """phi1 at 60 digits: below the switch the Moebius value at the root of
    log alpha - log1p(alpha^2)/p = log t, by bisection; at or above it
    (2/p) t sqrt(t^-p - 1); 1 - t^2 at p = inf."""
    with mpmath.workdps(60):
        tm = mpmath.mpf(t)
        if p == INF:
            return 1 - tm * tm
        pm = mpmath.mpf(p)
        if tm >= switch:
            return 2 / pm * tm * mpmath.sqrt(tm ** -pm - 1)
        # the increasing branch ends at log alpha = 0 for p >= 1, log alpha2 below
        log_t = mpmath.log(tm)
        lo, hi = log_t, (0 if p >= 1 else mpmath.log(pm / (2 - pm)) / 2)
        for _ in range(220):
            mid = (lo + hi) / 2
            if mid - mpmath.log1p(mpmath.exp(2 * mid)) / pm < log_t:
                lo = mid
            else:
                hi = mid
        a2 = mpmath.exp(lo + hi)
        return (1 + (2 / pm - 1) * a2) * (1 + a2) ** (-1 / pm)


@pytest.mark.parametrize("p", _P_GRID)
def test_phi1_matches_60_digits_up_to_t_one(p):
    # both regimes keep their relative accuracy as t -> 1 and at tiny p:
    # the outer value once read 0.0 at (1e-12, 0.999999), against 1999.9985,
    # and p = inf 0.0 from 1 - t = 1e-13 on
    with mpmath.workdps(60):
        switch = 2 ** (-1 / mpmath.mpf(p)) if p >= 1 else _mp_switch(p)[1]
    for d in _ONE_MINUS_T_GRID:
        t = 1.0 - d
        exact = _mp_phi1(p, t, switch)
        assert abs(phi1(p, t).value / exact - 1) <= 1e-12, (p, d)


def test_phi1_domain():
    with pytest.raises(ValueError):
        phi1(0.0, 0.5)
    with pytest.raises(ValueError):
        phi1(2.0, 1.5)
    # a NaN fails every range test, and the message names the argument
    nan = math.nan
    for call, name in ((lambda: phi1(nan, 0.5), "p"), (lambda: phi1(0.5, nan), "t"),
                       (lambda: solve_alpha(nan, 0.3), "p"), (lambda: solve_alpha(0.5, nan), "t"),
                       (lambda: solve_beta(nan, 0.5), "p"), (lambda: solve_beta(0.5, nan), "t")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            call()


# ---------------------------------------------------------------------------
# the implicit 0 < p < 1 machinery
# ---------------------------------------------------------------------------

def test_alpha1_frozen_and_consistency():
    a1 = alpha1(0.5)
    assert a1 == pytest.approx(0.2955977425220848, abs=1e-13)
    # the switch value it generates is exactly 2^{-1/p}
    assert a1 * (1 + a1 * a1) ** -2.0 == pytest.approx(0.25, abs=1e-14)
    assert 1 + a1 * a1 == pytest.approx(2 * math.sqrt(a1), abs=1e-13)


def test_alpha1_tiny_p():
    # the root collapses onto 2^{-1/p}: the correction factor (1 + a^2)^{1/p}
    # is 1 + O(p^{-1} 4^{-1/p}), far below double resolution here
    assert alpha1(0.002) == pytest.approx(2.0**-500, rel=1e-12)
    assert alpha1(1 / 257) == pytest.approx(2.0**-257, rel=1e-12)
    a = alpha1(0.002)
    assert abs(2 * a**0.002 - 1 - a * a) < 1e-13
    # the documented edge: the root is still a normal double at p = 1/1022
    assert alpha1(1 / 1022) == pytest.approx(2.0**-1022, rel=1e-12)
    # below it alpha_1 leaves the normal range: a ValueError, not a bare
    # RuntimeError, while t_p stays defined there
    for p in (1 / 1023, 1e-4, 1e-300):
        with pytest.raises(ValueError):
            alpha1(p)
    assert 0 < t_p(1e-4) < 1


def _mp_alpha1(p):
    """alpha_1 at 60 digits: the root u > 0 of 2 sinh^2(u/2) = expm1((1-p) u), a = e^{-u}.

    J_p(e^{-u}) = 2 e^{-u} (2 sinh^2(u/2) - expm1((1-p) u)); the root lies
    right of J_p's minimum at u = -log(p)/(2-p), and J_p > 0 at
    u = log(2)/p + 1.
    """
    with mpmath.workdps(60):
        pm = mpmath.mpf(p)
        g = lambda u: 2 * mpmath.sinh(u / 2) ** 2 - mpmath.expm1((1 - pm) * u)  # noqa: E731
        lo = -mpmath.log(pm) / (2 - pm)
        hi = max(lo + 2, mpmath.log(2) / pm + 1)
        assert g(lo) < 0 < g(hi)
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        return mpmath.exp(-(lo + hi) / 2)


@pytest.mark.parametrize("p", [1 / 1022, 0.002, 0.01, 0.1, 0.5, 0.9, 0.99]
                         + [1.0 - 10.0 ** (-e / 2) for e in range(6, 32)] + [1.0 - 2.0**-53])
def test_alpha1_matches_the_60_digit_root(p):
    # 1 - 1e-16 rounds to the last p, 1 - 2^-53
    # an ulp of log alpha_1, about 700 at p = 1/1022, bounds what e^L can do
    a = alpha1(p)
    err = abs(float(a / _mp_alpha1(p)) - 1)
    assert err <= min(1e-13, 2.0**-52 * max(2.0, -math.log(a)))


def test_alpha2_value_and_stationarity():
    p = 0.5
    a2 = alpha2(p)
    assert a2 == pytest.approx(1 / math.sqrt(3.0), abs=1e-15)
    h = 1e-6
    deriv = (F_p(p, a2 + h) - F_p(p, a2 - h)) / (2 * h)
    # central-difference truncation leaves ~4e-10 here; F_p' is O(1) away
    # from the stationary point, so 5e-9 still pins it down
    assert abs(deriv) < 5e-9


def test_alpha_p_frozen_and_signs():
    p = 0.5
    ap = alpha_p(p)
    assert ap == pytest.approx(0.4795096879389884, abs=1e-12)
    assert alpha1(p) < ap < alpha2(p)
    assert abs(F_p(p, ap)) < 1e-12
    assert F_p(p, 0.9 * ap) > 0
    assert F_p(p, min(1.0, 1.1 * ap)) < 0


def test_F_p_boundary_values():
    for p in (0.2, 0.5, 0.8):
        assert abs(F_p(p, 1.0)) < 1e-13
        assert F_p(p, alpha2(p)) < 0
        assert F_p(p, alpha1(p)) > 0
    with pytest.raises(ValueError):
        F_p(1.5, 0.5)
    with pytest.raises(ValueError):
        F_p(0.5, 0.0)


@pytest.mark.parametrize("delta", np.geomspace(1e-12, 0.3, 10).tolist())
def test_F_p_near_alpha_1_matches_mpmath(delta):
    # F_p is O((1-p)^4) near alpha_p and O(u^3) near alpha = 1, out of O(1)
    # terms: the plain sum at 120 digits still has 60 to spare at 1 - p = 1e-12
    p = 1.0 - delta
    for a in (0.6, 0.7, alpha2(p), 0.9, 0.95, 0.999, 1 - 1e-6):
        with mpmath.workdps(120):
            pm, am = mpmath.mpf(p), mpmath.mpf(a)
            ref = (pm**2 / am**2 + 2 * pm * (2 - pm) + (2 - pm) ** 2 * am**2
                   - 4 * (am**-pm + am ** (2 - pm) - 1))
        assert abs(F_p(p, a) / float(ref) - 1) <= 1e-14


@pytest.mark.parametrize("p", [0.5, 1e-3, 1e-6, 1e-9, 1e-12])
def test_F_p_relative_error_grows_like_1_over_p_down_to_its_floor(p):
    # F_p = O(p) as p -> 0 out of O(1) terms; the 120-digit plain sum has
    # digits to spare at p = 1e-12
    for a in np.geomspace(1e-6, 1 - 1e-9, 50).tolist():
        with mpmath.workdps(120):
            pm, am = mpmath.mpf(p), mpmath.mpf(a)
            ref = float(pm**2 / am**2 + 2 * pm * (2 - pm) + (2 - pm) ** 2 * am**2
                        - 4 * (am**-pm + am ** (2 - pm) - 1))
        got = F_p(p, a)
        assert got * ref > 0
        assert abs(got / ref - 1) <= 4e-14 / p


def test_F_p_below_its_floor_is_a_value_error():
    # from p = 1e-14 on the sign can go wrong: F_p(1e-100, 0.9) was
    # +1.08e-19 against -2.81e-103
    for p in (math.nextafter(1e-12, 0.0), 1e-14, 1e-100, 1e-300):
        with pytest.raises(ValueError, match="1e-12"):
            F_p(p, 0.9)


def test_t_p_frozen_and_band():
    p = 0.5
    tp = t_p(p)
    assert tp == pytest.approx(0.31698369291482814, abs=1e-12)
    lower = 2.0 ** (-1.0 / p)
    upper = lower * math.sqrt(p) * (2 - p) ** (1 / p - 0.5)
    assert lower < tp < upper


def test_objective_equality_at_t_p():
    # both parameter branches reach the same derivative at the origin when
    # t = t_p: 1/a + a(2/p - 1) = 2 b / p
    for p in (0.3, 0.5, 0.7):
        ap = alpha_p(p)
        b = beta_of_alpha(p, ap)
        lhs = 1 / ap + ap * (2 / p - 1)
        assert lhs == pytest.approx(2 * b / p, abs=1e-10)


def test_beta_of_alpha_at_alpha1_is_one():
    for p in (0.2, 0.5, 0.8):
        assert beta_of_alpha(p, alpha1(p)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.05, max_value=0.95),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
def test_beta_reaches_the_same_origin_value(p, alpha):
    b = beta_of_alpha(p, alpha)
    t_from_alpha = alpha * (1 + alpha * alpha) ** (-1.0 / p)
    t_from_beta = (1 + b * b) ** (-1.0 / p)
    assert t_from_beta == pytest.approx(t_from_alpha, rel=1e-9)


def test_t_star_and_psi1():
    assert t_star(0.5) == pytest.approx(0.5625, abs=1e-15)
    assert psi1(0.5) == pytest.approx(1.125 * 2 / math.sqrt(3.0), abs=1e-14)


# ---------------------------------------------------------------------------
# appendix functions
# ---------------------------------------------------------------------------

def test_appendix_closed_points():
    # H(1/2) has the explicit radical form (16 - 7 * 3^{3/4}) / 8
    vals = appendix_functions(0.5, alpha2(0.5))
    assert vals.H == pytest.approx((16 - 7 * 3**0.75) / 8, abs=1e-14)
    assert vals.H > 0 and vals.K < 0

    # I vanishes nowhere on (0,1); at p = 1 - sqrt(6)/3 it takes the value
    # sqrt(6) + log(5 - 2 sqrt(6))
    p0 = 1 - math.sqrt(6.0) / 3
    vals0 = appendix_functions(p0, alpha2(p0))
    assert vals0.I == pytest.approx(math.sqrt(6.0) + math.log(5 - 2 * math.sqrt(6.0)), abs=1e-13)


def test_appendix_G_vanishes_with_Fp_derivative():
    for p in (0.3, 0.5, 0.7):
        a2 = alpha2(p)
        assert abs(appendix_functions(p, a2).G_p) < 1e-12


def test_appendix_J_sign_structure():
    for p in (0.3, 0.5, 0.7):
        at_min = p ** (1 / (2 - p))
        assert appendix_functions(p, at_min).J_p < 0
        assert abs(appendix_functions(p, alpha1(p)).J_p) < 1e-12


def test_appendix_J_is_the_root_finders_J():
    # the alpha1 root-finder and the appendix evaluate one formula
    for p in (0.3, 0.5, 0.7):
        for x in (1e-3, 0.2, alpha1(p), 1.0):
            assert appendix_functions(p, x).J_p == _Jp_log(p, math.log(x))[0]


def test_appendix_domain():
    with pytest.raises(ValueError):
        appendix_functions(1.0, 0.5)
    with pytest.raises(ValueError):
        appendix_functions(0.5, 0.0)


def _mp_switch(p):
    """(log alpha_p, t_p) in mpmath from the plain F_p, by bisection then Newton.

    F_p cancels like (1 - p)^4 as p -> 1, and a^{-p} - 1 like p log(1/a) as
    p -> 0, so the working precision grows with log10(1/(1 - p)) and with
    log10(1/p).  F_p decreases on (0, alpha2), and [1.5, 1] log alpha2
    brackets its zero.
    """
    dps = 45 + int(5 * max(0.0, -math.log10(1.0 - p))) + int(max(0.0, -math.log10(p)))
    with mpmath.workdps(dps):
        pm = mpmath.mpf(p)
        q = 2 - pm

        def F(L):
            e = mpmath.exp
            return (pm**2 + 2 * pm * q * e(2 * L) + q * q * e(4 * L)
                    - 4 * (e(q * L) + e((4 - pm) * L) - e(2 * L))) / pm**2

        def dF(L):
            e = mpmath.exp
            return (4 * pm * q * e(2 * L) + 4 * q * q * e(4 * L)
                    - 4 * (q * e(q * L) + (4 - pm) * e((4 - pm) * L) - 2 * e(2 * L))) / pm**2

        hi = mpmath.log(pm / q) / 2
        lo = 1.5 * hi
        assert F(lo) > 0 > F(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if F(mid) > 0 else (lo, mid)
        L = (lo + hi) / 2
        for _ in range(20):
            step = F(L) / dF(L)
            L -= step
            if abs(step) <= mpmath.mpf(10) ** -30 * abs(L):
                return L, mpmath.exp(L - mpmath.log1p(mpmath.exp(2 * L)) / pm)
    raise AssertionError(f"no mpmath root at p={p}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(min_value=1e-3, max_value=0.99))
def test_alpha_p_and_t_p_match_the_40_digit_root(p):
    # _mp_switch works at 45 digits, and more towards both ends of p
    L, t = _mp_switch(p)
    assert abs(float(alpha_p(p) / mpmath.exp(L)) - 1) <= 5e-14
    assert abs(float(t_p(p) / t) - 1) <= 1e-14


def test_root_takes_few_evaluations(monkeypatch):
    # Newton's rate: bisection to width 1e-13 would take about 50.  counts
    # holds, per _root call, how many times it evaluated f and f'
    counts = []

    def counted(fdf, lo, hi, f_lo, f_hi, tol=1e-13, x0=None):
        counts.append(0)

        def fdf_counted(x):
            counts[-1] += 1
            return fdf(x)

        return _root(fdf_counted, lo, hi, f_lo, f_hi, tol, x0)

    def no_alpha1(p):
        raise AssertionError("alpha_p needs no alpha_1")

    monkeypatch.setattr(closed_form, "_root", counted)
    monkeypatch.setattr(closed_form, "alpha1", no_alpha1)
    for p in np.linspace(0.05, 0.99, 95):
        p = float(p)
        before = len(counts)
        closed_form._log_alpha_p.__wrapped__(p)
        # one root search per alpha_p, from (4/3) log alpha2: 3 or 4 values
        assert len(counts) == before + 1
        assert counts[-1] <= 5
        top = _branch_top(p)[1]
        for frac in np.geomspace(1e-3, 1.0, 12):
            solve_alpha(p, float(frac) * top)
    # the top of the branch itself is snapped without a root search
    assert len(counts) >= 95 * (1 + 11)
    assert max(counts) <= 12


def test_alpha_p_at_small_p_takes_few_values_of_F(monkeypatch):
    # from (4/3) log alpha2 these took 13.4 values on average, and up to 17
    F = closed_form._Fp_scaled
    calls = [0]

    def counted(p, lp, L):
        calls[0] += 1
        return F(p, lp, L)

    monkeypatch.setattr(closed_form, "_Fp_scaled", counted)
    ps = np.geomspace(1e-300, 0.05, 60)
    for p in ps:
        closed_form._log_alpha_p.__wrapped__(float(p))
    # the two ends of the bracket and the residual check included
    assert calls[0] / len(ps) <= 8


@pytest.mark.parametrize("delta", np.geomspace(1e-12, 1e-1, 23).tolist())
def test_t_p_and_alpha_p_near_one_match_mpmath(delta):
    # the u-form of F_p keeps its relative accuracy as alpha_p -> 1
    p = 1.0 - delta
    L, t = _mp_switch(p)
    assert abs(t_p(p) - float(t)) <= 1e-14
    assert abs(float(alpha_p(p) / mpmath.exp(L)) - 1) <= 1e-13


@pytest.mark.parametrize("p", np.geomspace(1e-17, 1e-3, 15).tolist()
                         + [1e-25, 1e-50, 1e-100, 1e-150, 1e-200, 1e-250, 1e-300])
def test_t_p_at_small_p_matches_mpmath(p):
    # t = e^{log t} carries an ulp of log t into its relative error; below
    # p = 1e-17 that passes 1e-14, and at p = 1e-300 log t_p is -349
    t = _mp_switch(p)[1]
    tol = 1e-14 if p >= 1e-17 else 4 * 2.0**-52 * abs(float(mpmath.log(t)))
    assert abs(float(t_p(p) / t) - 1) <= tol


def test_below_the_floor_is_a_value_error():
    for p in (math.nextafter(closed_form._P_MIN, 0.0), 1e-310, 5e-324):
        for call in (t_p, alpha_p, lambda p: phi1(p, 0.5)):
            with pytest.raises(ValueError, match="1e-300"):
                call(p)
    assert 0 < t_p(closed_form._P_MIN) < 1


def test_t_p_continuous_across_the_near_one_cutoff(monkeypatch):
    # both forms of F_p, each used on either side of the cutoff, agree there
    cut = 1.0 - closed_form._NEAR_ONE
    assert abs(t_p(math.nextafter(cut, 0.0)) - t_p(math.nextafter(cut, 1.0))) <= 1e-15
    ps = [cut + k * 1e-3 for k in range(-3, 4)]
    by_form = []
    for near_one in (0.0, 1.0):
        monkeypatch.setattr(closed_form, "_NEAR_ONE", near_one)
        by_form.append([closed_form._log_alpha_p.__wrapped__(p) for p in ps])
    for p, L_exp, L_u in zip(ps, *by_form):
        assert abs(L_exp / L_u - 1) <= 1e-13
        t_exp, t_u = (closed_form._t_of_log_alpha(p, L) for L in (L_exp, L_u))
        assert abs(t_exp / t_u - 1) <= 5e-15


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_phi1_tends_to_its_value_at_p_1(delta):
    # |d phi1 / dp| at p = 1 is at most about 0.372 (near t = 0.705)
    for t in np.linspace(0.0, 1.0, 101):
        gap = phi1(1.0 - delta, float(t)).value - phi1(1.0, float(t)).value
        assert abs(gap) <= 0.5 * delta + 1e-15


_P_ANYWHERE = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
    st.floats(min_value=0.5, max_value=16.0).map(lambda e: 1.0 - 10.0**-e),
    st.sampled_from([INF, 1.0, 1.0 - 2.0**-53, 1e-300, 5e-324]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=_P_ANYWHERE, t=st.floats(min_value=0.0, max_value=1.0),
       alpha=st.floats(min_value=5e-324, max_value=1.0))
def test_closed_forms_give_a_finite_value_or_a_value_error(p, t, alpha):
    calls = {
        "phi1": lambda: phi1(p, t).value,
        "t_p": lambda: t_p(p),
        "alpha_p": lambda: alpha_p(p),
        "F_p": lambda: F_p(p, alpha),
        "solve_alpha": lambda: solve_alpha(p, t),
        "solve_beta": lambda: solve_beta(p, t),
        "alpha1": lambda: alpha1(p),
        "alpha2": lambda: alpha2(p),
        "beta_of_alpha": lambda: beta_of_alpha(p, alpha),
        "t_star": lambda: t_star(p),
        "psi1": lambda: psi1(p),
        "appendix_functions": lambda: dataclasses.astuple(appendix_functions(p, alpha)),
    }
    for name, call in calls.items():
        try:
            value = call()
        except ValueError:
            continue
        finite = all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        # F_p is +inf, its sign, where p/alpha leaves the double range
        assert finite or (name == "F_p" and value == INF and p / alpha > 1e154), name


def test_overflow_and_p_outside_the_domain_are_value_errors():
    # a result past the double range, or a p outside the stated domain, is a
    # ValueError, not an OverflowError, inf or nan
    for call in (lambda: appendix_functions(0.3, 1e-200),
                 lambda: beta_of_alpha(2.0, 1e-200),
                 lambda: beta_of_alpha(1 - 1e-9, 5e-324),
                 lambda: beta_of_alpha(INF, 0.5),
                 lambda: beta_of_alpha(INF, 1.0),
                 lambda: t_star(5e-324)):
        with pytest.raises(ValueError):
            call()
    assert beta_of_alpha(0.95, 5e-324) > 1e150


@pytest.mark.parametrize("df", [lambda x: 0.0, lambda x: math.nan], ids=["zero", "nan"])
def test_root_bisects_without_a_derivative(df):
    f = lambda x: x**3 - 2.0  # noqa: E731
    x = _root(lambda x: (f(x), df(x)), 0.0, 2.0, f(0.0), f(2.0))
    assert abs(x - 2.0 ** (1 / 3)) <= 1e-13


def test_root_returns_at_a_root_one_ulp_from_the_bracket():
    # a root between lo and the next double: with tol = 0 only the check that
    # the midpoint rounds to an end of the bracket ends the loop
    lo = -671.0
    f = lambda x: -1.0 if x <= lo else 1.0  # noqa: E731
    x = _root(lambda x: (f(x), math.nan), lo, 0.0, -1.0, 1.0, tol=0.0)
    assert x in (lo, math.nextafter(lo, 0.0))
    # the same case from the branch inversion: log t is about -671, and the
    # root of t = alpha (1 + alpha^2)^(-1/p) lies within an ulp or two of it
    p, t = 1.08e-3, 3e-292
    a = solve_alpha(p, t)
    assert abs(math.log(a) - math.log(t)) <= 4 * math.ulp(math.log(t))
    assert a * (1 + a * a) ** (-1 / p) == pytest.approx(t, rel=1e-12)


def _no_evaluation(x):
    raise AssertionError("an end whose value is 0 is the root")


def test_root_returns_an_end_whose_value_is_zero():
    assert _root(_no_evaluation, -1.0, 2.0, 0.0, 3.0) == -1.0
    assert _root(_no_evaluation, -1.0, 2.0, -3.0, 0.0) == 2.0
    assert _root(_no_evaluation, -1.0, 2.0, 0.0, -0.0) == -1.0


def test_root_compares_signs_not_their_product():
    # (-1e-200) * 1e-200 underflows to -0.0, which a product test rejects
    x = _root(lambda x: (x - 0.5, 1.0), 0.0, 1.0, -1e-200, 1e-200)
    assert x == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("lo, hi, f_lo, f_hi", [
    (1.0, 0.5, -1.0, 1.0),  # lo > hi
    (0.5, 0.5, -1.0, 1.0),  # lo = hi
    (0.0, 1.0, 1.0, 2.0),  # same signs
    (0.0, 1.0, -1.0, -1e-300),
    (0.0, 1.0, math.nan, 1.0),
    (0.0, 1.0, -1.0, math.nan),
    (0.0, 1.0, 0.0, math.nan),
    (0.0, math.nan, -1.0, 1.0),
], ids=["reversed", "empty", "same-sign", "same-sign-tiny", "nan-lo", "nan-hi",
        "zero-and-nan", "nan-end"])
def test_root_rejects_what_brackets_no_root(lo, hi, f_lo, f_hi):
    with pytest.raises(ValueError, match="brackets no root"):
        _root(_no_evaluation, lo, hi, f_lo, f_hi)


def test_solve_alpha_where_t_squared_underflows():
    # h(0) = -log1p(t^2)/p is 0 there, and the root d = 0 gives alpha = t
    assert solve_alpha(0.5, 1e-200) == 1e-200
    assert solve_alpha(INF, 1e-200) == 1e-200


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

def test_closed_form_result_validation():
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, "bogus", alpha=0.1)
    with pytest.raises(ValueError):
        ClosedFormResult(-0.5, MOEBIUS_OUTER, alpha=0.1)
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, MOEBIUS_OUTER)  # alpha missing
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, OUTER, alpha=0.1, beta=0.2)
