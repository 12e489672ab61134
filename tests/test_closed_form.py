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
    RootBracket,
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


def test_phi1_domain():
    with pytest.raises(ValueError):
        phi1(0.0, 0.5)
    with pytest.raises(ValueError):
        phi1(2.0, 1.5)


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
            assert appendix_functions(p, x).J_p == _Jp_log(p, math.log(x))


def test_appendix_domain():
    with pytest.raises(ValueError):
        appendix_functions(1.0, 0.5)
    with pytest.raises(ValueError):
        appendix_functions(0.5, 0.0)


def _mp_log_alpha_p(p):
    """(log alpha_p, rounding floor) from 40-digit Newton steps on F_p in log alpha.

    The floor eps * sum|terms| / |dF/dL| at the root is how far in log alpha
    any double evaluation of F_p can place its zero; F_p cancels like
    (1 - p)^4, so near p = 1 the floor passes 2e-13.
    """
    with mpmath.workdps(40):
        pm = mpmath.mpf(p)
        q = 2 - pm

        def terms(L):
            a = mpmath.exp(L)
            return [pm**2 / a**2, 2 * pm * q, q**2 * a**2, -4 * a**-pm, -4 * a**q, 4]

        def dF(L):
            a = mpmath.exp(L)
            return -2 * pm**2 / a**2 + 2 * q**2 * a**2 + 4 * pm * a**-pm - 4 * q * a**q

        L = mpmath.mpf(math.log(alpha_p(p)))
        for _ in range(8):
            L -= mpmath.fsum(terms(L)) / dF(L)
        floor = 2.0**-52 * float(mpmath.fsum(abs(x) for x in terms(L)) / abs(dF(L)))
        return L, floor


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(min_value=1e-3, max_value=0.99))
def test_alpha_p_and_t_p_match_the_40_digit_root(p):
    L, floor = _mp_log_alpha_p(p)
    with mpmath.workdps(40):
        a = mpmath.exp(L)
        ref_t = a * (1 + a**2) ** (-1 / mpmath.mpf(p))
        # d log t / d log alpha carries the root's error into t_p
        slope = abs(float(1 - 2 * a**2 / (p * (1 + a**2))))
        err_a = abs(float(alpha_p(p) / a - 1))
        err_t = abs(float(t_p(p) / ref_t - 1))
    assert err_a <= 2e-13 + floor
    assert err_t <= 2e-13 + slope * floor


def test_root_takes_few_evaluations(monkeypatch):
    # Newton's rate: bisection to width 1e-13 would take about 50.  counts
    # holds, per _root call, how many times it evaluated f
    counts = []

    def counted(f, df, br, tol=1e-13, x0=None):
        counts.append(0)

        def f_counted(x):
            counts[-1] += 1
            return f(x)

        return _root(f_counted, df, br, tol, x0)

    monkeypatch.setattr(closed_form, "_root", counted)
    for p in np.linspace(0.05, 0.99, 95):
        p = float(p)
        alpha_p.__wrapped__(p)  # _alpha1_log's root, then alpha_p's own
        top = _branch_top(p)[1]
        for frac in np.geomspace(1e-3, 1.0, 12):
            solve_alpha(p, float(frac) * top)
    # the top of the branch itself is snapped without a root search
    assert len(counts) >= 95 * (2 + 11)
    assert max(counts) <= 12


@pytest.mark.parametrize("df", [lambda x: 0.0, lambda x: math.nan], ids=["zero", "nan"])
def test_root_bisects_without_a_derivative(df):
    f = lambda x: x**3 - 2.0  # noqa: E731
    x = _root(f, df, RootBracket(0.0, 2.0, f(0.0), f(2.0)))
    assert abs(x - 2.0 ** (1 / 3)) <= 1e-13


def test_root_returns_at_a_root_one_ulp_from_the_bracket():
    # a root between lo and the next double: with tol = 0 only the check that
    # the midpoint rounds to an end of the bracket ends the loop
    lo = -671.0
    f = lambda x: -1.0 if x <= lo else 1.0  # noqa: E731
    x = _root(f, lambda x: math.nan, RootBracket(lo, 0.0, -1.0, 1.0), tol=0.0)
    assert x in (lo, math.nextafter(lo, 0.0))
    # the same case from the branch inversion: log t is about -671, and the
    # root of t = alpha (1 + alpha^2)^(-1/p) lies within an ulp or two of it
    p, t = 1.08e-3, 3e-292
    a = solve_alpha(p, t)
    assert abs(math.log(a) - math.log(t)) <= 4 * math.ulp(math.log(t))
    assert a * (1 + a * a) ** (-1 / p) == pytest.approx(t, rel=1e-12)


# ---------------------------------------------------------------------------
# result and bracket containers
# ---------------------------------------------------------------------------

def test_root_bracket_validation():
    with pytest.raises(ValueError):
        RootBracket(1.0, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        RootBracket(0.0, 1.0, 1.0, 2.0)  # no sign change


def test_closed_form_result_validation():
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, "bogus", alpha=0.1)
    with pytest.raises(ValueError):
        ClosedFormResult(-0.5, MOEBIUS_OUTER, alpha=0.1)
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, MOEBIUS_OUTER)  # alpha missing
    with pytest.raises(ValueError):
        ClosedFormResult(0.5, OUTER, alpha=0.1, beta=0.2)
