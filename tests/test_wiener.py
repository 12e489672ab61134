import math
import sys

import numpy as np
import pytest

from hardyx import hardy_norm, wiener
from hardyx.fn_repr import PolyCoeffs, sample_boundary, taylor_coeff
from hardyx.hardy_norm import QuadConfig
from hardyx.wiener import (
    inner_defect,
    sharpness_ratio,
    wiener_bound_check,
    wiener_coeffs,
    wiener_eval,
)

BINOMIAL4 = PolyCoeffs((1.0, 4.0, 6.0, 4.0, 1.0))


def test_wiener_coeffs_kills_off_multiples():
    out = wiener_coeffs(BINOMIAL4, 2)
    np.testing.assert_allclose(np.asarray(out.coeffs), [1, 0, 6, 0, 1], atol=0)
    lone = wiener_coeffs(PolyCoeffs((0.0, 1.0, 0.0)), 2)
    np.testing.assert_allclose(np.asarray(lone.coeffs), [0, 0, 0], atol=0)


def test_wiener_coeffs_fixed_point_and_idempotence():
    c = PolyCoeffs((1.0, 0.0, 0.0, 2.0j, 0.0, 0.0, -1.0))
    once = wiener_coeffs(c, 3)
    assert once.coeffs == c.coeffs
    twice = wiener_coeffs(wiener_coeffs(BINOMIAL4, 2), 2)
    assert twice.coeffs == wiener_coeffs(BINOMIAL4, 2).coeffs


def test_k_must_be_at_least_two():
    with pytest.raises(ValueError):
        wiener_coeffs(BINOMIAL4, 1)
    with pytest.raises(ValueError):
        wiener_eval(lambda z: z, 1, 0.5)


@pytest.mark.parametrize("call", [
    lambda: wiener_coeffs(BINOMIAL4, 2.5),
    lambda: wiener_coeffs(BINOMIAL4, 2.0),
    lambda: wiener_eval(lambda z: z, 2.5, 0.5),
    lambda: wiener_bound_check(BINOMIAL4, 2.5, 0.5),
    lambda: sharpness_ratio(0.5, 2.5, 1e-2),
    lambda: inner_defect(lambda z: z * z, 2.5),
    lambda: inner_defect(lambda z: z * z, 2, N=4.5),
], ids=["coeffs", "coeffs-float-2", "eval", "bound-check", "sharpness", "inner-defect-k",
        "inner-defect-N"])
def test_k_and_N_must_be_integers(call):
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("k", [2, 3])
def test_wiener_eval_equality_example(k):
    f = lambda z: (1 + z**k) ** 2 - z * (1 - z**k) ** 2
    assert wiener_eval(f, k, 1.0) == pytest.approx(4.0, abs=1e-12)
    # the averaged function is (1+z^k)^2 everywhere, not only at z = 1
    z = 0.3 - 0.4j
    assert wiener_eval(f, k, z) == pytest.approx((1 + z**k) ** 2, abs=1e-12)


def test_wiener_eval_trivia():
    assert wiener_eval(lambda z: z, 2, 0.7) == pytest.approx(0.0, abs=1e-15)
    assert wiener_eval(lambda z: 3.5j, 5, 0.2) == pytest.approx(3.5j, abs=1e-15)


def test_projection_consistency_random_polys():
    rng = np.random.default_rng(17)
    for _ in range(8):
        deg = int(rng.integers(0, 33))
        poly = PolyCoeffs(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        k = int(rng.choice([2, 3, 5]))
        s = sample_boundary(lambda z: wiener_eval(poly, k, z), 64)
        want = wiener_coeffs(poly, k).coeffs
        for n in range(deg + 1):
            assert abs(taylor_coeff(s, n) - want[n]) < 1e-10


def test_bound_check_equality_at_p1():
    rep = wiener_bound_check(BINOMIAL4, 2, 1.0)
    assert rep.bound == 1.0
    assert rep.ratio == pytest.approx(1.0, abs=1e-7)
    assert rep.passed


def test_bound_check_fixed_point_at_p2():
    rep = wiener_bound_check(PolyCoeffs((0.0, 0.0, 1.0)), 2, 2.0)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_bound_check_strict_below_for_small_p():
    # powered convention: ratio is ||Wf||^p/||f||^p against k^{1-p}; the
    # plain-ratio reading of the same numbers sits strictly below k^{1/p-1}=2
    rep = wiener_bound_check(PolyCoeffs((1.0, 1.0)), 2, 0.5)
    assert rep.bound == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert rep.ratio < rep.bound * (1 - 1e-6)
    assert rep.ratio ** (1 / 0.5) < 2.0


def test_bound_check_rejects_zero_function():
    with pytest.raises(ValueError):
        wiener_bound_check(PolyCoeffs((0.0, 0.0)), 2, 1.0)


@pytest.mark.parametrize("p", [0.5, 1.0, math.inf])
def test_bound_check_measures_f_first_and_stops_at_a_zero_norm(monkeypatch, p):
    measured = []
    for name in ("norm_hp", "norm_hinf"):
        norm = getattr(wiener, name)
        monkeypatch.setattr(
            wiener, name, lambda g, *a, norm=norm, **kw: measured.append(g) or norm(g, *a, **kw)
        )
    zero = lambda z: 0.0 * z  # noqa: E731
    with pytest.raises(ValueError, match="zero norm"):
        wiener_bound_check(zero, 3, p)
    assert measured == [zero]


@pytest.mark.parametrize("p", [0.4, 2.0, math.inf])
def test_second_bound_check_does_not_sample_f_again(monkeypatch, p):
    # W_k f is a new polynomial for each k; only ||f|| repeats
    sampled = []
    grid = hardy_norm._poly_grid
    monkeypatch.setattr(
        hardy_norm, "_poly_grid", lambda c, *a: sampled.append(c) or grid(c, *a)
    )
    rng = np.random.default_rng(5)
    f = PolyCoeffs(tuple(rng.standard_normal(12) + 1j * rng.standard_normal(12)))
    cfg = QuadConfig(rel_tol=1e-7)
    first = wiener_bound_check(f, 2, p, cfg=cfg)
    assert any(c is f for c in sampled)
    sampled.clear()
    again = wiener_bound_check(f, 3, p, cfg=cfg)
    assert sampled and not any(c is f for c in sampled)
    assert wiener_bound_check(f, 2, p, cfg=cfg) == first
    fresh = PolyCoeffs(f.coeffs)
    assert wiener_bound_check(fresh, 3, p, cfg=cfg) == again


def test_bound_check_sweep_samples_each_polynomial_once_per_grid(monkeypatch):
    # 3 k x 6 p checks: f and each W_k f meet every grid they need once;
    # W_k f(z) = g(z^k) is measured through the g kept in its memo
    sampled = []
    grid = hardy_norm._poly_grid
    monkeypatch.setattr(
        hardy_norm, "_poly_grid", lambda c, n, half: sampled.append((id(c), n, half)) or grid(c, n, half)
    )
    rng = np.random.default_rng(6)
    f = PolyCoeffs(tuple(rng.standard_normal(20) + 1j * rng.standard_normal(20)))
    cfg = QuadConfig(rel_tol=1e-7)
    ks, ps = (2, 3, 5), (0.4, 0.7, 1.0, 2.0, 4.0, math.inf)
    reports = [wiener_bound_check(f, k, p, cfg=cfg) for k in ks for p in ps]
    assert len(sampled) == len(set(sampled))
    gs = [hardy_norm._measured(wiener_coeffs(f, k))[0] for k in ks]
    assert [g.coeffs for g in gs] == [wiener_coeffs(f, k).coeffs[::k] for k in ks]
    assert {i for i, _, _ in sampled} == {id(f)} | {id(g) for g in gs}
    for (k, p), rep in zip([(k, p) for k in ks for p in ps], reports):
        fresh = wiener_bound_check(PolyCoeffs(f.coeffs), k, p, cfg=cfg)
        assert rep.ratio == fresh.ratio


def test_wiener_coeffs_is_kept_per_instance_and_k():
    f = PolyCoeffs((1.0, 2.0, 3.0, 4.0))
    assert wiener_coeffs(f, 2) is wiener_coeffs(f, 2)
    assert wiener_coeffs(f, 3) is not wiener_coeffs(f, 2)
    assert wiener_coeffs(PolyCoeffs(f.coeffs), 2) is not wiener_coeffs(f, 2)
    assert wiener_coeffs(PolyCoeffs(f.coeffs), 2) == wiener_coeffs(f, 2)


def test_sharpness_frozen_values():
    # fixed by a high-resolution adaptive quadrature oracle run before the
    # implementation was written
    assert sharpness_ratio(0.5, 2, 1.0) == pytest.approx(0.9652084300201208, abs=1e-9)
    assert sharpness_ratio(0.5, 2, 1e-2) == pytest.approx(1.1751050921447, abs=1e-9)
    assert sharpness_ratio(0.5, 2, 1e-3) == pytest.approx(1.2361023787521, abs=1e-9)


def test_sharpness_monotone_toward_limit():
    vals = [sharpness_ratio(0.5, 2, e) for e in (1e-2, 1e-3, 1e-4)]
    assert vals[0] < vals[1] < vals[2] < 2.0 ** 0.5


def _pole_mean_oracle(eps):
    """40-digit mean of 1/|e^{it} - a|, a = 1 + eps: (2/(pi(a+1))) K(4a/(a+1)^2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = 1 + mp.mpf(eps)
        return 2 / (mp.pi * (a + 1)) * mp.ellipk(4 * a / (a + 1) ** 2)


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-5, 1e-9, 1e-12])
def test_pole_mean_matches_quadrature_and_elliptic_k(eps):
    got = wiener._pole_mean(eps)
    # the circle mean sharpness_ratio took before the AGM replaced it
    quad = wiener._even_mean(lambda th: np.exp(-wiener._log_w(th, eps).real), math.pi, 1e-11)
    assert got == pytest.approx(quad, rel=1e-15)
    assert got == pytest.approx(float(_pole_mean_oracle(eps)), rel=1e-15)


def test_pole_mean_is_finite_at_the_smallest_normal_eps():
    # 1 + eps rounds to 1 even at 40 digits, so the oracle here is mpmath's AGM
    mp = pytest.importorskip("mpmath")
    eps = sys.float_info.min
    got = wiener._pole_mean(eps)
    assert math.isfinite(got)
    with mp.workdps(40):
        e = mp.mpf(eps)
        want = float(1 / ((2 + e) * mp.agm(1, e / (2 + e))))
    assert got == pytest.approx(want, rel=1e-15)
    assert math.isfinite(sharpness_ratio(0.5, 2, eps))


def _sharpness_oracle(eps):
    """40-digit ratio at p = 1/2, k = 2, independent of the package.

    Denominator: the mean of 1/|e^{it} - a| is (2/(pi(a+1))) K(4a/(a+1)^2).
    Numerator: W_2 f_eps = (z^2+a^2)/(z^2-a^2)^2, and the substitution
    w = z^2 turns its mean of |.|^{1/2} into that of |w+a^2|^{1/2}/|w-a^2|,
    integrated over [0, pi] with breakpoints graded into the peak at 0.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = 1 + mp.mpf(eps)
        b = a * a
        den = _pole_mean_oracle(eps)
        g = lambda t: mp.sqrt(abs(mp.expj(t) + b)) / abs(mp.expj(t) - b)
        width = b - 1
        pts = [mp.mpf(0)] + [width * 4**j for j in range(-2, 60) if width * 4**j < mp.pi]
        num = mp.quad(g, pts + [mp.pi]) / mp.pi
        return float(num / den)


@pytest.mark.parametrize("eps", [1e-5, 1e-8, 1e-10, 1e-12])
def test_sharpness_matches_mpmath_oracle(eps):
    want = _sharpness_oracle(eps)
    assert sharpness_ratio(0.5, 2, eps) == pytest.approx(want, abs=1e-13)


def test_sharpness_near_pole_other_exponent():
    r = sharpness_ratio(0.3, 3, 1e-12)
    assert math.isfinite(r)
    assert r < 3.0**0.7


def test_sharpness_domain():
    with pytest.raises(ValueError):
        sharpness_ratio(1.5, 2, 1e-2)
    with pytest.raises(ValueError):
        sharpness_ratio(0.5, 2, 0.0)
    for eps in (math.nan, math.inf, 1e-320):
        with pytest.raises(ValueError):
            sharpness_ratio(0.5, 2, eps)


def test_averaged_singular_family_closed_form():
    # for p = 1/2 the family is (z-a)^{-2}, and averaging over the two
    # square-root rotations gives (z^2+a^2)/(z^2-a^2)^2 exactly
    a = 1.5
    f = lambda z: (z - a) ** -2.0
    for z in (1.0, np.exp(0.7j), 0.3 + 0.1j, -1.0j):
        want = (z * z + a * a) / (z * z - a * a) ** 2
        assert wiener_eval(f, 2, z) == pytest.approx(want, abs=1e-12)


def test_inner_defect_blaschke_collapses():
    lam = 0.5
    b = lambda z: (lam - z) / (1 - lam * z)
    d = inner_defect(b, 2)
    assert d == pytest.approx(1.0, abs=1e-9)  # W_2 b vanishes at z = 1


def test_inner_defect_of_inner_fixed_points():
    assert inner_defect(lambda z: z * z, 2) < 1e-12
    assert inner_defect(lambda z: 1j, 3) < 1e-12


def test_inner_defect_requires_unimodular_input():
    with pytest.raises(ValueError):
        inner_defect(lambda z: 0.5 * z, 2)
