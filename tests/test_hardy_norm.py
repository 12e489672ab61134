import cmath
import math
import time

import numpy as np
import pytest

from hardyx import hardy_norm
from hardyx.fn_repr import PolyCoeffs, _poly_grid
from hardyx.hardy_norm import (
    QuadConfig,
    QuadratureError,
    circle_mean,
    norm_hinf,
    norm_hp,
    parseval_norm,
)
from hardyx.wiener import sharpness_ratio

BINOMIAL4 = PolyCoeffs((1.0, 4.0, 6.0, 4.0, 1.0))


def test_h1_norm_of_binomial_power():
    # mean of |1+z|^4 on the circle is the central binomial coefficient 6
    assert norm_hp(BINOMIAL4, 1.0) == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.4, 1.0, 2.0, 5.0])
def test_constant_norm(p):
    assert norm_hp(lambda z: -2.5j, p) == pytest.approx(2.5, rel=1e-12)


def test_parseval_case():
    t = 0.6
    poly = PolyCoeffs((t, math.sqrt(1 - t * t)))
    assert norm_hp(poly, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_parseval_norm_examples():
    assert parseval_norm(PolyCoeffs((0.6, 0.8))) == pytest.approx(1.0, abs=1e-15)
    assert parseval_norm(PolyCoeffs((1.0,))) == pytest.approx(1.0)
    assert parseval_norm(BINOMIAL4) == pytest.approx(math.sqrt(70.0), abs=1e-13)


def test_norm_hp_rejects_bad_exponent():
    with pytest.raises(ValueError):
        norm_hp(lambda z: 1.0, 0.0)
    with pytest.raises(ValueError):
        norm_hp(lambda z: 1.0, -1.0)


def test_hinf_examples():
    for k in (2, 3):
        f = lambda z: (1 + z**k) ** 2 - z * (1 - z**k) ** 2
        assert norm_hinf(f) == pytest.approx(4.0, abs=1e-9)
    assert norm_hinf(lambda z: z**5) == pytest.approx(1.0, abs=1e-12)
    t = 0.5
    assert norm_hinf(lambda z: (t + z) / (1 + t * z)) == pytest.approx(1.0, abs=1e-12)


def test_hinf_witness_attains_max():
    f = PolyCoeffs((1.0, 1.0))  # |1+z| peaks at z = 1
    val, theta = norm_hinf(f, return_witness=True)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert abs(f(np.exp(1j * theta))) == pytest.approx(val, abs=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs = tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        poly = PolyCoeffs(coeffs)
        scaled = PolyCoeffs(tuple(c * a for a in coeffs))
        p = float(rng.uniform(0.3, 4.0))
        assert norm_hp(scaled, p) == pytest.approx(abs(c) * norm_hp(poly, p), rel=1e-9)


def test_p2_matches_parseval_on_random_polys():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(0, 33))
        coeffs = tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        poly = PolyCoeffs(coeffs)
        assert norm_hp(poly, 2.0) == pytest.approx(parseval_norm(poly), abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_quasi_triangle_inequality(p):
    rng = np.random.default_rng(int(p * 10))
    for _ in range(5):
        f = tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        g = tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        s = PolyCoeffs(tuple(a + b for a, b in zip(f, g)))
        lhs = norm_hp(s, p) ** p
        rhs = norm_hp(PolyCoeffs(f), p) ** p + norm_hp(PolyCoeffs(g), p) ** p
        assert lhs <= rhs + 1e-8


@pytest.mark.parametrize(
    "f,g",
    [
        (PolyCoeffs((1.0,)), PolyCoeffs((0.0, 1.0))),
        (PolyCoeffs((1.0, 2.0, 1.0)), PolyCoeffs((0.0, 0.0, 0.0, 1.0))),
    ],
)
def test_quasi_triangle_strict_for_nonzero_pairs(f, g):
    # the p-th power inequality is strict unless one side vanishes
    p = 0.5
    top = max(f.degree, g.degree) + 1
    fc = list(f.coeffs) + [0.0] * (top - len(f.coeffs))
    gc = list(g.coeffs) + [0.0] * (top - len(g.coeffs))
    s = PolyCoeffs(tuple(a + b for a, b in zip(fc, gc)))
    gap = norm_hp(f, p) ** p + norm_hp(g, p) ** p - norm_hp(s, p) ** p
    assert gap > 1e-3


def test_quadrature_error_carries_last_estimates():
    # a spike too sharp for 64 panels at this tolerance
    spike = lambda th: 1.0 / np.abs(np.exp(1j * th) - (1 + 1e-7))
    with pytest.raises(QuadratureError) as info:
        circle_mean(spike, rel_tol=1e-12, max_panels=64)
    estimates = info.value.estimates
    assert len(estimates) == 2
    assert all(type(e) is float and math.isfinite(e) for e in estimates)
    assert "np.float64" not in str(info.value)


def test_panel_pass_matches_gamma_formula_at_cusp(monkeypatch):
    # |1+z|^{1/2} has a cusp at theta = pi, where the dyadic pass stalls and
    # the panel pass finishes.  The mean of |1+z|^{2s} is
    # Gamma(2s+1)/Gamma(s+1)^2; at s = 1/4 the H^{1/2} norm is its square.
    panel_passes = []
    monkeypatch.setattr(
        hardy_norm, "circle_mean",
        lambda *a, **kw: panel_passes.append(1) or circle_mean(*a, **kw),
    )
    exact = (math.gamma(1.5) / math.gamma(1.25) ** 2) ** 2
    assert exact == pytest.approx(1.163604913634683, rel=1e-15)
    assert norm_hp(PolyCoeffs((1.0, 1.0)), 0.5) == pytest.approx(exact, rel=1e-7)
    assert len(panel_passes) == 1


def test_circle_mean_basics():
    assert circle_mean(lambda th: np.cos(th) ** 2) == pytest.approx(0.5, rel=1e-10)
    assert circle_mean(lambda th: np.ones_like(th)) == pytest.approx(1.0, rel=1e-12)


def test_circle_mean_with_seeded_singularity():
    # integrable inverse-square-root cusp at theta = 1; mean of
    # |theta - 1|^{-1/2} over [0, 2pi) has a closed form to compare against
    g = lambda th: abs(th - 1.0) ** -0.5
    exact = (2 * math.sqrt(1.0) + 2 * math.sqrt(2 * math.pi - 1.0)) / (2 * math.pi)
    assert circle_mean(g, rel_tol=1e-9, seeds=(1.0,)) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan])
def test_circle_mean_rejects_a_bad_rel_tol_at_once(rel_tol):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rel_tol"):
        circle_mean(lambda th: np.ones_like(th), rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        sharpness_ratio(0.5, 2, 1e-2, rel_tol)
    assert time.perf_counter() - start < 0.5


def test_quadconfig_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)


def _random_poly(rng, deg):
    return PolyCoeffs(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))


def _horner_on_grid(f, n, half):
    theta = 2 * np.pi * (np.arange(n) + 0.5 * half) / n
    return f(np.exp(1j * theta))


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("n", [8, 64, 4096])
def test_poly_grid_matches_horner(n, half):
    # degrees up to 64 cover every fold of the smaller grids (degree >= n)
    rng = np.random.default_rng(n + half)
    for deg in range(65):
        f = _random_poly(rng, deg)
        scale = sum(abs(a) for a in f.coeffs)
        got = _poly_grid(f, n, half)
        assert got.shape == (n,)
        assert np.max(np.abs(got - _horner_on_grid(f, n, half))) <= 1e-13 * scale


def test_point_sampler_matches_numpy_horner():
    rng = np.random.default_rng(11)
    for deg in (0, 1, 5, 32, 64):
        f = _random_poly(rng, deg)
        one = hardy_norm._point_sampler(f, hardy_norm._as_theta_evaluator(f))
        scale = sum(abs(a) for a in f.coeffs)
        for theta in rng.uniform(-10.0, 10.0, 20):
            value = one(float(theta))
            assert type(value) is float
            assert value == pytest.approx(abs(f(np.exp(1j * theta))), abs=1e-13 * scale)


def test_polynomial_norms_make_no_grid_sized_call(monkeypatch):
    sizes = []
    call = PolyCoeffs.__call__
    monkeypatch.setattr(
        PolyCoeffs, "__call__", lambda self, z: sizes.append(np.size(z)) or call(self, z)
    )
    rng = np.random.default_rng(2)
    f = _random_poly(rng, 20)
    for p in (0.4, 1.0, 3.0):
        norm_hp(f, p)
    norm_hinf(f, return_witness=True)
    # a stalled cusp: the panels evaluate 16 points at a time
    norm_hp(PolyCoeffs((1.0, 1.0)), 0.5)
    assert sizes and max(sizes) == 16


@pytest.mark.parametrize("j", [1, 2, 3])
def test_cusp_norms_match_gamma_formula(j):
    # ||(1 + z^m)^j||_p^p = Gamma(1 + jp) / Gamma(1 + jp/2)^2 for every m
    for p in (0.3, 0.4, 0.5, 0.6):
        exact = (math.gamma(1 + j * p) / math.gamma(1 + j * p / 2) ** 2) ** (1 / p)
        for m in (1, 2, 3, 4):
            coeffs = [0.0] * (j * m + 1)
            for i in range(j + 1):
                coeffs[i * m] = float(math.comb(j, i))
            assert norm_hp(PolyCoeffs(tuple(coeffs)), p) == pytest.approx(exact, rel=1e-8)


def test_stalled_dyadic_pass_hands_over_after_three_doublings():
    # 4096 starting points and three doublings of the midpoints: 2^15 in all
    grid_points = []

    def cusp(z):
        if np.size(z) > 16:
            grid_points.append(np.size(z))
        return 1 + z

    assert norm_hp(cusp, 0.5) == pytest.approx(
        (math.gamma(1.5) / math.gamma(1.25) ** 2) ** 2, rel=1e-8
    )
    assert sum(grid_points) <= 2**15 + 4096


@pytest.mark.parametrize("d", [10.0 ** -e for e in range(2, 9)])
def test_near_pole_norms_match_mpmath(d):
    mpmath = pytest.importorskip("mpmath")
    z0 = (1 + d) * cmath.exp(1j)
    with mpmath.workdps(30):
        dd = mpmath.mpf(d)
        # |e^{i theta} - z0| after rotating the pole onto theta = 0
        g = lambda th: 1 / mpmath.sqrt(dd**2 + 4 * (1 + dd) * mpmath.sin(th / 2) ** 2)
        exact = float(mpmath.quad(g, [0, mpmath.pi]) / mpmath.pi)
    assert norm_hp(lambda z: 1 / (z - z0), 1.0) == pytest.approx(exact, rel=1e-9)


def test_round_off_floor_raises_early():
    # z - z0 rounds at ~1e-16 against a distance of 1e-10: the peak carries
    # ~1e-6 relative noise, so no panel count reaches rel_tol 1e-9
    z0 = (1 + 1e-10) * cmath.exp(1j)
    calls = [0]

    def g(z):
        calls[0] += 1
        return 1 / (z - z0)

    with pytest.raises(QuadratureError, match="round-off floor"):
        norm_hp(g, 1.0)
    # a split takes 6 calls of g: the 20000-panel budget would take 60000
    assert calls[0] < 30000
