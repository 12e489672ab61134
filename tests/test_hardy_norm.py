import math

import numpy as np
import pytest

from hardyx import hardy_norm
from hardyx.fn_repr import PolyCoeffs
from hardyx.hardy_norm import (
    QuadConfig,
    QuadratureError,
    circle_mean,
    norm_hinf,
    norm_hp,
    parseval_norm,
)

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


def test_quadconfig_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
