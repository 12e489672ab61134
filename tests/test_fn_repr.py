import cmath
import math
import warnings

import numpy as np
import pytest

from hardyx.fn_repr import (
    BoundarySamples,
    EvaluationError,
    PolyCoeffs,
    StructuredExtremal,
    boundary_grid,
    eval_structured,
    sample_boundary,
    taylor_coeff,
)
from hardyx.hardy_norm import norm_hinf, norm_hp
from hardyx.wiener import inner_defect, wiener_bound_check, wiener_eval


def test_all_lambdas_zero_gives_constant():
    fn = StructuredExtremal(1.0, 2.0, 0, (0.0,))
    assert eval_structured(fn, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_origin_value_of_moebius_outer_candidate():
    # k = 1 candidate with a single zero at -alpha; the Blaschke factor at
    # the origin equals its lambda, so the scale -(1+a^2)^{-1/p} makes
    # f(0) = alpha (1+alpha^2)^{-1/p} > 0
    p, alpha = 0.5, 0.4
    c = -((1 + alpha**2) ** (-1 / p))
    fn = StructuredExtremal(c, p, 1, (-alpha,))
    t = alpha * (1 + alpha**2) ** (-1 / p)
    assert eval_structured(fn, 0.0) == pytest.approx(t, abs=1e-14)


def test_overflow_on_the_circle_raises_an_evaluation_error():
    # |f| = |1 + z/2|^2000 reaches 1.5^2000 near z = 1, past the largest
    # double: a typed error, and no overflow warning on the way
    fn = StructuredExtremal(1.0, 1e-3, 0, (-0.5,))
    z = boundary_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError):
            eval_structured(fn, z)
        with pytest.raises(EvaluationError):
            wiener_eval(fn, 2, z)


def test_double_zero_at_origin_is_z_squared():
    fn = StructuredExtremal(1.0, 1.0, 2, (0.0, 0.0))
    assert eval_structured(fn, 0.3) == pytest.approx(0.09, abs=1e-15)


def test_eval_outside_closed_disc_rejected():
    fn = StructuredExtremal(1.0, 2.0, 0, (0.0,))
    with pytest.raises(EvaluationError):
        eval_structured(fn, 1.5)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_nan_point_is_outside_the_closed_disc(p):
    # a NaN point fails the disc test itself, rather than reaching the
    # factors, where it warned (p = inf) or read as an overflow (p = 2)
    fn = StructuredExtremal(1.0, p, 1, (0.5,))
    for z in (math.nan, complex(0.0, math.nan), np.array([0.0, math.nan])):
        with pytest.raises(EvaluationError, match="outside the closed unit disc"):
            eval_structured(fn, z)
        with pytest.raises(EvaluationError, match="outside the closed unit disc"):
            wiener_eval(fn, 2, z)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        StructuredExtremal(1.0, 2.0, 2, (0.0,))  # l > k
    for l in (0.5, True):
        with pytest.raises(ValueError):
            StructuredExtremal(1.0, 2.0, l, (0.0, 0.0))
    with pytest.raises(ValueError):
        StructuredExtremal(1.0, 2.0, 1, (1.0,))  # Blaschke lambda on boundary
    with pytest.raises(ValueError):
        StructuredExtremal(1.0, -2.0, 0, (0.0,))
    with pytest.raises(ValueError):
        StructuredExtremal(1.0, 2.0, 0, (1.5,))


@pytest.mark.parametrize("scale, lams", [
    (math.nan, (0.0,)), (complex(1.0, math.inf), (0.5,)), (1.0, (math.nan,)),
    (1.0, (0.5, complex(0.0, math.nan))),
])
def test_non_finite_scale_or_lambdas_rejected(scale, lams):
    for l in range(len(lams) + 1):
        with pytest.raises(ValueError, match="finite"):
            StructuredExtremal(scale, 2.0, l, lams)


def test_boundary_tangent_outer_factor_vanishes():
    # outer-only lambda on the boundary: the factor (1 - conj(lam) z)^{2/p}
    # has a zero exactly at z = lam
    fn = StructuredExtremal(1.0, 1.0, 0, (1.0,))
    assert eval_structured(fn, 1.0) == 0.0
    assert abs(eval_structured(fn, -1.0)) == pytest.approx(4.0, abs=1e-12)


def test_tiny_p_outer_factor_past_the_double_range():
    # f = 2^-1000 (1 - z)^2000 at p = 1e-3: the factor alone is 1.5^2000,
    # past the largest double, at z = -1/2, where f is about 1.4e51
    fn = StructuredExtremal(2.0**-1000, 1e-3, 0, (1.0,))
    want = math.exp(2000 * math.log(1.5) - 1000 * math.log(2.0))
    got = eval_structured(fn, -0.5)
    assert abs(got - want) <= 1e-12 * want
    assert eval_structured(fn, 1.0) == 0.0


def test_p_infinity_skips_outer_factors():
    lam = 0.3 + 0.2j
    fn = StructuredExtremal(2.0, math.inf, 1, (lam,))
    z = 0.5j
    expect = 2.0 * (lam - z) / (1 - np.conj(lam) * z)
    assert eval_structured(fn, z) == pytest.approx(expect, abs=1e-14)


def test_real_on_real_axis_for_real_lambdas():
    fn = StructuredExtremal(1.0, 2.0, 1, (0.3, -0.7))
    for x in (-0.9, -0.2, 0.0, 0.4, 1.0):
        assert abs(eval_structured(fn, x).imag) < 1e-14


def test_boundary_modulus_identity():
    # Blaschke factors are unimodular on |z| = 1, so only the outer part
    # contributes to |f|
    rng = np.random.default_rng(7)
    for _ in range(20):
        lams = tuple(
            0.95 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()) for _ in range(3)
        )
        p = rng.uniform(0.3, 4.0)
        fn = StructuredExtremal(1.3 - 0.4j, p, 2, lams)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi))
        expect = abs(fn.scale) * np.prod(
            [abs(1 - np.conj(lam) * z) ** (2 / p) for lam in lams]
        )
        assert abs(eval_structured(fn, z)) == pytest.approx(expect, rel=1e-12)


def test_boundary_continuity_of_fractional_powers():
    # the principal-branch powers must glue continuously around the circle:
    # a branch-cut jump would stay O(1) under refinement, while a smooth
    # curve's largest step halves
    fn = StructuredExtremal(1.0, 0.7, 1, (0.5, -0.3 + 0.6j))

    def max_step(n):
        theta = np.linspace(0, 2 * np.pi, n + 1)
        vals = eval_structured(fn, np.exp(1j * theta))
        return float(np.abs(np.diff(vals)).max())

    coarse, fine = max_step(2048), max_step(4096)
    assert fine < 0.6 * coarse


def test_poly_eval_and_degree():
    poly = PolyCoeffs((1.0, 4.0, 6.0, 4.0, 1.0))
    assert poly.degree == 4
    assert poly(1.0) == pytest.approx(16.0)
    assert poly(-1.0) == pytest.approx(0.0)
    z = np.array([0.5, 1j])
    np.testing.assert_allclose(poly(z), (1 + z) ** 4, atol=1e-14)


def test_sample_boundary_of_identity():
    s = sample_boundary(lambda z: z, 4)
    np.testing.assert_allclose(s.values, [1, 1j, -1, -1j], atol=1e-15)


def test_sample_boundary_of_constant():
    s = sample_boundary(lambda z: 1.0, 8)
    np.testing.assert_allclose(s.values, np.ones(8), atol=0)


def test_sample_boundary_binomial_poly():
    s = sample_boundary(PolyCoeffs((1, 4, 6, 4, 1)), 16)
    assert s.values[0] == pytest.approx(16.0, abs=1e-12)
    assert abs(s.values[8]) < 1e-12


def test_sample_count_must_be_power_of_two():
    with pytest.raises(ValueError):
        sample_boundary(lambda z: z, 12)
    with pytest.raises(ValueError):
        sample_boundary(lambda z: z, 8.0)
    with pytest.raises(ValueError):
        BoundarySamples(np.ones(2))


def test_taylor_coeff_examples():
    s = sample_boundary(PolyCoeffs((1, 4, 6, 4, 1)), 16)
    assert taylor_coeff(s, 2) == pytest.approx(6.0, abs=1e-12)
    assert taylor_coeff(sample_boundary(lambda z: 1.0, 8), 0) == pytest.approx(1.0)
    assert abs(taylor_coeff(sample_boundary(lambda z: z**3, 8), 1)) < 1e-14


def test_taylor_coeff_holds_every_coefficient_a_double_holds():
    # the undivided transform's sum, 4e308, passes the largest double
    assert taylor_coeff(BoundarySamples([1e308] * 4), 0) == 1e308
    assert taylor_coeff(BoundarySamples([1e308, -1e308] * 2), 2) == 1e308


# each call evaluates the polynomial (1e308 + 1e308 z), whose value at z = 1
# passes the largest double; the constructor rejects it first
_PAST_THE_LARGEST_DOUBLE = {
    "norm_hp_p2": lambda f: norm_hp(f, 2.0),
    "norm_hp_p05": lambda f: norm_hp(f, 0.5),
    "norm_hinf": norm_hinf,
    "wiener_bound_check": lambda f: wiener_bound_check(f, 2, 1.0),
    "wiener_eval": lambda f: wiener_eval(f, 2, 0.9),
    "call": lambda f: f(1.0),
}


@pytest.mark.parametrize("entry", list(_PAST_THE_LARGEST_DOUBLE), ids=str)
def test_coefficients_summing_past_the_largest_double_raise_value_error(entry):
    with pytest.raises(ValueError, match="sum past the largest double"):
        _PAST_THE_LARGEST_DOUBLE[entry](PolyCoeffs((1e308, 1e308)))


def test_poly_coefficient_sizes_sum_by_parts():
    # abs(1.5e308 + 1.5e308j) overflows; the parts' sum passes as well
    with pytest.raises(ValueError, match="sum past the largest double"):
        PolyCoeffs((1.5e308 + 1.5e308j,))
    # parts summing to 1.7e308 build, and evaluate finitely on the disc
    f = PolyCoeffs((1.2e308 + 0.5e308j,))
    assert f(1.0) == 1.2e308 + 0.5e308j
    f = PolyCoeffs((0.9e308, -0.8e308))
    assert f(np.array([1.0, -1.0, 1j])).tolist() == [0.9e308 - 0.8e308, 1.7e308,
                                                     0.9e308 - 0.8e308j]


def test_taylor_coeff_index_range():
    s = sample_boundary(lambda z: z, 8)
    with pytest.raises(ValueError):
        taylor_coeff(s, 8)
    for n in (-1, 1.5, 1.0):
        with pytest.raises(ValueError):
            taylor_coeff(s, n)


def test_poly_coefficient_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        deg = int(rng.integers(0, 33))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        poly = PolyCoeffs(tuple(c))
        s = sample_boundary(poly, 64)
        for n in range(deg + 1):
            got = taylor_coeff(s, n)
            assert abs(got - c[n]) <= 1e-12 * max(1.0, abs(c[n]))


def test_boundary_grid_matches_samples():
    g = boundary_grid(8)
    s = sample_boundary(lambda z: z, 8)
    np.testing.assert_allclose(g, s.values, atol=1e-15)


def test_removable_singularity_is_patched():
    # the sinc-like quotient (z^2 - 1)/(z - 1) fails pointwise at z = 1 but
    # has the limit 2 there; the 0/0 at the grid point itself is expected
    def f(z):
        with np.errstate(invalid="ignore", divide="ignore"):
            return (z * z - 1.0) / (z - 1.0)

    s = sample_boundary(f, 16)
    assert s.values[0] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f: sample_boundary(f, 8),
        lambda f: norm_hp(f, 1.0),
        lambda f: wiener_eval(f, 2, boundary_grid(8)),
    ],
    ids=["sample_boundary", "norm_hp", "wiener_eval"],
)
def test_evaluation_error_is_not_retried_per_point(entry):
    calls = []

    def refuses(z):
        calls.append(z)
        raise EvaluationError("refused")

    with pytest.raises(EvaluationError):
        entry(refuses)
    assert len(calls) == 1


def _exp_scalar(z):
    # cmath takes one number at a time: an array raises TypeError
    return cmath.exp(z) * (2.0 + z)


def _exp_numpy(z):
    return np.exp(z) * (2.0 + z)


def _inner_scalar(z):
    # z^2 times a Blaschke factor, unimodular on the circle
    return cmath.exp(2.0 * cmath.log(z)) * (z - 0.5) / (1.0 - 0.5 * z)


def _inner_numpy(z):
    return np.exp(2.0 * np.log(z)) * (z - 0.5) / (1.0 - 0.5 * z)


@pytest.mark.parametrize(
    "entry, scalar, twin",
    [
        (lambda f: sample_boundary(f, 64).values, _exp_scalar, _exp_numpy),
        (lambda f: norm_hp(f, 0.7), _exp_scalar, _exp_numpy),
        (lambda f: norm_hinf(f), _exp_scalar, _exp_numpy),
        (lambda f: wiener_eval(f, 3, 0.6 * boundary_grid(16)), _exp_scalar, _exp_numpy),
        (lambda f: inner_defect(f, 2), _inner_scalar, _inner_numpy),
    ],
    ids=["sample_boundary", "norm_hp", "norm_hinf", "wiener_eval", "inner_defect"],
)
def test_scalar_only_callable_matches_numpy_twin(entry, scalar, twin):
    with pytest.raises(TypeError):
        scalar(boundary_grid(8))
    np.testing.assert_allclose(entry(scalar), entry(twin), rtol=1e-12, atol=1e-14)
