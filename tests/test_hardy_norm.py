import cmath
import math
import re
import time
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyx import fn_repr, hardy_norm, wiener
from hardyx.fn_repr import PolyCoeffs, StructuredExtremal, _poly_grid
from hardyx.hardy_norm import (
    QuadConfig,
    QuadratureError,
    circle_mean,
    norm_hinf,
    norm_hp,
    parseval_norm,
)
from hardyx.wiener import wiener_bound_check

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
    # a plain sequence of coefficients is read as its PolyCoeffs
    assert parseval_norm((0.6, 0.8j, 1e-3)) == parseval_norm(PolyCoeffs((0.6, 0.8j, 1e-3)))


def test_parseval_norm_at_both_ends_of_the_double_range():
    assert parseval_norm(PolyCoeffs((3e-170, 4e-170))) == 5e-170
    assert parseval_norm(PolyCoeffs((1e200, 1e200))) == math.sqrt(2.0) * 1e200
    assert parseval_norm(PolyCoeffs((1e-320, 0.0))) == 1e-320
    # |a_0| alone overflows here, the norm does not
    assert parseval_norm(PolyCoeffs((1.2e308 + 0.5e308j,))) == pytest.approx(1.3e308, rel=1e-15)
    for big in ((1.5e308, 1.5e308), (1.5e308 + 1.5e308j,)):
        with pytest.raises(ValueError, match="largest double"):
            parseval_norm(PolyCoeffs(big))


def _shift_norm(a, p, scale=1):
    """||scale (a + z)||_p for a > 1, from mean |a + z|^p = a^p 2F1(-p/2, -p/2; 1; 1/a^2)."""
    p, a = mpmath.mpf(p), mpmath.mpf(a)
    return scale * (a**p * mpmath.hyp2f1(-p / 2, -p / 2, 1, 1 / a**2)) ** (1 / p)


def _cusp_norm(p):
    """||1 + z||_p, from mean |1 + z|^p = Gamma(p + 1) / Gamma(p/2 + 1)^2."""
    p = mpmath.mpf(p)
    return (mpmath.gamma(p + 1) / mpmath.gamma(p / 2 + 1) ** 2) ** (1 / p)


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7, 1e-9, 1e-11])
def test_norm_hp_meets_rel_tol_from_its_p_floor_up(rel_tol):
    # the mean of |f|^p is rounded at 2^-52 and the norm at about 2^-52 / p.
    # 1 + z has a grid point on its zero, where |f|^p = 0 takes 1/4096 off
    # the mean: below p = 1.6e-7 the first two estimates both underflowed to
    # 0 and agreed on a norm of 0.
    floor = 2.0**-52 / rel_tol
    cases = [
        ((2.0, 1.0), lambda p: _shift_norm(2, p)),
        ((1.1, 1.0), lambda p: _shift_norm(1.1, p)),
        ((2e-200, 1e-200), lambda p: _shift_norm(2, p, mpmath.mpf("1e-200"))),
        ((3e250, 1e250), lambda p: _shift_norm(3, p, mpmath.mpf("1e250"))),
        ((1.0, 1.0), _cusp_norm),
    ]
    cfg = QuadConfig(rel_tol=rel_tol)
    with mpmath.workdps(60):
        for coeffs, exact in cases:
            with pytest.raises(ValueError, match="below 2"):
                norm_hp(PolyCoeffs(coeffs), 0.999 * floor, cfg)
            for p in (1.001 * floor, 3 * floor, 30 * floor):
                got = norm_hp(PolyCoeffs(coeffs), p, cfg)
                assert abs(got / exact(p) - 1) <= rel_tol, (coeffs, p)


_SCALES = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    parts=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=12),
    scale=_SCALES,
    p=st.one_of(_SCALES, st.sampled_from([math.inf, 2.0**-52 / 1e-9, 1.0, 2.0])),
    k=st.integers(min_value=2, max_value=3),
)
def test_quadrature_gives_a_finite_value_or_a_typed_error(parts, scale, p, k):
    # coefficients from 1e-300 to 1e300 in modulus, p from 1e-300 to 1e300
    f = PolyCoeffs(tuple(scale * complex(a, b) for a, b in zip(parts[::2], parts[1::2])))
    calls = {
        "parseval_norm": lambda: (parseval_norm(f),),
        "norm_hinf": lambda: norm_hinf(f, return_witness=True),
        "wiener_bound_check": lambda: (wiener_bound_check(f, k, p).ratio,),
    }
    if p < math.inf:
        calls["norm_hp"] = lambda: (norm_hp(f, p),)
    for name, call in calls.items():
        try:
            values = call()
        except (ValueError, QuadratureError):
            continue
        assert all(map(math.isfinite, values)), name


def test_norm_hp_rejects_bad_exponent():
    with pytest.raises(ValueError):
        norm_hp(lambda z: 1.0, 0.0)
    with pytest.raises(ValueError):
        norm_hp(lambda z: 1.0, -1.0)
    # wiener_bound_check's own check: -inf would otherwise reach norm_hinf
    for p in (0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="positive"):
            wiener_bound_check(BINOMIAL4, 2, p)


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


def test_quadrature_error_carries_last_estimates(monkeypatch):
    # a spike too sharp for 64 panels at this tolerance
    monkeypatch.setattr(hardy_norm, "_MAX_PANELS", 64)
    spike = lambda th: 1.0 / np.abs(np.exp(1j * th) - (1 + 1e-7))
    with pytest.raises(QuadratureError) as info:
        circle_mean(spike, rel_tol=1e-12)
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
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "name,value",
    [
        ("seeds", (math.nan,)),
        ("seeds", (1.0, math.inf)),
        ("seeds", (-math.inf,)),
    ],
)
def test_circle_mean_rejects_bad_arguments_before_evaluating(name, value):
    calls = []
    with pytest.raises(ValueError, match=name):
        circle_mean(lambda th: calls.append(1) or np.ones_like(th), **{name: value})
    assert not calls


def _named_angle(err: QuadratureError) -> float:
    return float(re.search(r"not finite at theta = (\S+) ", str(err)).group(1))


def test_circle_mean_stops_at_a_non_finite_integrand():
    start = time.perf_counter()
    # NaN on part of the starting panels: the first call raises
    with pytest.raises(QuadratureError, match="not finite") as info:
        circle_mean(lambda th: np.where(th > 3.0, np.nan, 1.0))
    assert 3.0 < _named_angle(info.value) < 3.0 + 2 * math.pi / 32
    assert all(math.isnan(e) for e in info.value.estimates)
    # NaN within 5e-14 of a seeded cusp: the starting panels are graded
    # into the seed 1 down to 2.5e-11, and the nodes of their halves stay
    # 6.7e-14 off it, so only a split's nodes come that close
    calls = []

    def g(th):
        calls.append(1)
        d = np.abs(th - 1.0)
        return np.where(d < 5e-14, np.nan, d**-0.5)

    with pytest.raises(QuadratureError, match="not finite") as info:
        circle_mean(g, seeds=(1.0,))
    assert abs(_named_angle(info.value) - 1.0) < 5e-14
    running, last = info.value.estimates
    assert math.isfinite(running) and math.isnan(last)
    assert 1 < len(calls) < 200
    # the 20000-panel budget used to run out first, in about 6 s
    assert time.perf_counter() - start < 0.5


def test_circle_mean_calls_g_once_for_the_start_and_once_per_round():
    peak = lambda th: 1.0 / np.abs(np.exp(1j * th) - 1.0001)
    calls = []

    def counted(th):
        calls.append(th)
        return peak(th)

    value = circle_mean(counted, 1e-10, seeds=(2.0,))
    # the mean of 1 / |e^{i theta} - (1 + eps)|, from the AGM
    assert value == pytest.approx(wiener._pole_mean(1e-4), rel=1e-10)
    assert len(calls) > 2
    # 57 starting panels, each with its halves: the 32 uniform ones, cut at
    # the seed 2 and at 12 graded offsets on each side of it (the 13th,
    # 3.8e-12, lies below 1e-11 * 2)
    assert calls[0].shape == (57 * 3 * 16,)
    for th in calls[1:]:
        # 64 nodes per split panel: the 16 of each of its quarters, laid
        # out quarter by quarter, each quarter's nodes centred on it
        centres = np.reshape(th, (4, -1, 16)).mean(axis=2)
        steps = np.diff(centres, axis=0)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0], rtol=1e-6, atol=0)


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
        _, _, one = hardy_norm._samplers(f)
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
    assert not sizes
    # a stalled cusp: only the panel pass evaluates f, on its starting
    # panels (48 nodes each: the panel and its halves), graded into the zero
    # -1 so finely that no panel needs a split
    norm_hp(PolyCoeffs((1.0, 1.0)), 0.5)
    assert len(sizes) == 1 and sizes[0] % 48 == 0


def _sampled_polys(monkeypatch):
    """The PolyCoeffs that each later _poly_grid call samples, in order."""
    sampled = []
    grid = hardy_norm._poly_grid
    monkeypatch.setattr(hardy_norm, "_poly_grid", lambda c, *a: sampled.append(c) or grid(c, *a))
    return sampled


def test_norm_memo_is_keyed_by_p_tolerance_and_instance(monkeypatch):
    # one instance is sampled once per grid: another p or rel_tol reads the
    # kept samples and returns what a fresh, equal instance measures
    sampled = _sampled_polys(monkeypatch)
    f = _random_poly(np.random.default_rng(8), 9)
    value = norm_hp(f, 0.7)
    assert sampled
    sampled.clear()
    assert norm_hp(f, 0.7) == value
    assert norm_hp(f, 0.7, QuadConfig()) == value
    for p, cfg in ((0.7, QuadConfig(rel_tol=1e-7)), (0.8, None), (3.0, None),
                   (0.4, QuadConfig(rel_tol=1e-5))):
        got = norm_hp(f, p, cfg)
        assert not sampled
        assert got == norm_hp(PolyCoeffs(f.coeffs), p, cfg)
        assert sampled and all(c is not f for c in sampled)
        sampled.clear()
    norm_hinf(f)
    assert not sampled
    assert norm_hp(PolyCoeffs(f.coeffs), 0.7) == value
    assert sampled


def test_grid_samples_are_kept_once_and_read_only(monkeypatch):
    sampled = _sampled_polys(monkeypatch)
    f = _random_poly(np.random.default_rng(10), 12)
    _, grid, _ = hardy_norm._samplers(f)
    for n, half in ((4096, False), (4096, True), (8192, True)):
        vals = grid(n, half)
        assert grid(n, half) is vals
        assert np.array_equal(vals, np.abs(_poly_grid(f, n, half)))
        with pytest.raises(ValueError):
            vals[0] = 0.0
    assert len(sampled) == 3


def test_memo_dies_with_its_polynomial():
    f = _random_poly(np.random.default_rng(12), 7)
    for p in (0.5, 2.0):
        norm_hp(f, p)
    norm_hinf(f)
    wiener.wiener_bound_check(f, 3, 0.5)
    ref = weakref.ref(f)
    w = weakref.ref(wiener.wiener_coeffs(f, 3))
    del f
    assert ref() is None and w() is None


def test_norm_memo_leaves_equality_hash_and_repr():
    f, g = PolyCoeffs((1.0, 2.0j)), PolyCoeffs((1.0, 2.0j))
    norm_hp(f, 0.5)
    norm_hinf(f)
    assert f._memo and not g._memo
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == "PolyCoeffs(coeffs=((1+0j), 2j))"
    assert len({f, g}) == 1


def test_norm_hinf_witness_from_the_memo(monkeypatch):
    sampled = _sampled_polys(monkeypatch)
    f = _random_poly(np.random.default_rng(9), 15)
    pair = norm_hinf(f, return_witness=True)
    sampled.clear()
    assert norm_hinf(f, return_witness=True) == pair
    assert norm_hinf(f) == pair[0]
    assert not sampled
    assert norm_hinf(PolyCoeffs(f.coeffs), return_witness=True) == pair


def test_panel_pass_meets_the_tolerance_on_the_norm():
    # The 24th draw of this sweep, a degree-6 polynomial with a zero at
    # radius 0.99996, stalls the dyadic pass at p = 1/2.  With the mean of
    # |f|^{1/2} taken to rel_tol its square, the norm, was off by 1.6e-9.
    # The reference is a 40-digit mpmath quadrature broken at the zeros'
    # angles and graded into the one near the circle.
    rng = np.random.default_rng(123)
    for _ in range(24):
        deg = int(rng.integers(1, 33))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    assert deg == 6
    assert norm_hp(PolyCoeffs(tuple(c)), 0.5) == pytest.approx(2.7292121669003033, rel=1e-9)


def _cusp_poly(j: int, m: int) -> PolyCoeffs:
    """(1 + z^m)^j, whose norms have the Gamma formula below."""
    coeffs = [0.0] * (j * m + 1)
    for i in range(j + 1):
        coeffs[i * m] = float(math.comb(j, i))
    return PolyCoeffs(tuple(coeffs))


@pytest.mark.parametrize("j", [1, 2, 3])
def test_cusp_norms_match_gamma_formula(j):
    # ||(1 + z^m)^j||_p^p = Gamma(1 + jp) / Gamma(1 + jp/2)^2 for every m
    for p in (0.3, 0.4, 0.5, 0.6):
        exact = (math.gamma(1 + j * p) / math.gamma(1 + j * p / 2) ** 2) ** (1 / p)
        for m in (1, 2, 3, 4):
            assert norm_hp(_cusp_poly(j, m), p) == pytest.approx(exact, rel=1e-8)


def test_double_zero_split_across_angle_zero_is_one_seed():
    # numpy.roots splits the double zero of (1 - z)^2 to the angles
    # +-1.49e-8, on both sides of 0: they are merged across it
    f = PolyCoeffs((1.0, -2.0, 1.0))
    split = np.angle(np.roots(f.coeffs[::-1]))
    assert split.min() < 0 < split.max()
    (seed,) = hardy_norm._zero_angles(f)
    assert min(seed, 2 * math.pi - seed) <= 1e-12
    # |1 - e^{i theta}| is |1 + e^{i theta}| turned by pi: the Gamma formula
    p = 0.2
    exact = (math.gamma(1 + 2 * p) / math.gamma(1 + p) ** 2) ** (1 / p)
    assert abs(norm_hp(f, p) - exact) <= 1e-9


@pytest.mark.parametrize("coeffs,p", [((1e10, 1e10, 1e-300), 0.5), ((1.0, 1.0, 1e-310), 0.2)])
def test_top_coefficient_past_the_double_range_drops_out_of_the_seeds(coeffs, p):
    # the z^2 coefficient lies below the others by more than the double
    # range: numpy.roots on all three would form an infinite companion row.
    # Its roots lie past that range, so the seed is -1 alone, and the norm
    # is c_0 ||1 + z||_p, from the Gamma formula, to far below an ulp
    (seed,) = hardy_norm._zero_angles(PolyCoeffs(coeffs))
    assert seed == pytest.approx(math.pi, abs=1e-12)
    with mpmath.workdps(30):
        pm = mpmath.mpf(p)
        exact = coeffs[0] * (mpmath.gamma(1 + pm) / mpmath.gamma(1 + pm / 2) ** 2) ** (1 / pm)
    assert abs(norm_hp(PolyCoeffs(coeffs), p) / exact - 1) <= 1e-15


@pytest.mark.parametrize(
    "j,ps",
    [
        (1, (0.3, 0.4, 0.4110134197239355, 0.45, 0.5)),
        (2, (0.3, 0.4, 0.4110134197239355, 0.45, 0.5)),
        (3, (0.25, 0.3, 0.35)),
    ],
)
def test_stalled_cusp_norms_meet_rel_tol(monkeypatch, j, ps):
    # At these p the dyadic pass stalls on every |theta|^{jp} cusp of
    # (1 + z^m)^j, and the panels, graded into the zeros' angles from
    # numpy.roots, meet the default rel_tol 1e-9 in one or two calls of the
    # integrand.  (1 + z^3)^2 at p = 0.4110134197239355 was 1.16e-9 off with
    # a uniform start, and the zeros of 1 + z^3 miss the starting grid.
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(0)

        def g_counted(theta):
            calls[-1] += 1
            return g(theta)

        return circle_mean(g_counted, *args, **kwargs)

    monkeypatch.setattr(hardy_norm, "circle_mean", counted)
    for p in ps:
        exact = (math.gamma(1 + j * p) / math.gamma(1 + j * p / 2) ** 2) ** (1 / p)
        for m in (1, 2, 3, 4):
            calls.clear()
            assert norm_hp(_cusp_poly(j, m), p) == pytest.approx(exact, rel=1e-9)
            assert len(calls) == 1 and calls[0] <= 2


def test_stalled_dyadic_pass_hands_over_after_three_doublings(monkeypatch):
    # 4096 starting points and three doublings of the midpoints: 2^15 in all
    grid_points, panel_passes = [], []
    monkeypatch.setattr(
        hardy_norm, "circle_mean",
        lambda *a, **kw: panel_passes.append(1) or circle_mean(*a, **kw),
    )

    def cusp(z):
        if not panel_passes:
            grid_points.append(np.size(z))
        return 1 + z

    assert norm_hp(cusp, 0.5) == pytest.approx(
        (math.gamma(1.5) / math.gamma(1.25) ** 2) ** 2, rel=1e-8
    )
    assert sum(grid_points) <= 2**15 + 4096
    assert panel_passes


def _trapezoid_norm(f, p, n):
    """The n-point trapezoid sum of |f|^p, to the power 1/p."""
    vals = np.abs(np.fft.ifft(np.asarray(f.coeffs), n, norm="forward"))
    return float(np.mean(vals**p)) ** (1 / p)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_polynomial_in_z_m_is_measured_through_g(monkeypatch, m):
    # f(z) = g(z^m) has the norms of g, and only g's grids are sampled
    sampled = _sampled_polys(monkeypatch)
    g = _random_poly(np.random.default_rng(40 + m), 9)
    coeffs = [0j] * (9 * m + 1)
    coeffs[::m] = g.coeffs
    f = PolyCoeffs(tuple(coeffs))
    for p in (0.3, 0.7, 1.0, 3.0):
        assert norm_hp(f, p) == pytest.approx(_trapezoid_norm(f, p, 2**20), rel=1e-9)
    sup, theta = norm_hinf(f, return_witness=True)
    # the polish climbs above the 2^20-point grid's maximum, by its h^2 gap
    grid_max = float(np.abs(_poly_grid(f, 2**20)).max())
    assert grid_max <= sup <= grid_max * (1 + 1e-9)
    assert abs(f(np.exp(1j * theta))) == pytest.approx(sup, rel=1e-14)
    assert sampled and all(c is not f and c.coeffs == g.coeffs for c in sampled)


def test_structured_norm_at_its_own_p_starts_from_128_points(monkeypatch):
    # on the circle |f|^p = |C|^p prod_j |1 - conj(lam_j) z|^2 at f's own p,
    # a trigonometric polynomial of degree k: the 128- and 256-point means
    # are exact and the pass stops there, within rounding of the 4096-point
    # start and of the series norm |C| (sum |c_n|^2)^(1/p); at another p the
    # pass starts from 4096 points
    points = []
    evaluate = fn_repr.eval_structured
    monkeypatch.setattr(fn_repr, "eval_structured",
                        lambda fn, z: points.append(np.size(z)) or evaluate(fn, z))
    rng = np.random.default_rng(31)
    for k, p, l in ((1, 0.5, 1), (2, 0.3, 0), (2, 4.0, 2), (3, 1.5, 2), (3, 0.01, 1)):
        lams = 0.5 * rng.uniform(0.0, 1.0, k) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, k))
        fn = StructuredExtremal(scale=0.7 - 0.2j, p=p, zero_count=l, lambdas=tuple(lams))
        points.clear()
        own = norm_hp(fn, p)
        assert points == [128, 128], (k, p)
        c = np.array([1.0 + 0j])
        for lam in lams:
            c = np.convolve(c, [1.0, -np.conj(lam)])
        series = abs(fn.scale) * float(np.sum(np.abs(c) ** 2)) ** (1 / p)
        assert abs(own - series) <= 1e-13 * series, (k, p)
        # a mean rounded at 2^-52 relative puts about 2^-52 / p in the norm
        assert abs(own - hardy_norm._norm_hp(fn, 4096, p, 1e-9)) <= 4e-15 / min(1.0, p) * own, (k, p)
        points.clear()
        norm_hp(fn, 2 * p)
        assert points[:2] == [4096, 4096], (k, p)


def test_norm_of_a_high_power_needs_no_roots_of_its_degree():
    # 1 + z^5000 is measured as 1 + w from 128 points: numpy.roots of the
    # 5000 x 5000 companion matrix took minutes
    f = PolyCoeffs((1.0,) + (0.0,) * 4999 + (1.0,))
    for p in (0.5, 1.5):
        exact = (math.gamma(1 + p) / math.gamma(1 + p / 2) ** 2) ** (1 / p)
        assert norm_hp(f, p) == pytest.approx(exact, rel=1e-14)
    assert norm_hinf(f) == pytest.approx(2.0, rel=1e-15)


def test_slow_dyadic_rate_goes_to_the_panels_before_a_false_agreement():
    # perfbench quadrature, seed 1, round 27, third polynomial (degree 23):
    # the differences 7.2e-5, 4.8e-5 fall at ratio 0.66 after 0.25, and the
    # next one, 3.8e-7, met rel_tol by chance before rising to 2.3e-6; the
    # norm accepted there was 4.5e-7 off
    rng = np.random.default_rng([1, 27])
    for _ in range(3):
        deg = int(rng.integers(1, 33))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    assert deg == 23
    f = PolyCoeffs(tuple(c))
    value = norm_hp(f, 0.4, QuadConfig(rel_tol=1e-7))
    assert value == pytest.approx(_trapezoid_norm(f, 0.4, 2**21), rel=1e-7)


@pytest.mark.parametrize("j,p", [(1, 0.4), (2, 0.45)])
def test_stalled_cusp_goes_to_the_panels_after_one_doubling(monkeypatch, j, p):
    # the differences fall at the cusp's fixed ratio 2^-(1 + jp): read from
    # the starting grid's subgrids and the first doubling, it cannot reach
    # rel_tol in the two doublings left
    sampled = []
    grid = hardy_norm._poly_grid
    monkeypatch.setattr(
        hardy_norm, "_poly_grid", lambda c, n, half: sampled.append((n, half)) or grid(c, n, half)
    )
    exact = (math.gamma(1 + j * p) / math.gamma(1 + j * p / 2) ** 2) ** (1 / p)
    assert norm_hp(_cusp_poly(j, 1), p) == pytest.approx(exact, rel=1e-9)
    assert sampled == [(4096, False), (4096, True)]


def test_stall_rule_tells_an_algebraic_rate_from_a_geometric_one():
    stalls = hardy_norm._stalls
    # a cusp's fixed ratio 2^-1.4, far from the tolerance
    assert stalls([1e-4, 0.38e-4, 0.144e-4], 2, 1e-9)
    # reachable in the doublings left at that ratio
    assert not stalls([1e-8, 0.38e-8, 0.144e-8], 2, 1e-9)
    # a geometric rate squares its ratio
    assert not stalls([1e-2, 1e-3, 1e-5], 2, 1e-12)
    # growing differences, and a difference that vanished before
    assert not stalls([1e-4, 2e-4, 3e-4], 2, 1e-9)
    assert not stalls([0.0, 1e-4, 0.5e-4], 2, 1e-9)


@pytest.mark.parametrize("pole", [0.0, math.pi / 4096], ids=["start", "midpoints"])
def test_pole_on_a_dyadic_grid_goes_to_the_panels(pole):
    # (1 - z e^{-i pole})^{-1/2} is NaN at theta = pole, a point of the
    # starting grid or of the first grid of midpoints, where the dyadic pass
    # used to agree on a NaN mean and return 0.0.  Its H^{1/2} norm is the
    # square of the mean of |2 sin(theta/2)|^{-1/4}.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mean = mpmath.quad(lambda t: (2 * mpmath.sin(t / 2)) ** -0.25, [0, mpmath.pi]) / mpmath.pi
        exact = float(mean**2)
    assert exact == pytest.approx(1.06516218501, rel=1e-11)
    w = cmath.exp(1j * pole)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert norm_hp(lambda z: (1 - z / w) ** -0.5, 0.5) == pytest.approx(exact, rel=1e-8)


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
    # the dyadic grids, then one call of g per round of splits: the floor
    # shows after three doublings of the panel count past 1024
    assert calls[0] < 100


def test_large_p_neither_underflows_nor_overflows():
    # 0.5^1100 underflows and 3^1000 overflows: the mean is of (|f|/M)^p
    assert norm_hp(PolyCoeffs((0.5,)), 1100.0) == 0.5
    # ||2 + z||_p^p = 9^{p/4} P_{p/2}(5/3), a Legendre function
    assert norm_hp(PolyCoeffs((2.0, 1.0)), 1000.0) == pytest.approx(2.98915674867569394, rel=1e-9)
    assert norm_hp(PolyCoeffs((2.0, 1.0)), 2000.0) == pytest.approx(2.99405473163808247, rel=1e-9)


def _two_term(c, k, alpha):
    # c (1 + e^{i alpha} z^k): |f| peaks at 2|c| where k theta + alpha = 0 mod 2 pi
    a = [0j] * (k + 1)
    a[0], a[k] = c, c * cmath.exp(1j * alpha)
    return PolyCoeffs(tuple(a))


def _two_term_norm(c, p):
    # ||c (1 + e^{i alpha} z^k)||_p^p = |c|^p Gamma(p + 1) / Gamma(p/2 + 1)^2
    return abs(c) * math.exp((math.lgamma(p + 1) - 2 * math.lgamma(p / 2 + 1)) / p)


def test_large_p_peak_between_starting_grid_points_rescales(monkeypatch):
    scales = []
    scaled = hardy_norm._scaled_norm_hp
    monkeypatch.setattr(
        hardy_norm, "_scaled_norm_hp", lambda *a: scales.append(a[-1]) or scaled(*a)
    )
    # unscaled at the start: the starting grid's largest sample, 1.001 cos(pi/256),
    # to the power p is in range, but the first half grid meets 1.001^p = e^749.6
    f = _two_term(0.5005, 32, math.pi / 128)
    assert norm_hp(f, 7.5e5) == pytest.approx(_two_term_norm(0.5005, 7.5e5), rel=1e-9)
    assert scales == [1.0, 0.5005 * 2.0]
    # scaled at the start, by 2 cos(pi/8192); the half grid meets the peak 2
    scales.clear()
    f = _two_term(1.0, 1, math.pi / 4096)
    assert norm_hp(f, 1e10) == pytest.approx(_two_term_norm(1.0, 1e10), rel=1e-9)
    assert scales == [2.0 * math.cos(math.pi / 8192), 2.0]
    # 32 peaks, each as high as 2 cos(pi/256)^-1 over the starting grid's
    scales.clear()
    value = norm_hp(_two_term(1.0, 32, math.pi / 128), 1e7)
    assert 1.9999 < value <= 2.0
    assert scales[-1] == 2.0


def test_large_p_peak_met_by_a_panel_node_rescales(monkeypatch):
    # the NaN at theta = 0 sends the first attempt straight to the panels,
    # where a node meets the peak at theta = -2 pi 0.3 / 32768, above every
    # starting-grid sample; the restart is raised inside circle_mean
    events = []
    scaled, mean = hardy_norm._scaled_norm_hp, hardy_norm.circle_mean
    monkeypatch.setattr(
        hardy_norm, "_scaled_norm_hp", lambda *a: events.append(a[-1]) or scaled(*a)
    )
    monkeypatch.setattr(
        hardy_norm, "circle_mean", lambda *a, **kw: events.append("panels") or mean(*a, **kw)
    )
    w = np.exp(2j * math.pi * 0.3 / 32768)
    f = lambda z: np.where(z == 1, np.nan, 1 + w * z)
    value = norm_hp(f, 1e10, QuadConfig(rel_tol=1e-6))
    assert value == pytest.approx(_two_term_norm(1.0, 1e10), rel=1e-12)
    first, _, second, _ = events
    assert events[1::2] == ["panels", "panels"]
    assert 1.0 < first < second <= 2.0


@pytest.mark.parametrize("p", [3.0, 20.0, 1e3, 1e6, 1e10])
def test_panel_norms_at_large_p_meet_the_gamma_formula(p):
    # the NaN at theta = 0 sends the norm to the panels; the mean there is
    # held to 1 - (1 - rel_tol)^p, which keeps the norm within rel_tol.  At
    # p = 1e10 holding the mean to rel_tol itself meets the round-off floor
    w = np.exp(2j * math.pi * 0.3 / 32768)
    value = norm_hp(lambda z: np.where(z == 1, np.nan, 1 + w * z), p)
    with mpmath.workdps(40):
        exact = mpmath.exp((mpmath.loggamma(p + 1) - 2 * mpmath.loggamma(mpmath.mpf(p) / 2 + 1)) / p)
    assert value == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("rel_tol", [1.0, 2.0])
@pytest.mark.parametrize("p", [0.5, 3.0])
def test_panel_norms_take_a_rel_tol_of_one_or_more(rel_tol, p):
    # every mean of |f|^p is within 1 - (1 - rel_tol)^p = 1 of the true one
    # on its low side, so the panels' target is 1 and nothing raises
    w = np.exp(2j * math.pi * 0.3 / 32768)
    value = norm_hp(lambda z: np.where(z == 1, np.nan, 1 + w * z), p, QuadConfig(rel_tol=rel_tol))
    assert abs(value / _two_term_norm(1.0, p) - 1) <= rel_tol


def test_equal_peaks_of_a_polynomial_in_z_m_are_all_resolved():
    # 32 peaks narrower than the finest grid's spacing at p = 1e7: g(w) =
    # 1 + e^{i pi/128} w has one, which the panels seed; measured on f,
    # one of the 32 was resolved, log(32)/p = 3.5e-7 low
    value = norm_hp(_two_term(1.0, 32, math.pi / 128), 1e7)
    assert value == pytest.approx(1.9999983430328434, abs=1e-13)
    assert value == pytest.approx(_two_term_norm(1.0, 1e7), abs=1e-13)


@pytest.mark.parametrize("p", [1100.0, 2000.0, 1e6])
@pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 3.0, -2.5j, 1e3])
def test_large_p_norm_of_a_constant(c, p):
    assert norm_hp(PolyCoeffs((c,)), p) == pytest.approx(abs(c), rel=1e-15)


def test_unscaled_range_keeps_the_unscaled_mean():
    # where |f|^p stays in range the scale is 1, so no bit of a norm moves
    prof = np.array([0.5, 2.0, 3.0])
    assert hardy_norm._pow_scale(prof, 600.0) == 1.0
    assert hardy_norm._pow_scale(prof, 700.0) == 3.0
    assert hardy_norm._pow_scale(np.array([0.5, 0.25]), 1000.0) == 1.0
    assert hardy_norm._pow_scale(np.array([0.5, 0.25]), 1100.0) == 0.5
    assert hardy_norm._pow_scale(np.array([np.inf, np.nan, 4.0]), 600.0) == 4.0
    assert hardy_norm._pow_scale(np.array([0.0, np.nan]), 2.0) == 1.0
