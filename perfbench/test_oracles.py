"""Tests of the benchmark's oracles, which must hold without hardyx.

    python3 -m pytest -q perfbench
"""

import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("p", [0.05, 0.3, 0.7, 0.97, 1 - 1e-4, 1 - 1e-8])
def test_alpha_p_is_the_middle_zero_of_F(p):
    L = oracles.log_alpha_p(p)
    with mp.workdps(120):
        a, p = mp.exp(L), mp.mpf(p)
        F = (p * p / a ** 2 + 2 * p * (2 - p) + (2 - p) ** 2 * a ** 2
             - 4 * (a ** -p + a ** (2 - p) - 1))
        # alpha_1 < alpha_p < alpha_2 = sqrt(p / (2 - p)); J_p < 0 exactly between alpha_1 and 1
        assert abs(F) < mp.mpf(10) ** -25
        assert a < mp.sqrt(mp.mpf(p) / (2 - p))
        assert 1 - 2 * a ** p + a ** 2 < 0


def test_alpha_p_fast_path_matches_bisection():
    # the double-precision start plus Newton agrees with pure mpmath bisection
    for p in (0.1, 0.5, 0.9):
        with mp.workdps(60):
            pm = mp.mpf(p)
            hi1 = mp.log(pm) / (2 - pm)
            L1 = oracles._bisect(lambda L: oracles._J(pm, L), hi1 - 40, hi1, 400)
            L2 = mp.log(pm / (2 - pm)) / 2
            ref = oracles._bisect(lambda L: oracles._scaled_F(pm, L), L1, L2, 400)
            assert abs(oracles.log_alpha_p(p) - ref) < mp.mpf(10) ** -25


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6])
def test_t_p_in_the_band(p):
    lo, hi = oracles.tp_band(p)
    assert lo < math.log(oracles.t_p(p)) < hi


def test_t_p_near_one():
    # t_p - 2^{-1/p} is about 0.222 (1 - p)^2 as p -> 1
    for delta in (1e-3, 1e-4, 1e-5):
        gap = oracles.t_p(1 - delta) - 2.0 ** (-1.0 / (1 - delta))
        assert gap == pytest.approx(0.222 * delta * delta, rel=0.02)


def test_phi1_explicit_cases():
    for t in (0.0, 0.1, 0.5, 0.7, 0.99):
        assert oracles.phi1(2.0, t, oracles.switch_point(2.0)) == pytest.approx(math.sqrt(1 - t * t), abs=1e-15)
        assert oracles.phi1(math.inf, t, 1.0) == pytest.approx(1 - t * t, abs=1e-15)
        assert oracles.phi1(1.0, t, 0.5) == pytest.approx(1.0 if t <= 0.5 else 2 * math.sqrt(t * (1 - t)), abs=1e-15)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_phi1_small_p(p):
    sw = oracles.switch_point(p)
    # both regimes give the same value at t_p
    below = oracles.phi1(p, sw * (1 - 1e-12), sw)
    above = oracles.phi1(p, sw * (1 + 1e-12), sw)
    assert below == pytest.approx(above, abs=1e-9)
    # the peak (2/sqrt(p(2-p))) (1 - p/2)^{1/p} sits at t* = (1 - p/2)^{1/p}
    t_star = (1 - p / 2) ** (1 / p)
    peak = t_star * 2 / math.sqrt(p * (2 - p))
    assert oracles.phi1(p, t_star, sw) == pytest.approx(peak, abs=1e-14)
    for t in (t_star * 0.99, t_star * 1.01):
        assert oracles.phi1(p, t, sw) < peak


def test_parseval_and_cusp_norm_against_quadrature():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    assert oracles.parseval(c) == pytest.approx(math.sqrt(np.mean(np.abs(np.polyval(c[::-1], z)) ** 2)), rel=1e-14)
    for j, p in ((1, 0.5), (2, 0.3), (3, 0.7)):
        with mp.workdps(30):
            mean = mp.quad(lambda th: (2 * mp.cos(th / 2)) ** (j * p), [0, mp.pi]) / mp.pi
        assert oracles.cusp_norm(j, p) == pytest.approx(float(mean ** (1 / mp.mpf(p))), rel=1e-14)
    assert oracles.cusp_coeffs(2, 3) == [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("p", [0.5, 2.0, math.inf])
def test_structured_extremal(p):
    rng = np.random.default_rng(1)
    lams = tuple(complex(x) for x in 0.8 * rng.uniform(size=3) * np.exp(2j * np.pi * rng.uniform(size=3)))
    scale, l = 0.7 - 0.2j, 2
    vals = oracles._structured_boundary(scale, p, l, lams, 1 << 12)
    nrm = np.max(np.abs(vals)) if math.isinf(p) else np.mean(np.abs(vals) ** p) ** (1 / p)
    assert oracles.structured_norm(scale, p, lams) == pytest.approx(nrm, rel=1e-12)
    assert oracles.structured_origin(scale, l, lams) == pytest.approx(scale * lams[0] * lams[1], abs=1e-15)
    # one outer factor only: C (1 - conj(lam) z)^{2/p} has a_1 = -C (2/p) conj(lam)
    if not math.isinf(p):
        a1 = oracles.structured_coeff(scale, p, 0, lams[:1], 1)
        assert a1 == pytest.approx(-scale * (2 / p) * lams[0].conjugate(), abs=1e-12)


def test_stored_sharpness_values():
    stored = json.loads(pathlib.Path(oracles.__file__).with_name("oracle_values.json").read_text())
    values = stored["sharpness_half_two"]
    assert sorted(values, key=float, reverse=True) == [repr(e) for e in oracles.SHARPNESS_EPS]
    for eps in (1e-2, 1e-7):
        assert values[repr(eps)] == pytest.approx(oracles.sharpness_half_two(eps), abs=1e-13)
    ratios = [values[repr(e)] for e in oracles.SHARPNESS_EPS]
    assert all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < math.sqrt(2)
