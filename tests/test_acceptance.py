"""Acceptance gate: one test per shipped guarantee, at stated tolerance.

Run with -v to get one pass/fail line per criterion.  Criterion 4 has two
halves: the sharpness family's ratio grows monotonically toward k^{1-p},
and it comes within 5% of that limit.  The family converges only
logarithmically in eps, so the threshold half is stated at eps = 1e-10.
At the earlier eps = 1e-5 the exact ratio is 1.2964379625, 91.7% of
sqrt(2), and no correct implementation could meet the bar there; a
40-digit mpmath oracle puts the 95% crossing at eps ~ 1.18e-9.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from hardyx.cli import main
from hardyx.closed_form import alpha_p, beta_of_alpha, phi1, t_p
from hardyx.fn_repr import PolyCoeffs
from hardyx.hardy_norm import norm_hinf, norm_hp, parseval_norm
from hardyx.solver import (
    SolveConfig,
    maximize_phik,
    sandwich_check,
    t0_scan,
)
from hardyx.verify import CheckResult, run_appendix, run_wiener
from hardyx.wiener import sharpness_ratio, wiener_bound_check

INF = math.inf


def test_criterion_01_closed_form_cross_checks():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        t = i / 999.0
        worst = max(worst, abs(phi1(2.0, t).value - math.sqrt(1.0 - t * t)))
        worst = max(worst, abs(phi1(INF, t).value - (1.0 - t * t)))
    assert worst < 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_02_norm_oracle():
    start = time.perf_counter()
    assert norm_hp(PolyCoeffs((1.0, 4.0, 6.0, 4.0, 1.0)), 1.0) == pytest.approx(
        6.0, abs=1e-8
    )
    rng = np.random.default_rng(20240814)
    for _ in range(100):
        deg = int(rng.integers(1, 33))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = PolyCoeffs(tuple(c))
        assert abs(norm_hp(f, 2.0) - parseval_norm(f)) < 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_03_wiener_bound_suite():
    start = time.perf_counter()
    results = run_wiener()  # 200 random polynomials, k in {2,3,5}, six p values
    assert results
    assert all(isinstance(r, CheckResult) for r in results)
    # the fixed-point families keep the equality branch of the bound honest
    assert any(r.name.startswith("wiener/fixed-points") for r in results)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert time.perf_counter() - start < 60.0


def test_criterion_04_sharpness_monotone():
    start = time.perf_counter()
    seq = [sharpness_ratio(0.5, 2, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(b > a for a, b in zip(seq, seq[1:])), seq
    assert time.perf_counter() - start < 30.0


def test_criterion_04_sharpness_threshold():
    # bar: the family comes within 5% of k^{1-p} = sqrt(2).  A 40-digit
    # mpmath oracle (elliptic K for the denominator, w = z^2 for the
    # numerator; see tests/test_wiener.py) gives 1.3504481309175 at
    # eps = 1e-10, 95.49% of sqrt(2).  The ratio crosses the bar only near
    # eps = 1.18e-9, so at eps = 1e-5 (1.2964379625, 91.7%) it cannot.
    assert sharpness_ratio(0.5, 2, 1e-10) > 0.95 * math.sqrt(2.0)


def test_criterion_05_equality_examples():
    start = time.perf_counter()
    for k in (2, 3):
        f = PolyCoeffs(tuple(float(math.comb(2 * k, j)) for j in range(2 * k + 1)))
        rep = wiener_bound_check(f, k, 1.0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-7)

        c = [0.0] * (2 * k + 2)
        c[0] += 1.0
        c[k] += 2.0
        c[2 * k] += 1.0
        c[1] -= 1.0
        c[k + 1] += 2.0
        c[2 * k + 1] -= 1.0
        assert norm_hinf(PolyCoeffs(tuple(c))) == pytest.approx(4.0, abs=1e-9)
    assert time.perf_counter() - start < 10.0


def test_criterion_06_appendix_suite():
    start = time.perf_counter()
    results = run_appendix()  # 1000 p in (0, 1)
    assert results
    names = {r.name for r in results}
    assert "appendix/H-positive" in names
    assert "appendix/tp-band" in names
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert time.perf_counter() - start < 10.0


def test_criterion_07_solver_vs_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        for j in range(10):
            t = (j + 0.5) / 10.0
            sol = maximize_phik(SolveConfig(k=1, p=p, t=t, starts=24))
            worst = max(worst, abs(sol.value - phi1(p, t).value))
    assert worst < 1e-5

    for p in (1.0, 2.0, INF):
        for t in (0.35, 0.75):
            sol = maximize_phik(SolveConfig(k=2, p=p, t=t, starts=32))
            assert abs(sol.value - phi1(p, t).value) < 1e-5
    assert time.perf_counter() - start < 600.0


def test_criterion_08_nonuniqueness_at_switch():
    for p in (0.4, 0.6):
        tp = t_p(p)
        ap = alpha_p(p)
        bp = beta_of_alpha(p, ap)

        sol = maximize_phik(SolveConfig(k=1, p=p, t=tp))
        assert sol.cluster_count >= 2
        assert sol.value == pytest.approx(phi1(p, tp).value, abs=1e-6)

        # both structures attain the same value, each with its own parameter
        with_zero = maximize_phik(SolveConfig(k=1, p=p, t=tp, l_range=(1,)))
        zero_free = maximize_phik(SolveConfig(k=1, p=p, t=tp, l_range=(0,)))
        assert with_zero.best.lambdas[0] == pytest.approx(-ap, abs=1e-4)
        assert zero_free.best.lambdas[0] == pytest.approx(-bp, abs=1e-4)
        assert abs(with_zero.value - zero_free.value) < 1e-6


def test_criterion_09_exploration_k2_small_p():
    grid = [j / 21.0 for j in range(1, 21)]
    # sandwich_check raises if the band is escaped; its report carries the
    # winning zero count of the same solve
    counts = {t: sandwich_check(2, 0.5, t, starts=32).l_used for t in grid}
    assert all(l <= 1 for l in counts.values()), counts

    threshold = t0_scan(2, 0.5, starts=32)  # probes 5 points above internally
    assert 0.0 < threshold < 1.0


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def test_criterion_10_figure_reproduction(tmp_path):
    f1a, f1b = tmp_path / "f1a.csv", tmp_path / "f1b.csv"
    f2a, f2b = tmp_path / "f2a.csv", tmp_path / "f2b.csv"
    for path in (f1a, f1b):
        assert main(["figure1", "--out", str(path)]) == 0
    for path in (f2a, f2b):
        assert main(["figure2", "--out", str(path)]) == 0
    assert f1a.read_bytes() == f1b.read_bytes()
    assert f2a.read_bytes() == f2b.read_bytes()
    # the committed CSVs are what the CLI writes
    committed = pathlib.Path(__file__).resolve().parents[1] / "demos" / "output"
    assert f1a.read_bytes() == (committed / "figure1.csv").read_bytes()
    assert f2a.read_bytes() == (committed / "figure2.csv").read_bytes()

    header, rows = _read_rows(f1a)
    assert header == "p,t,phi1"
    curves: dict = {}
    for p_key, t_key, v in rows:
        curves.setdefault(p_key, []).append((float(t_key), float(v)))
    assert set(curves) == {"0.5", "1", "2", "inf"}

    for p_key in ("1", "2", "inf"):
        vals = [v for _, v in sorted(curves[p_key])]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    half = sorted(curves["0.5"])
    peak_idx = max(range(len(half)), key=lambda i: half[i][1])
    assert half[peak_idx][0] == pytest.approx(0.5625, abs=1e-12)
    up = [v for _, v in half[: peak_idx + 1]]
    down = [v for _, v in half[peak_idx:]]
    assert all(b > a for a, b in zip(up, up[1:]))
    assert all(b < a for a, b in zip(down, down[1:]))

    header2, rows2 = _read_rows(f2a)
    assert header2 == "p,t_p,lower,upper"
    assert len(rows2) == 256
    for _, tp_s, lo_s, hi_s in rows2:
        tp, lo, hi = float(tp_s), float(lo_s), float(hi_s)
        assert lo < tp < hi
