import math

import pytest

from hardyx.closed_form import alpha_p, beta_of_alpha, phi1, psi1, solve_alpha, t_p
from hardyx.solver import (
    ExtremalSolution,
    SolveConfig,
    SolverError,
    maximize_phik,
    sandwich_check,
    t0_scan,
)

INF = math.inf


# five (p, t) pairs spanning both regimes; for k = 1 the numerical optimum
# must land on the closed form
K1_CASES = [
    (2.0, 0.6),
    (INF, 0.5),
    (1.0, 0.3),
    (0.5, 0.81),
    (4.0, 0.4),
]


@pytest.mark.parametrize("p,t", K1_CASES)
def test_k1_matches_closed_form(p, t):
    sol = maximize_phik(SolveConfig(k=1, p=p, t=t, starts=24))
    assert sol.value == pytest.approx(phi1(p, t).value, abs=1e-8)
    assert sol.norm_residual < 1e-7
    assert sol.t_residual < 1e-9


def test_t_one_is_the_constant_function():
    sol = maximize_phik(SolveConfig(k=3, p=0.7, t=1.0))
    assert sol.value == 0.0
    assert sol.l_used == 0
    assert complex(sol.best(0.3)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(SolverError):
        maximize_phik(SolveConfig(k=2, p=2.0, t=1.0, l_range=(1, 2)))


def test_t_zero_hits_the_peak_value():
    # with f(0) pinned to zero one zero factor eats a power of z and the
    # remaining factor is free at the origin, so the best value over that
    # free origin value is the peak of the one-coefficient curve
    sol = maximize_phik(SolveConfig(k=2, p=0.5, t=0.0))
    assert sol.value == pytest.approx(psi1(0.5), abs=1e-8)
    assert sol.l_used == 1
    assert sol.per_l_values[0] is None


def test_unique_orbit_for_smooth_p():
    # 1 < p < infinity: the maximiser is the k-fold lift of the k = 1
    # solution and the search must not report a second optimum
    sol = maximize_phik(SolveConfig(k=2, p=2.0, t=0.5))
    assert sol.value == pytest.approx(math.sqrt(3.0) / 2, abs=1e-8)
    assert sol.cluster_count == 1
    assert sol.l_used == 2
    root = math.sqrt(solve_alpha(2.0, 0.5))
    got = sorted(sol.best.lambdas, key=lambda z: z.imag)
    assert got[0] == pytest.approx(-1j * root, abs=1e-4)
    assert got[1] == pytest.approx(1j * root, abs=1e-4)


def test_p_one_degenerate_plateau():
    # at p = 1 below the switch the bound is identically 1 and many
    # structures attain it
    sol = maximize_phik(SolveConfig(k=2, p=1.0, t=0.3))
    assert sol.value == pytest.approx(1.0, abs=1e-6)
    assert sol.cluster_count >= 2


def test_same_seed_same_answer():
    a = maximize_phik(SolveConfig(k=1, p=2.0, t=0.6, starts=8, seed=5))
    b = maximize_phik(SolveConfig(k=1, p=2.0, t=0.6, starts=8, seed=5))
    assert a == b


def test_forced_empty_structure_raises():
    # at p = 2, t = 0.6 the zero-free family cannot meet the constraint
    with pytest.raises(SolverError):
        maximize_phik(SolveConfig(k=1, p=2.0, t=0.6, l_range=(0,)))


def test_sandwich_band():
    rep = sandwich_check(2, 0.5, 0.9, starts=32)
    assert rep.lower <= rep.solved + 1e-6
    assert rep.solved <= rep.upper + 1e-6
    assert rep.upper == pytest.approx(2.0 * rep.lower, abs=1e-12)


def test_zero_count_drops_past_threshold():
    counts = {t: sandwich_check(2, 0.5, t, starts=24).l_used for t in (0.85, 0.95)}
    assert all(l <= 1 for l in counts.values()), counts


def test_t0_scan_validation():
    with pytest.raises(ValueError):
        t0_scan(3, 0.5)
    with pytest.raises(ValueError):
        t0_scan(2, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(k=0, p=2.0, t=0.5)
    with pytest.raises(ValueError):
        SolveConfig(k=2, p=0.0, t=0.5)
    with pytest.raises(ValueError):
        SolveConfig(k=2, p=2.0, t=1.5)
    with pytest.raises(ValueError):
        SolveConfig(k=2, p=2.0, t=0.5, l_range=(3,))
    with pytest.raises(ValueError):
        SolveConfig(k=2, p=2.0, t=0.5, starts=0)
    cfg = SolveConfig(k=2, p=2.0, t=0.5, l_range=None)
    assert cfg.l_range == (0, 1, 2)
