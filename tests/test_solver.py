import math
import os
import pathlib
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import hardyx
from hardyx import fn_repr, solver
from hardyx.closed_form import (
    OUTER,
    _branch_top,
    _one_zero_top,
    alpha_p,
    beta_of_alpha,
    phi1,
    psi1,
    solve_alpha,
    t_p,
)
from hardyx.hardy_norm import _chain_sum
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


@pytest.mark.parametrize("p", [0.5, 2.0, INF])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_t_one_is_the_constant_function(monkeypatch, k, p):
    # |f(0)| <= ||f|| leaves f = 1, lam = 0 at l = 0, and the solve checks
    # it as it checks any winner
    inside = solver._coeff_inside
    checked = []

    def counted(fn, k):
        checked.append(fn)
        return inside(fn, k)

    monkeypatch.setattr(solver, "_coeff_inside", counted)
    sol = maximize_phik(SolveConfig(k=k, p=p, t=1.0))
    assert sol.value == 0.0
    assert sol.l_used == 0
    assert sol.cluster_count == 1
    assert sol.per_l_values == {0: 0.0, **{l: None for l in range(1, k + 1)}}
    assert sol.norm_residual == 0.0 and sol.t_residual == 0.0
    assert checked == [sol.best]
    assert complex(sol.best(0.3)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(SolverError, match="no feasible structure"):
        maximize_phik(SolveConfig(k=k, p=p, t=1.0, l_range=range(1, k + 1)))


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


@pytest.mark.parametrize("p", [1.25, INF])
def test_unique_extremal_at_t_zero_is_one_cluster(p):
    # at t = 0 and 1 < p the extremal z^3 is unique (for p < inf H^p is
    # uniformly convex); leaders the polish leaves a few 1e-9 below the top,
    # near lam = 0, are not ties and count as no cluster of their own
    sol = maximize_phik(SolveConfig(k=3, p=p, t=0.0, starts=4))
    assert sol.cluster_count == 1
    assert sol.value == pytest.approx(1.0, abs=1e-8)


def test_p_one_degenerate_plateau():
    # at p = 1 below the switch the bound is identically 1 and many
    # structures attain it
    sol = maximize_phik(SolveConfig(k=2, p=1.0, t=0.3))
    assert sol.value == pytest.approx(1.0, abs=1e-6)
    assert sol.cluster_count >= 2


def test_clusters_ignore_the_order_of_the_lambdas():
    # a conjugate pair whose real parts straddle the 1e-6 rounding boundary
    # 0.3000005, so that an order by rounded real parts flips between the
    # two polishes of one configuration
    a = [0.30000049 + 0.5j, 0.30000051 - 0.5j]
    b = [0.30000051 + 0.5j, 0.30000049 - 0.5j]
    for l in (0, 2):
        assert solver._count_clusters([(1.0, a, l), (1.0, b, l)], 1.0, 2) == 1
    # turned by the other square root of 1 it is the same configuration; a
    # different set, zero count or lower value is not
    turned = [-z for z in b]
    moved = [0.3 + 0.5j, 0.3 - 0.4j]
    assert solver._count_clusters([(1.0, a, 2), (1.0, turned, 2)], 1.0, 2) == 1
    assert solver._count_clusters([(1.0, a, 2), (1.0, moved, 2)], 1.0, 2) == 2
    assert solver._count_clusters([(1.0, a, 2), (1.0, b, 1)], 1.0, 2) == 2
    assert solver._count_clusters([(1.0, a, 2), (0.9, moved, 2)], 1.0, 2) == 1


def test_cluster_comparison_at_k6_is_fast():
    rng = np.random.default_rng(3)
    k = 6
    a = list(0.5 * rng.standard_normal(k) + 0.5j * rng.standard_normal(k))
    l = 3
    # each block permuted and turned by the last k-th root, which the
    # comparison tries last; then one lambda moved, so that no rotation fits
    rot = complex(math.cos(2 * math.pi / k), math.sin(2 * math.pi / k))
    order = np.concatenate((rng.permutation(l), l + rng.permutation(k - l)))
    b = [a[i] * rot for i in order]
    c = b[:-1] + [b[-1] + 0.01]
    for other, same in ((b, True), (c, False)):
        best = math.inf
        for _ in range(20):
            start = time.perf_counter()
            got = solver._same_configuration(a, l, other, l, k)
            best = min(best, time.perf_counter() - start)
        assert got is same
        assert best < 5e-4, best


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


def test_t0_scan_validation(monkeypatch):
    def no_solve(cfg):
        raise AssertionError("t0_scan solved before checking its input")

    monkeypatch.setattr(solver, "maximize_phik", no_solve)
    for bad in ({"k": 3}, {"p": 2.0}):
        with pytest.raises(ValueError):
            t0_scan(**{"k": 2, "p": 0.5, **bad})


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
    # integer fields take integers only, checked before any solve
    for bad in ({"starts": 2.5}, {"seed": -1}, {"seed": 1.5}, {"k": True}, {"k": 2.5},
                {"l_range": (1.7,)}, {"l_range": (True,)}, {"l_range": ("1",)},
                {"l_range": (1.0,)}, {"l_range": 5}, {"l_range": "1"}, {"l_range": ()}):
        with pytest.raises(ValueError):
            SolveConfig(**{"k": 2, "p": 2.0, "t": 0.5, **bad})
    cfg = SolveConfig(k=2, p=2.0, t=0.5, l_range=None)
    assert cfg.l_range == (0, 1, 2)
    assert SolveConfig(k=np.int64(2), p=2.0, t=0.5, starts=np.int32(3)).starts == 3
    assert SolveConfig(k=2, p=2.0, t=0.5, l_range=[2, np.int64(0), 2]).l_range == (0, 2)


# ---------------------------------------------------------------------------
# the range of t_hat at l = k, l = 1 and l = 0, and the zero counts it rules out
# ---------------------------------------------------------------------------

def _lower_t(p, k):
    return math.comb(2 * k, k) ** (-1.0 / p)


# the closed polydisc, its boundary included
_point = st.builds(lambda r, th: r * complex(math.cos(th), math.sin(th)),
                   st.floats(0.0, 1.0) | st.just(1.0), st.floats(0.0, 2 * math.pi))
_polydisc = st.lists(_point, min_size=1, max_size=4)


def _series(p, lams, l):
    """(g0, a_k, ||g||) of one row of lambdas, from the solver's kernel."""
    (g0,), (ak,), (nrm,) = solver._series_batch(p, np.array([lams], dtype=complex), l)
    return complex(g0), complex(ak), float(nrm)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(0.1, 8.0), lams=_polydisc)
def test_t_hat_stays_within_the_zero_count_bounds(p, lams):
    k = len(lams)
    g0, _, nrm = _series(p, lams, k)
    assert abs(g0) / nrm <= _branch_top(p)[1] * (1 + 1e-12)
    g0, _, nrm = _series(p, lams, 0)
    assert abs(g0) / nrm >= _lower_t(p, k) * (1 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.1, 8.0), k=st.integers(1, 4))
@example(p=1.0, k=2)
def test_zero_count_bounds_are_attained(p, k):
    log_alpha, top = _branch_top(p)
    # the k = 1 extremal at the top of its branch, lifted through z -> z^k
    g0, _, nrm = _series(p, solver._root_pattern(math.exp(log_alpha / k), k), k)
    assert abs(g0) / nrm == pytest.approx(top, rel=1e-12)
    g0, _, nrm = _series(p, [1.0 + 0j] * k, 0)
    assert abs(g0) / nrm == pytest.approx(_lower_t(p, k), rel=1e-12)
    with mpmath.workdps(40):
        alpha = mpmath.sqrt(p / (2 - mpmath.mpf(p))) if p < 1 else mpmath.mpf(1)
        exact = alpha * (1 + alpha ** 2) ** (-1 / mpmath.mpf(p))
    assert top == pytest.approx(float(exact), rel=1e-14)


def _kernel_interpolant_lams(k, log_r):
    """lam_j = 1/conj(root_j) over the roots of the least-norm q of degree k
    with q(0) = 1 and q(1/r) = 0, lam_0 = r first: the l = 1 extremal."""
    a = math.exp(-log_r)
    s = sum(a ** (2 * n) for n in range(k + 1))
    # q(z) = 1 - sum_{n=1..k} (a z)^n / (s - 1), highest power first
    q = [-(a ** n) / (s - 1) for n in range(k, 0, -1)] + [1.0]
    roots = sorted(np.roots(q), key=lambda z: abs(z - a))
    return [1 / complex(z).conjugate() for z in roots]


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-3, 8.0), lams=st.lists(_point, min_size=2, max_size=4))
def test_t_hat_at_one_zero_stays_below_its_ceiling(p, lams):
    g0, _, nrm = _series(p, lams, 1)
    assert abs(g0) / nrm <= _one_zero_top(len(lams), p)[1] * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1e-3, 8.0), k=st.integers(2, 4))
@example(p=0.5, k=2)
@example(p=1.0, k=3)
def test_one_zero_ceiling_is_attained(p, k):
    log_r, top = _one_zero_top(k, p)
    lams = _kernel_interpolant_lams(k, log_r)
    assert lams[0] == pytest.approx(math.exp(log_r), rel=1e-12)
    assert all(abs(lam) <= 1 + 1e-12 for lam in lams)
    g0, _, nrm = _series(p, lams, 1)
    assert abs(g0) / nrm == pytest.approx(top, rel=1e-12)


def _mp_one_zero_top(k, p):
    # the sup of r (S_{k-1}(r)/S_k(r))^{1/p} over (0, 1] at 40 digits, from
    # the root of the derivative of its log in r, or r = 1 if it is positive there
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        S = lambda n, r: sum(r ** (2 * j) for j in range(n + 1))  # noqa: E731
        dS = lambda n, r: sum(2 * j * r ** (2 * j - 1) for j in range(1, n + 1))  # noqa: E731
        slope = lambda r: 1 / r - (dS(k, r) / S(k, r) - dS(k - 1, r) / S(k - 1, r)) / p  # noqa: E731
        r = mpmath.mpf(1)
        if slope(r) < 0:
            r = mpmath.findroot(slope, (mpmath.mpf("1e-6"), mpmath.mpf(1)), solver="anderson")
        return r * (S(k - 1, r) / S(k, r)) ** (1 / p)


@pytest.mark.parametrize("k,p,value", [
    (2, 0.5, 0.5197433), (3, 0.5, 0.6289762), (4, 0.5, 0.6980696),
    (2, 0.3, None), (3, 0.9, None), (2, 1.0, None), (3, 2.0, None), (4, 7.5, None),
])
def test_one_zero_ceiling_matches_a_40_digit_oracle(k, p, value):
    top = _one_zero_top(k, p)[1]
    assert top == pytest.approx(float(_mp_one_zero_top(k, p)), rel=1e-14)
    if value is not None:
        assert round(top, 7) == value
    if p >= 1:
        assert top == (k / (k + 1)) ** (1 / p)


@pytest.mark.parametrize("p", [1e-3, 0.05, 0.5, 0.999, 1.0, 3.0])
def test_one_zero_ceiling_at_k1_is_the_branch_top(p):
    # the bisection places log r* within 1e-12; at the flat top that moves t
    # by far less
    (log_r, top), (log_alpha, t_top) = _one_zero_top(1, p), _branch_top(p)
    assert log_r == pytest.approx(log_alpha, abs=1e-12)
    assert top == pytest.approx(t_top, rel=1e-14)
    for k in range(1, 5):
        log_r, top = _one_zero_top(k, p)
        assert math.isfinite(log_r) and 0 < top < 1


def _check_skipped(monkeypatch, p, l, outside, inside):
    # every point of the explore, the polish and the one-point counts goes
    # through the objective
    objective = solver._objective_batch
    seen = set()

    def recorded(p, k, t, X, counts, grad=False):
        seen.update(np.unique(counts).tolist())
        return objective(p, k, t, X, counts, grad)

    def no_search(*args, **kwargs):
        raise AssertionError("searched a zero count that cannot reach t")

    for name in ("_nelder_mead_lockstep", "_sqp_lockstep", "_candidates", "_objective_batch"):
        monkeypatch.setattr(solver, name, no_search)
    for t in outside:
        with pytest.raises(SolverError):
            maximize_phik(SolveConfig(k=2, p=p, t=t, l_range=(l,)))

    # just inside the bound the count is evaluated and meets the constraint
    monkeypatch.undo()
    monkeypatch.setattr(solver, "_objective_batch", recorded)
    sol = maximize_phik(SolveConfig(k=2, p=p, t=inside, l_range=(l,), starts=16))
    assert seen == {l}
    assert sol.per_l_values[l] is not None
    assert sol.t_residual < 1e-9

    # with every zero count searched beside it, no row of the skipped count
    # reaches the objective; just past the margin only l is out of reach,
    # except that at p = 1/2 t > U_1 also passes T(1/2) and leaves l = 0 alone
    seen.clear()
    sol = maximize_phik(SolveConfig(k=2, p=p, t=outside[-1], starts=16))
    assert seen == ({0} if l == 1 else {0, 1, 2} - {l})
    assert sol.per_l_values[l] is None


# T(1/2) = 0.3248 caps l = 2, U_1(2, 1/2) = 0.5197 caps l = 1, and
# C(4, 2)^-2 = 0.0278 floors l = 0; the outside values include one just past
# the 2 _FEAS_TOL margin
@pytest.mark.parametrize("l,outside,inside", [
    (2, (0.6, _branch_top(0.5)[1] + 3e-9), _branch_top(0.5)[1] - 1e-7),
    (0, (0.02, 6.0 ** -2 - 3e-9), 6.0 ** -2 + 1e-7),
    (1, (0.6, _one_zero_top(2, 0.5)[1] + 3e-9), _one_zero_top(2, 0.5)[1] - 1e-7),
])
def test_unreachable_zero_counts_are_skipped(monkeypatch, l, outside, inside):
    _check_skipped(monkeypatch, 0.5, l, outside, inside)


def test_unreachable_zero_counts_are_skipped_at_p_inf(monkeypatch):
    # at p = inf g = 1 at l = 0, so its floor t_hat >= 1 is exact: l = 0 is
    # skipped below the margin and evaluated at t = 1
    _check_skipped(monkeypatch, INF, 0, (0.5, 1 - 3 * solver._FEAS_TOL), 1.0)


@pytest.mark.parametrize("k, t", [(2, 1 - 1e-6), (2, 1 - 1e-7), (3, 1 - 1e-6)])
def test_p_inf_keeps_a_zero_near_the_circle(k, t):
    # the winner's zero lies within 1e-6 of the circle; it stays a Blaschke
    # zero unless eval_structured would take its factor for a constant, so
    # the built function is the one the series value belongs to
    sol = maximize_phik(SolveConfig(k=k, p=INF, t=t, starts=4))
    assert abs(sol.value - (1 - t * t)) <= 1e-9
    assert sol.l_used >= 1


def _in_family_candidates(cfg):
    # the in-family x, evaluated as _solve_zero_counts evaluates its points
    # table: one _objective_batch and _candidates, feasible rows kept
    X = np.array(solver._in_family_point(cfg))
    f, c = solver._objective_batch(cfg.p, cfg.k, cfg.t, X, 0)
    return [found for found in solver._candidates(cfg, X, f, c) if found is not None]


def _mp_in_family(k, p, t):
    # the root a of t^p sum_n C(k, n)^2 a^(2n) = 1 in (0, 1] at 40 digits,
    # and the value t C(2k/p, k) a^k of the point lam_j = -a
    with mpmath.workdps(40):
        p, t = mpmath.mpf(p), mpmath.mpf(t)
        h = lambda a: p * mpmath.log(t) + mpmath.log(  # noqa: E731
            sum(math.comb(k, n) ** 2 * a ** (2 * n) for n in range(k + 1)))
        a = mpmath.findroot(h, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
        return a, t * mpmath.binomial(2 * k / p, k) * a ** k


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [1e-3, 0.02, 0.5, 3.0])
@pytest.mark.parametrize("t", [1e-4, 0.5, 0.9])
def test_in_family_point_matches_a_40_digit_oracle(k, p, t):
    cfg = SolveConfig(k=k, p=p, t=t)
    if t < _lower_t(p, k):
        # below l = 0's floor no a in (0, 1] meets t
        assert solver._in_family_point(cfg) == []
        return
    (J, lams), = _in_family_candidates(cfg)
    a, value = _mp_in_family(k, p, t)
    assert all(lam == pytest.approx(-float(a), rel=1e-12) for lam in lams)
    # at k = 3, p = 3, C(2, 3) = 0 and the value is rounding alone
    assert J == pytest.approx(float(value), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("p", [0.5, 3.0])
@pytest.mark.parametrize("t", [0.85, 0.95, 0.999])
def test_in_family_point_at_k1_is_the_outer_extremal(p, t):
    # (1 + a z)^(2/p) is the k = 1 extremal above the switch (t_p(1/2) =
    # 0.81 and 2^(-1/3) = 0.79), a = beta
    ref = phi1(p, t)
    assert ref.regime == OUTER
    (J, lams), = _in_family_candidates(SolveConfig(k=1, p=p, t=t))
    assert J == pytest.approx(ref.value, rel=1e-12)
    assert lams[0] == pytest.approx(-ref.beta, rel=1e-12)


@pytest.mark.parametrize("k, t", [(2, 1 - 1e-9), (3, 1 - 1e-12), (3, 1 - 1e-9), (3, 1 - 1e-6)])
def test_tiny_p_near_t_one_solves_at_the_in_family_point(k, t):
    # at a budget of 50 the explore found no feasible leader here; the
    # in-family point is one
    sol = maximize_phik(SolveConfig(k=k, p=1e-3, t=t, starts=4))
    assert sol.l_used == 0
    assert sol.t_residual < 1e-9 and sol.norm_residual < 1e-7


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [1e-3, 2e-3, 5e-3])
def test_tiny_p_solves_or_raises_a_typed_error(k, p):
    # ||g|| = (sum |c_n|^2)^(1/p) can pass the largest double here; the
    # kernel then reads inf, and the point scores J = t_hat = 0
    lams = [1.0 + 0j] * k
    g0, ak, nrm = _series(p, lams, 0)
    ref_g0, ref_ak, _ = _mp_series(p, lams, 0)
    assert g0 == pytest.approx(ref_g0, rel=1e-13) and ak == pytest.approx(ref_ak, rel=1e-13)
    overflows = math.log(math.comb(2 * k, k)) / p > math.log(sys.float_info.max)
    assert (nrm == math.inf) == overflows
    # t = 1/2 lies above l = 0's floor, so the in-family point is a candidate
    # and the solve returns at least its value
    cfg = SolveConfig(k=k, p=p, t=0.5, starts=4)
    sol = maximize_phik(cfg)
    assert sol.t_residual < 1e-9 and sol.norm_residual < 1e-7
    (J, _), = _in_family_candidates(cfg)
    assert sol.value >= J


@pytest.mark.parametrize("p", [1e-6, 1e-8])
def test_p_where_f_overflows_inside_the_disc_raises_a_solver_error(p):
    # the in-family point meets t, but (1 + a z)^(4/p) passes the largest
    # double on the check's circles, so the value cannot be checked
    cfg = SolveConfig(k=2, p=p, t=0.5, starts=4)
    assert _in_family_candidates(cfg)
    with pytest.raises(SolverError, match="Cauchy integral"):
        maximize_phik(cfg)


@pytest.mark.parametrize("p", [1e-3, 5e-3, 7e-3, 1e-2, 2e-2])
def test_k1_tiny_p_returns_phi1(p):
    # at k = 1, t = 1/2, max|f| on |z| = 1 is large enough here that an FFT
    # on the unit circle is off by 4.6e-9 at p = 7e-3 and cannot resolve a_1
    # below; the series value, checked inside the disc, is phi1's to rounding
    ref = phi1(p, 0.5).value
    sol = maximize_phik(SolveConfig(k=1, p=p, t=0.5, starts=4))
    assert abs(sol.value - ref) <= 1e-11 * max(1.0, ref)


@pytest.mark.parametrize("k, p, t", [(2, 0.05, 0.5), (2, 0.015, 0.2)])
def test_fft_cross_check_passes_small_p_at_k2(k, p, t):
    # |f| peaks at 1e3 and 1.2e8 on |z| = 1 here; inside the disc the Cauchy
    # integral of best = g / ||g|| meets the series value far below the
    # agreement bound
    sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=4))
    assert sol.t_residual < 1e-9 and sol.norm_residual < 1e-7
    best = sol.best
    _, _, (nrm,) = solver._series_batch(p, np.array([best.lambdas]), best.zero_count)
    assert abs(abs(best.scale) * nrm - 1.0) <= 1e-15
    gap = abs(solver._coeff_inside(best, k).real - sol.value)
    assert gap <= 1e-11 * max(1.0, abs(sol.value))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), p=st.floats(1e-3, 8.0) | st.just(INF),
       data=st.data(), phase=st.floats(0.0, 2 * math.pi))
def test_coeff_inside_matches_the_30_digit_series(k, p, data, phase):
    # the unit-norm f = scale * g, as every solve builds it: the Cauchy
    # integral's a_k against Re(scale a_k) from the 30-digit series
    lams = data.draw(st.lists(_point, min_size=k, max_size=k))
    l = data.draw(st.integers(0, k))
    # Blaschke lambdas lie in the open disc
    lams = [z * (1 - 2 ** -30) if j < l else z for j, z in enumerate(lams)]
    _, ak, nrm = _mp_series(p, lams, l)
    # scale = 1/||g|| must be a normal double
    assume(nrm < 1e300)
    scale = complex(math.cos(phase), math.sin(phase)) / nrm
    fn = fn_repr.StructuredExtremal(scale=scale, p=p, zero_count=l, lambdas=tuple(lams))
    want = (scale * ak).real
    got = solver._coeff_inside(fn, k).real
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: neither the import nor a solve, at
    # finite p and at p = inf, loads it
    src = str(pathlib.Path(hardyx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import math, sys, hardyx\n"
            "for p in (0.5, math.inf):\n"
            "    hardyx.maximize_phik(hardyx.SolveConfig(k=2, p=p, t=0.5, starts=4))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the population kernel and the lockstep explorer against their references
# ---------------------------------------------------------------------------

def _population(rng, k, l, p, pinned, rows):
    half = len(solver._free_slots(k, l, p, pinned))
    r = rng.uniform(0.0, math.pi / 2, (rows, half))
    th = rng.uniform(0.0, 2 * math.pi, (rows, half))
    # |lam| = 1 exactly takes the constant-series branch of a Blaschke factor
    r[0] = math.pi / 2
    r[1, 0] = math.pi / 2
    # lam_0 = 0 or |lam_0| ~ 1e-160: with l >= 1, |g0| < 1e-150
    r[2, 0] = 0.0
    r[3, 0] = 1e-80
    return np.stack((r, th), axis=2).reshape(rows, 2 * half)


def _majorant(p, lams, l):
    """Coefficients of prod_{j<l} (|lam_j| + z) prod_j (1 - |lam_j| z)^-(e + [j<l]).

    They bound, term by term, every product that the kernel forms, so they
    scale its rounding.  a_k itself can vanish
    by cancellation (at |lam| = 1 a Blaschke factor is the constant lam).
    """
    k = len(lams)
    e = 0.0 if p == math.inf else 2.0 / p
    s = [1.0] + [0.0] * k
    for j, lam in enumerate(lams):
        a, c = abs(lam), e + (j < l)
        f = [1.0] + [0.0] * k
        for n in range(1, k + 1):
            f[n] = f[n - 1] * (c + n - 1) / n * a
        if j < l:
            f = [a * f[0]] + [a * f[n] + f[n - 1] for n in range(1, k + 1)]
        s = [sum(s[i] * f[d - i] for i in range(d + 1)) for d in range(k + 1)]
    return s


def _mp_parts(p, lams, l):
    """(g0, a_k, ||g||) of the truncated product series as mpmath numbers, at
    the working precision: the Blaschke series
    lam + sum_n (|lam|^2 - 1) conj(lam)^(n-1) z^n of the l zeros times the
    binomial series of (1 - conj(lam_j) z)^(2/p)."""
    k = len(lams)
    lams = [mpmath.mpc(z) for z in lams]

    def times(s, f):
        return [mpmath.fsum(s[i] * f[d - i] for i in range(d + 1)) for d in range(k + 1)]

    s = [mpmath.mpc(1)] + [mpmath.mpc(0)] * k
    for lam in lams[:l]:
        w, fac = mpmath.conj(lam), abs(lam) ** 2 - 1
        s = times(s, [lam] + [fac * w ** (n - 1) for n in range(1, k + 1)])
    if p == math.inf:
        return s[0], s[k], mpmath.mpf(1)
    e = 2 / mpmath.mpf(p)
    c = [mpmath.mpc(1)] + [mpmath.mpc(0)] * k
    for lam in lams:
        w = mpmath.conj(lam)
        s = times(s, [mpmath.binomial(e, n) * (-w) ** n for n in range(k + 1)])
        c = times(c, [1, -w] + [0] * (k - 1))
    return s[0], s[k], mpmath.fsum(abs(x) ** 2 for x in c) ** (1 / mpmath.mpf(p))


def _mp_series(p, lams, l):
    """_mp_parts at 30 digits, rounded to doubles."""
    with mpmath.workdps(30):
        g0, ak, nrm = _mp_parts(p, lams, l)
        return complex(g0), complex(ak), float(nrm)


def _assert_batch_rows_match_scalar(p, k, t, pinned, X, ls):
    # each row of the kernel, alone and in the batch, against a 30-digit
    # evaluation to 1e-13 on the scale of each coefficient's majorant; the
    # rows with |lam_0| ~ 1e-160 reach subnormals, which round absolutely
    tiny = sys.float_info.min
    lams = solver._lams_from_x_batch(X, k, pinned)
    g0, ak, nrm = solver._series_batch(p, lams, ls)
    batch = solver._penalized(p, k, t, X, ls)
    slots = int(pinned) + np.arange(X.shape[1] // 2)
    for i, (x, l) in enumerate(zip(X, np.broadcast_to(ls, len(X)).tolist())):
        # the row alone gives the same bytes as the row in the batch
        alone = solver._series_batch(p, lams[i:i + 1], l)
        assert all(v[i:i + 1].tobytes() == a.tobytes() for v, a in zip((g0, ak, nrm), alone)), (k, l, i)
        row = [complex(z) for z in lams[i]]
        ref = [0j] * k
        for j, r, th in zip(slots.tolist(), x[0::2].tolist(), x[1::2].tolist()):
            ref[j] = math.sin(r) ** 2 * complex(math.cos(th), math.sin(th))
        assert np.allclose(row, ref, rtol=0, atol=1e-15), (k, l, i)
        scale = _majorant(p, row, l)
        ref_g0, ref_ak, ref_nrm = _mp_series(p, row, l)
        assert abs(g0[i] - ref_g0) <= 1e-13 * scale[0] + tiny, (k, l, i)
        assert abs(ak[i] - ref_ak) <= 1e-13 * scale[k] + tiny, (k, l, i)
        assert abs(nrm[i] - ref_nrm) <= 1e-13 * ref_nrm, (k, l, i)
        # the penalty from the same 30-digit values, away from the |g0| guard
        if pinned:
            J, t_hat = abs(ref_ak) / ref_nrm, 0.0
        elif abs(ref_g0) >= 1e-150:
            J = (ref_g0.conjugate() * ref_ak).real / (abs(ref_g0) * ref_nrm)
            t_hat = abs(ref_g0) / ref_nrm
        else:
            continue
        ref = -J + solver._PENALTY * abs(t_hat - t)
        assert abs(batch[i] - ref) <= 1e-12 * max(1.0, abs(ref)), (k, l, i)
    return g0, batch


@pytest.mark.parametrize("p", [0.3, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("pinned", [False, True])
def test_series_batch_matches_scalar(p, pinned):
    # each row of the kernel, evaluated alone and in a population, against
    # the 30-digit series
    rng = np.random.default_rng(7)
    t = 0.0 if pinned else 0.4
    for k in range(1, 5):
        counts = range(1 if pinned else 0, k + 1)
        for l in counts:
            if not solver._free_slots(k, l, p, pinned):
                continue
            X = _population(rng, k, l, p, pinned, rows=12)
            g0, batch = _assert_batch_rows_match_scalar(p, k, t, pinned, X, l)
            if l and not pinned:
                # the |g0| < 1e-150 guard: objective and t_hat read 0
                assert abs(g0[2]) < 1e-150 and abs(g0[3]) < 1e-150
                assert batch[2] == batch[3] == solver._PENALTY * t
        # every zero count in one population, interleaved, each row with its
        # own count: the parametrization of l = k sets the lambdas
        if not solver._free_slots(k, k, p, pinned):
            continue
        X = np.concatenate([_population(rng, k, k, p, pinned, rows=12) for _ in counts])
        ls = np.repeat(list(counts), 12)
        tiny = np.tile(np.isin(np.arange(12), (2, 3)), len(counts))  # _population's rows 2 and 3
        order = rng.permutation(len(ls))
        X, ls, tiny = X[order], ls[order], tiny[order]
        g0, batch = _assert_batch_rows_match_scalar(p, k, t, pinned, X, ls)
        if not pinned:
            guarded = tiny & (ls > 0)
            assert guarded.any() and (np.abs(g0[guarded]) < 1e-150).all()
            assert (batch[guarded] == solver._PENALTY * t).all()


def _quantised_rosenbrock(x):
    # plateaus make ties between simplex vertices and force shrinks
    return math.floor(20 * sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)) / 20


def _rosenbrock_rows(X, starts):
    return np.array([_quantised_rosenbrock(x) for x in X])



def _replica_cases():
    rng = np.random.default_rng(11)
    # the solver's own penalty from its seeded starts; the pinned case shrinks
    for k, p, t, l in ((2, 0.5, 0.5, 1), (2, 0.5, 0.0, 1), (3, 0.5, 0.5, 2), (2, math.inf, 0.5, 2)):
        pinned = t == 0.0
        dim = 2 * len(solver._free_slots(k, l, p, pinned))
        x0s = solver._warm_starts(p, k, l, t)
        x0s += [np.column_stack([rng.uniform(0, math.pi / 2, dim // 2),
                                 rng.uniform(0, 2 * math.pi, dim // 2)]).ravel() for _ in range(10)]
        penalized = lambda X, starts, k=k, p=p, t=t, l=l: solver._penalized(p, k, t, X, l)  # noqa: E731
        # the explore's budget, and the 140 dim it had before the exact polish
        for per_dim in (solver._EXPLORE_FEV_PER_DIM, 140):
            yield penalized, x0s, per_dim * dim
    # small budgets cut starts off in every phase of a step, shrinks included
    for dim in (2, 3, 5):
        x0s = [rng.uniform(-2, 2, dim) for _ in range(6)] + [np.zeros(dim)]

        def with_holes(X, starts, x0s=np.array(x0s)):
            # inf and NaN, which the sorts and the stopping test must order
            # and compare as scipy does, where a start has moved far from
            # its first simplex: its best vertex stays finite
            values = _rosenbrock_rows(X, starts)
            shift = X[:, 0] - x0s[starts, 0]
            values[shift > 0.5] = math.inf
            values[shift < -0.5] = math.nan
            return values

        for maxfev in (dim + 2, 23, 37, 61, 2000):
            yield _rosenbrock_rows, x0s, maxfev
            yield with_holes, x0s, maxfev


def _recorded(fun, memo, calls):
    """fun, recording the rows of each call and each value under (start, x bytes)."""
    def batch(X, starts):
        calls.append(len(X))
        values = fun(X, starts)
        memo.update(zip(((s, x.tobytes()) for s, x in zip(starts.tolist(), X)), values.tolist()))
        return values

    return batch


def _against_scipy(x0s, maxfev, out, memo, calls):
    """Checks the lockstep's out against scipy from each row of x0s.

    scipy reads its values from memo, so it may evaluate only points the
    lockstep evaluated.  Returns scipy's results, and checks that the
    lockstep called its objective once for the initial simplices, once per
    step and once per step in which some start shrinks, by the evaluations
    each scipy step made (more than two for a shrink, the last step perhaps
    cut off).
    """
    xs, fun, nfev = out
    results, steps = [], []
    for i, x0 in enumerate(x0s):
        seen, marks = [0], []

        def f(x):
            seen[0] += 1
            assert (i, x.tobytes()) in memo, "scipy evaluates a point the lockstep did not"
            return memo[i, x.tobytes()]

        res = minimize(f, x0, method="Nelder-Mead", callback=lambda xk: marks.append(seen[0]),
                       options={"xatol": solver._NM_XATOL, "fatol": solver._NM_FATOL,
                                "maxfev": maxfev})
        assert np.array_equal(xs[i], res.x), (maxfev, i)
        # to the bit, so that a NaN matches a NaN
        assert np.float64(fun[i]).tobytes() == np.float64(res.fun).tobytes(), (maxfev, i)
        assert nfev[i] == res.nfev, (maxfev, i)
        results.append(res)
        steps.append(np.diff([len(x0) + 1] + marks))
    n = max(map(len, steps))
    shrinks = sum(any(len(made) > j and made[j] > 2 for made in steps) for j in range(n))
    assert calls[0] == len(x0s) * (len(x0s[0]) + 1) and len(calls) == 1 + n + shrinks, maxfev
    return results, steps


def test_lockstep_nelder_mead_replicates_scipy():
    exhausted = shrunk = 0
    for f, x0s, maxfev in _replica_cases():
        memo, calls = {}, []
        out = solver._nelder_mead_lockstep(_recorded(f, memo, calls), np.array(x0s), maxfev=maxfev)
        results, steps = _against_scipy(x0s, maxfev, out, memo, calls)
        exhausted += sum(res.nfev >= maxfev for res in results)
        shrunk += sum((made > 2).any() for made in steps)
    assert exhausted >= 10 and shrunk >= 10


def test_solve_explore_makes_one_call_per_step(monkeypatch):
    # a real solve's explore, every zero count in one population, against
    # scipy from each start on the values of the solve's own calls
    nelder_mead = solver._nelder_mead_lockstep
    runs = []

    def recorded(fun, x0s, **kwargs):
        memo, calls = {}, []
        out = nelder_mead(_recorded(fun, memo, calls), x0s, **kwargs)
        runs.append((x0s, kwargs["maxfev"], out, memo, calls))
        return out

    monkeypatch.setattr(solver, "_nelder_mead_lockstep", recorded)
    maximize_phik(SolveConfig(k=2, p=0.5, t=0.3, starts=8))
    (x0s, maxfev, *rest), = runs
    _, steps = _against_scipy(x0s, maxfev, *rest)
    assert len(x0s) >= 20 and sum((made > 2).any() for made in steps) >= 1


def _explore(fun, x0s, dim):
    return solver._nelder_mead_lockstep(fun, x0s, maxfev=solver._EXPLORE_FEV_PER_DIM * dim)


@pytest.mark.parametrize("p", [0.3, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("pinned", [False, True])
def test_merged_explore_matches_each_zero_count_alone(p, pinned):
    # the solver's starts of every zero count with the same free dimension
    # in one population, against each count's starts explored by themselves
    t = 0.0 if pinned else 0.4
    merged = 0
    for k in range(1, 4):
        cfg = SolveConfig(k=k, p=p, t=t, starts=6)
        groups = {}
        for l in range(1 if pinned else 0, k + 1):
            dim = 2 * len(solver._free_slots(k, l, p, pinned))
            if dim:
                groups.setdefault(dim, []).append((l, np.array(solver._starts(cfg, l, dim))))
        for dim, members in groups.items():
            counts = np.concatenate([np.full(len(x0s), l) for l, x0s in members])
            xs, fun, nfev = _explore(lambda X, starts: solver._penalized(p, k, t, X, counts[starts]),
                                     np.concatenate([x0s for _, x0s in members]), dim)
            at = 0
            for l, x0s in members:
                ref_x, ref_fun, ref_nfev = _explore(lambda X, starts: solver._penalized(p, k, t, X, l),
                                                    x0s, dim)
                part = slice(at, at + len(x0s))
                assert xs[part].tobytes() == ref_x.tobytes(), (k, l)
                assert np.array_equal(fun[part], ref_fun) and np.array_equal(nfev[part], ref_nfev), (k, l)
                at += len(x0s)
            merged += len(members) > 1
    # at p = inf the free dimension grows with l, so no two counts merge
    assert merged == (0 if p == math.inf else 3 - pinned)


def test_solve_explores_its_zero_counts_in_one_population(monkeypatch):
    # k = 2, p = 1/2, t = 0.3 searches all three zero counts, in one explore
    # whose ends are those of each count explored alone, for at most half
    # the objective calls
    cfg = SolveConfig(k=2, p=0.5, t=0.3, starts=32)
    nelder_mead = solver._nelder_mead_lockstep
    runs = []

    def counted(fun, x0s, **kwargs):
        calls = [0]

        def counting(X, starts):
            calls[0] += 1
            return fun(X, starts)

        out = nelder_mead(counting, x0s, **kwargs)
        runs.append((x0s, out, calls))
        return out

    monkeypatch.setattr(solver, "_nelder_mead_lockstep", counted)
    maximize_phik(cfg)
    monkeypatch.undo()
    (x0s, (xs, fun, nfev), merged_calls), = runs
    dim = 2 * cfg.k
    alone_calls = at = 0
    for l in cfg.l_range:
        block = np.array(solver._starts(cfg, l, dim))
        part = slice(at, at + len(block))
        assert x0s[part].tobytes() == block.tobytes(), l
        calls = [0]

        def alone(X, starts):
            calls[0] += 1
            return solver._penalized(cfg.p, cfg.k, cfg.t, X, l)

        ref_x, ref_fun, ref_nfev = _explore(alone, block, dim)
        assert xs[part].tobytes() == ref_x.tobytes(), l
        assert np.array_equal(fun[part], ref_fun) and np.array_equal(nfev[part], ref_nfev), l
        alone_calls += calls[0]
        at += len(block)
    assert at == len(x0s)
    assert merged_calls[0] <= alone_calls / 2, (merged_calls, alone_calls)


@pytest.mark.parametrize("k,p,t", [(2, 0.5, 0.3), (2, 0.5, 0.6), (3, 0.5, 0.5), (2, 1.0, 0.2),
                                   (2, INF, 0.78)])
def test_explore_budget_leaves_the_answer(monkeypatch, k, p, t):
    # the explore only picks basins, and the polish finishes them: its
    # budget of 140 dim before the exact polish gives the same answer
    cfg = SolveConfig(k=k, p=p, t=t, starts=32)
    sol = maximize_phik(cfg)
    monkeypatch.setattr(solver, "_EXPLORE_FEV_PER_DIM", 140)
    ref = maximize_phik(cfg)
    assert abs(sol.value - ref.value) <= 1e-9, (sol.value, ref.value)
    assert sol.l_used == ref.l_used


# ---------------------------------------------------------------------------
# the polish: exact gradients, and one lockstep SQP for every zero count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.3, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("pinned", [False, True])
def test_exact_gradient_matches_central_differences(p, pinned):
    # _population's rows take |lam| = 1 (rows 0 and 1) and lam_0 = 0 or
    # |lam_0| ~ 1e-160 (rows 2 and 3), where with l >= 1 the |g0| guard
    # zeroes the objective J, t_hat and both gradients, so f = -J = 0 and
    # c = t_hat - t = -t
    rng = np.random.default_rng(5)
    t = 0.0 if pinned else 0.4
    h = 1e-6
    checked = 0
    for k in range(1, 5):
        for l in range(1 if pinned else 0, k + 1):
            if not solver._free_slots(k, l, p, pinned):
                continue
            X = _population(rng, k, l, p, pinned, rows=8)
            f, c, df, dc = solver._objective_batch(p, k, t, X, l, grad=True)
            smooth = np.ones(len(X), dtype=bool)
            if l and not pinned:
                smooth[2:4] = False
                assert not (f[2:4].any() or df[2:4].any() or dc[2:4].any())
                assert (c[2:4] == -t).all()
            if pinned:
                assert not (c.any() or dc.any())
            for i in range(X.shape[1]):
                shift = h * (np.arange(X.shape[1]) == i)
                fp, cp = solver._objective_batch(p, k, t, X[smooth] + shift, l)
                fm, cm = solver._objective_batch(p, k, t, X[smooth] - shift, l)
                for ref, got in (((fp - fm) / (2 * h), df[smooth, i]), ((cp - cm) / (2 * h), dc[smooth, i])):
                    assert np.abs(ref - got).max() <= 1e-7 * max(1.0, np.abs(got).max()), (k, l, i)
            checked += smooth.sum()
    assert checked >= 40


def _mp_J_and_t_hat(p, k, l, pinned, x):
    """(objective, t_hat) at x from _mp_parts, at the working precision."""
    lams = [mpmath.mpc(0)] * k
    for j in range(len(x) // 2):
        lams[int(pinned) + j] = mpmath.sin(x[2 * j]) ** 2 * mpmath.expj(x[2 * j + 1])
    g0, ak, nrm = _mp_parts(p, lams, l)
    if pinned:
        return abs(ak) / nrm, mpmath.mpf(0)
    return mpmath.re(mpmath.conj(g0) * ak) / (abs(g0) * nrm), abs(g0) / nrm


@pytest.mark.parametrize("p", [0.3, 1.0, math.inf])
def test_exact_gradient_matches_a_30_digit_oracle(p):
    rng = np.random.default_rng(9)
    checked = 0
    for pinned in (False, True):
        for k in (2, 3):
            for l in range(1 if pinned else 0, k + 1):
                if not solver._free_slots(k, l, p, pinned):
                    continue
                # two rows away from _population's special ones
                X = _population(rng, k, l, p, pinned, rows=6)[4:]
                # f = -J and c = t_hat - t, so df = -dJ and dc = dt_hat
                _, _, df, dc = solver._objective_batch(p, k, 0.0 if pinned else 0.4, X, l, grad=True)
                for x, gJ, gt in zip(X, -df, dc):
                    with mpmath.workdps(30):
                        point = [mpmath.mpf(v) for v in x.tolist()]
                        for i in range(len(point)):
                            order = tuple(int(j == i) for j in range(len(point)))
                            for part, got in ((0, gJ[i]), (1, gt[i])):
                                ref = mpmath.diff(lambda *v: _mp_J_and_t_hat(p, k, l, pinned, v)[part],
                                                  point, order)
                                assert abs(got - float(ref)) <= 1e-12 * max(1.0, abs(got)), (k, l, i, part)
                    checked += 1
    assert checked >= 8


@pytest.mark.parametrize("p", [0.3, math.inf])
def test_newton_hessian_matches_30_digit_second_derivatives(p):
    # the polish's Hessian of f + mult c, differenced from exact gradients,
    # against mpmath's second derivatives of f = -J and c = t_hat - t at the
    # least-squares multiplier; a forward difference of step h is off by
    # about h times a third derivative, so the bound is 1e-4 of the largest
    # term
    checked = 0
    for pinned in (False, True):
        rng = np.random.default_rng(13)
        t = 0.0 if pinned else 0.4
        for k in (1, 2, 3):
            for l in range(1 if pinned else 0, k + 1):
                if not solver._free_slots(k, l, p, pinned):
                    continue
                x = _population(rng, k, l, p, pinned, rows=5)[4:]
                _, _, gf, gc, H = solver._newton_parts(
                    lambda X, rows, grad=False: solver._objective_batch(p, k, t, X, l, grad),
                    x, np.arange(1))
                gg = gc[0] @ gc[0]
                mult = -(gc[0] @ gf[0]) / gg if gg > 0 else 0.0
                assert not pinned or mult == 0.0
                dim = x.shape[1]
                errs, terms = [], []
                with mpmath.workdps(30):
                    point = [mpmath.mpf(v) for v in x[0].tolist()]
                    for i in range(dim):
                        for j in range(i, dim):
                            order = tuple((a == i) + (a == j) for a in range(dim))
                            dJ, dt = (mpmath.diff(lambda *v: _mp_J_and_t_hat(p, k, l, pinned, v)[part],
                                                  point, order) for part in (0, 1))
                            errs.append(abs(H[0, i, j] - float(-dJ + mult * dt)))
                            errs.append(abs(H[0, j, i] - float(-dJ + mult * dt)))
                            terms.append(float(abs(dJ) + abs(mult * dt)))
                assert max(errs) <= 1e-4 * max(terms), (k, l, pinned, max(errs), max(terms))
                checked += 1
    assert checked >= (14 if p == 0.3 else 9)


def _polish(cfg, x0s, counts):
    # the solve's polish: the lockstep SQP from leaders x0s, row i of zero
    # count counts[i], and (J, lams) per row where it ends feasible
    def fun(X, rows, grad=False):
        return solver._objective_batch(cfg.p, cfg.k, cfg.t, X, counts[rows], grad)

    x, f, c, _ = solver._sqp_lockstep(fun, x0s, constrained=cfg.t > 0)
    return solver._candidates(cfg, x, f, c)


@pytest.mark.parametrize("p", [0.3, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("pinned", [False, True])
def test_merged_polish_matches_each_zero_count_alone(p, pinned):
    # the solver's starts of every zero count with the same free dimension
    # polished in one lockstep SQP, against each count's starts polished by
    # themselves: every row ends on the same bytes
    t = 0.0 if pinned else 0.4
    merged = feasible = 0
    for k in range(1, 4):
        cfg = SolveConfig(k=k, p=p, t=t, starts=4)
        groups = {}
        for l in range(1 if pinned else 0, k + 1):
            dim = 2 * len(solver._free_slots(k, l, p, pinned))
            if dim:
                groups.setdefault(dim, []).append((l, np.array(solver._starts(cfg, l, dim))))
        for dim, members in groups.items():
            counts = np.concatenate([np.full(len(x0s), l) for l, x0s in members])
            found = _polish(cfg, np.concatenate([x0s for _, x0s in members]), counts)
            at = 0
            for l, x0s in members:
                alone = _polish(cfg, x0s, np.full(len(x0s), l))
                assert repr(found[at:at + len(x0s)]) == repr(alone), (k, l)
                at += len(x0s)
            merged += len(members) > 1
            feasible += sum(row is not None for row in found)
    # at p = inf the free dimension grows with l, so no two counts merge
    assert merged == (0 if p == math.inf else 3 - pinned)
    assert feasible >= 10


@pytest.mark.parametrize("k, p, t", [(2, 0.0168261370424421, 0.3981608154465375),
                                     (2, 0.0032542507601116023, 0.8240017986428428)])
def test_polish_line_search_halves_in_one_call_at_tiny_p(monkeypatch, k, p, t):
    # at tiny p the Newton step's scale can be far off: each line search is
    # the full step, then one call for all _LS_CUTS halvings of every row it
    # fails, each cut on the arc and then on the line
    lockstep = solver._sqp_lockstep
    searches = []  # the rows of each call of each line search

    def recorded(fun, x0s, constrained):
        def counted(X, rows, grad=False):
            if grad:
                searches.append([])
            else:
                searches[-1].append(len(X))
            return fun(X, rows, grad)

        return lockstep(counted, x0s, constrained)

    monkeypatch.setattr(solver, "_sqp_lockstep", recorded)
    sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=4))
    assert sol.t_residual < 1e-9 and sol.norm_residual < 1e-7
    assert sol.value >= phi1(p, t).value - 1e-6
    assert max(map(len, searches)) == 2
    halvings = [calls[1] for calls in searches if len(calls) == 2]
    assert halvings and all(rows % (2 * solver._LS_CUTS) == 0 for rows in halvings)


def test_tiny_p_at_four_starts_reaches_the_1024_start_value():
    # k = 2, p = 1e-3, t = 0.5: the explore and BFGS polish stopped at
    # 693.18408 at 4, 64 and 256 starts, and 693.29089 needed 1024
    sol = maximize_phik(SolveConfig(k=2, p=1e-3, t=0.5, starts=4))
    assert sol.value >= 693.2908939


def test_tiny_p_at_four_starts_lies_above_the_exponential_bound():
    # f = t e^{cz} with t^p I_0(p c) = 1 is feasible, so its a_k = t c^k / k!
    # (53.924 here) is a lower end of the answer; the explore and BFGS
    # polish stopped at 53.589 at 4 and 64 starts
    k, p, t = 3, 0.01342136277102184, 0.8369886032761097
    with mpmath.workdps(30):
        c = mpmath.findroot(lambda c: mpmath.log(mpmath.besseli(0, p * c)) + p * mpmath.log(t),
                            2 * mpmath.sqrt(-p * mpmath.log(t)) / p)
        bound = float(t * c**k / mpmath.factorial(k))
    assert 53.92 < bound < 53.93
    assert maximize_phik(SolveConfig(k=k, p=p, t=t, starts=4)).value > bound


@pytest.mark.parametrize("field", ["value", "norm_residual", "t_residual"])
def test_nan_solution_fields_raise(field):
    fields = dict(value=0.5, best=None, l_used=0, norm_residual=0.0, t_residual=0.0,
                  cluster_count=1, per_l_values={})
    ExtremalSolution(**fields)
    with pytest.raises(SolverError):
        ExtremalSolution(**{**fields, field: math.nan})


def test_nan_cross_check_raises(monkeypatch):
    # a NaN from the Cauchy-integral cross-check disagrees with every series value
    monkeypatch.setattr(solver, "_coeff_inside", lambda fn, k: complex(math.nan, 0.0))
    with pytest.raises(SolverError, match="disagreement"):
        maximize_phik(SolveConfig(k=2, p=0.5, t=0.3, starts=4))


def test_pinned_polish_keeps_where_the_sqp_stops(monkeypatch):
    # at t = 0 the SQP runs unconstrained and takes only steps that lower
    # -J, so each row keeps the J of its end, converged or not; here three
    # rows stop unconverged, where nearly every pinned row converges
    lockstep, candidates = solver._sqp_lockstep, solver._candidates
    ends, found = [], []

    def recorded(fun, x0s, constrained):
        out = lockstep(fun, x0s, constrained)
        ends.append(tuple(v.copy() for v in out))
        return out

    monkeypatch.setattr(solver, "_sqp_lockstep", recorded)
    # no zero count has a closed-form point here, so the polish's ends are
    # the only candidates
    monkeypatch.setattr(solver, "_candidates",
                        lambda *args: found.append(candidates(*args)) or found[-1])
    maximize_phik(SolveConfig(k=3, p=0.2928034288119985, t=0.0, starts=8))
    ((_, f, _, conv),), (rows,) = ends, found
    assert not conv.all()
    assert [J for J, _ in rows] == [-fv for fv in f.tolist()]


@pytest.mark.parametrize("t", [0.5, 0.0])
def test_polish_ends_at_kkt_points(monkeypatch, t):
    # every leader the SQP reports converged meets the constraint to
    # _POLISH_FTOL, where the gradient of the objective along the constraint
    # (all of it, pinned) vanishes to the accuracy the stopping test allows
    cfg = SolveConfig(k=2, p=0.5, t=t, starts=32)
    lockstep = solver._sqp_lockstep
    runs = []

    def recorded(fun, x0s, constrained, **kwargs):
        out = lockstep(fun, x0s, constrained, **kwargs)
        runs.append((fun, constrained, out))
        return out

    monkeypatch.setattr(solver, "_sqp_lockstep", recorded)
    maximize_phik(cfg)
    (fun, constrained, (x, f, c, conv)), = runs
    assert constrained == (t > 0)
    assert len(x) >= 16 and conv.sum() >= 12
    _, _, gf, gc = fun(x[conv], np.nonzero(conv)[0], grad=True)
    if constrained:
        assert (np.abs(c[conv]) < solver._POLISH_FTOL).all()
        gf = gf - ((gf * gc).sum(axis=1) / (gc * gc).sum(axis=1))[:, None] * gc
    assert np.abs(gf).max() < 1e-4


# The loops and numpy calls that the lockstep bookkeeping replaced, kept as
# references: each replacement does the same arithmetic in the same order,
# so it must give the same bytes, inf, NaN and -0.0 included.

def _with_specials(rng, shape):
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    kind = rng.integers(0, 20, shape)
    for code, value in enumerate((math.inf, -math.inf, math.nan, -0.0, 0.0)):
        x[kind == code] = value
    return x


def test_starts_draw_in_one_call_what_two_calls_a_start_drew():
    for k, p, t, l, starts, seed in ((1, 0.5, 0.3, 0, 5, 0), (2, 0.5, 0.3, 1, 9, 3),
                                     (3, 2.0, 0.6, 3, 7, 1), (2, math.inf, 0.4, 2, 4, 2),
                                     (2, 0.5, 0.0, 1, 1, 5), (5, 0.3, 0.2, 2, 3, 4)):
        cfg = SolveConfig(k=k, p=p, t=t, starts=starts, seed=seed)
        dim = 2 * len(solver._free_slots(k, l, p, t == 0.0))
        rng = np.random.default_rng([seed, k, l, 1])
        ref = solver._warm_starts(p, k, l, t)
        for _ in range(max(starts - len(ref), 1)):
            r = rng.uniform(0.0, math.pi / 2.0, size=dim // 2)
            th = rng.uniform(0.0, 2.0 * math.pi, size=dim // 2)
            ref.append(np.column_stack([r, th]).ravel())
        got = solver._starts(cfg, l, dim)
        assert len(got) == len(ref), (k, l)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), (k, l)


def test_dot_adds_as_the_moveaxis_chain_did():
    rng = np.random.default_rng(19)
    with np.errstate(invalid="ignore", over="ignore"):
        for m, dim in ((1, 1), (5, 2), (12, 4), (40, 6)):
            a, b = _with_specials(rng, (m, dim)), _with_specials(rng, (m, dim))
            B = _with_specials(rng, (m, dim, dim))
            for x, y in ((a, b), (B, a[:, None, :])):
                ref = _chain_sum(np.moveaxis(x * y, -1, 0))
                assert solver._dot(x, y).tobytes() == ref.tobytes(), (m, dim, x.ndim)


def test_centroid_adds_as_scipys_reduce_did():
    # vertex j of every start in sim[j]: scipy's own expression, batched
    rng = np.random.default_rng(29)
    with np.errstate(invalid="ignore", over="ignore"):
        for m, N in ((1, 1), (6, 2), (30, 4), (9, 6), (4, 12)):
            sim = _with_specials(rng, (N + 1, m, N))
            sim[:, :2] = -0.0  # starts whose vertices all read -0.0
            ref = np.add.reduce(sim[:-1], 0) / N
            assert solver._nm_centroid(sim).tobytes() == ref.tobytes(), (m, N)


def test_first_passing_trial_of_each_row_as_np_unique_picked_it():
    rng = np.random.default_rng(23)
    several = 0
    for _ in range(300):
        m = int(rng.integers(1, 12))
        rows = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        at = np.repeat(rows, rng.integers(1, 31, rows.size))
        ok = rng.random(at.size) < rng.choice([0.0, 0.05, 0.3, 0.9])
        won, first = np.unique(at[ok], return_index=True)
        hit = np.nonzero(ok)[0][first]
        got_won, got_hit = solver._first_per_row(at, ok)
        assert got_won.tobytes() == won.tobytes() and got_hit.tobytes() == hit.tobytes()
        several += np.any(np.bincount(at[ok], minlength=m) > 1)
    assert several >= 100
