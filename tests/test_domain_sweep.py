"""Domain sweeps of the solver, the panel pass, the sharpness family and the
suites.

Every call gives a finite value or a typed error: ValueError for input
outside the documented domain, QuadratureError or SolverError for a run
that does not converge.  Any other exception, a non-finite value or a
RuntimeWarning (an error under this suite's settings) fails.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyx import solver, verify
from hardyx.closed_form import phi1
from hardyx.hardy_norm import QuadratureError, circle_mean
from hardyx.solver import SolveConfig, SolverError, maximize_phik, sandwich_check, t0_scan
from hardyx.wiener import sharpness_ratio

INF = math.inf
_TYPED = (ValueError, QuadratureError, SolverError)


def _finite_or_typed(call) -> None:
    try:
        values = call()
    except _TYPED:
        return
    assert all(map(math.isfinite, values)), values


_T = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(min_value=1, max_value=3),
    p=st.one_of(
        st.sampled_from([1e-3, 8.0, 1.0, INF]),
        st.floats(min_value=-3.0, max_value=math.log10(8.0)).map(lambda e: 10.0**e),
    ),
    t=_T,
)
def test_maximize_phik_gives_a_finite_value_or_a_typed_error(k, p, t):
    def solve():
        sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=4))
        return (sol.value, sol.norm_residual, sol.t_residual)

    _finite_or_typed(solve)


@pytest.mark.parametrize("t", [1e-300, 1e-16, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_small_t_solves_with_a_unit_norm(k, p, t):
    # best is g / ||g||, so its norm is 1 at every t, and best(0) = t_hat
    # meets t to the absolute feasibility tolerance; the lift of phi1's
    # extremal attains the maximum at k = 1 and at p >= 1
    sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=4))
    assert sol.t_residual < 1e-9 and sol.norm_residual < 1e-7
    if k == 1 or p >= 1:
        ref = phi1(p, t).value
        assert abs(sol.value - ref) <= 1e-9 * ref


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    k=st.integers(min_value=0, max_value=3),
    p=st.one_of(st.sampled_from([0.0, 1.0, -0.5, INF]), st.floats(min_value=0.05, max_value=0.95)),
    t=st.one_of(_T, st.sampled_from([-0.1, 1.5])),
)
def test_sandwich_check_gives_a_finite_value_or_a_typed_error(k, p, t):
    def check():
        rep = sandwich_check(k, p, t, starts=4)
        return (rep.lower, rep.upper, rep.solved)

    _finite_or_typed(check)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0, -0.5, 2.0, INF, math.nan]), st.floats(0.05, 0.95)),
    k=st.integers(min_value=-1, max_value=6),
    eps=st.one_of(
        st.sampled_from([5e-324, 2.2e-308, 0.0, -1e-3, INF, math.nan]),
        st.floats(min_value=-323.0, max_value=3.0).map(lambda e: 10.0**e),
    ),
)
def test_sharpness_ratio_gives_a_finite_value_or_a_typed_error(p, k, eps):
    _finite_or_typed(lambda: (sharpness_ratio(p, k, eps),))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["cusp", "near-pole"]),
    at=st.floats(min_value=0.0, max_value=2 * math.pi),
    # a cusp's exponent, or a near-pole's distance 10^-e from the circle
    power=st.floats(min_value=0.05, max_value=10.0),
    seeded=st.booleans(),
    scale=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
)
def test_circle_mean_gives_a_finite_value_or_a_typed_error(shape, at, power, seeded, scale):
    # both integrands lie in [0, scale], so they neither overflow nor warn
    def g(th):
        s = np.abs(np.sin(0.5 * (th - at)))
        if shape == "cusp":
            return scale * s**power
        d = 10.0**-power
        return scale * (d / (d + s))

    _finite_or_typed(lambda: (circle_mean(g, 1e-9, seeds=(at,) if seeded else ()),))


_T0_VALID = {"k": st.just(2), "p": st.floats(min_value=0.05, max_value=0.95),
             "starts": st.integers(min_value=1, max_value=64)}
_T0_INVALID = {
    "k": st.one_of(st.sampled_from([2.0, 2.5, True, None]),
                   st.integers(min_value=-3, max_value=10).filter(lambda k: k != 2)),
    "p": st.one_of(st.sampled_from([0.0, 1.0, -0.5, INF, math.nan]),
                   st.floats(min_value=1.0), st.floats(max_value=0.0)),
    "starts": st.one_of(st.sampled_from([2.5, 4.0, True, None, "4"]),
                        st.integers(max_value=0)),
}


@st.composite
def _t0_args(draw):
    """k, p and starts for t0_scan with at least one outside its domain."""
    bad = draw(st.sets(st.sampled_from(sorted(_T0_VALID)), min_size=1))
    return {name: draw((_T0_INVALID if name in bad else _T0_VALID)[name]) for name in _T0_VALID}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(args=_t0_args())
def test_t0_scan_rejects_input_outside_its_domain_before_solving(args):
    def no_solve(cfg):
        raise AssertionError("t0_scan solved before checking its input")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "maximize_phik", no_solve)
        with pytest.raises(ValueError):
            t0_scan(**args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.one_of(st.text(), st.sampled_from(["All", "WIENER", " wiener", "theorems\n", "",
                                                   ["wiener"], {"wiener": 1}, None])))
def test_run_suite_rejects_names_outside_its_suites(name):
    assume(not isinstance(name, str) or (name not in verify._SUITES and name != "all"))
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite(name)
