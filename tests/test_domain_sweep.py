"""Domain sweeps of the solver, the panel pass and the sharpness family.

Every call gives a finite value or a typed error: ValueError for input
outside the documented domain, QuadratureError or SolverError for a run
that does not converge.  Any other exception, a non-finite value or a
RuntimeWarning (an error under this suite's settings) fails.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyx.hardy_norm import QuadratureError, circle_mean
from hardyx.solver import SolveConfig, SolverError, maximize_phik, sandwich_check
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
