"""Domain sweeps of the solver, the panel pass, the sharpness family, the
suites, the product form, boundary sampling, Taylor coefficients and the
averaging operator.

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
from hardyx.fn_repr import (BoundarySamples, PolyCoeffs, StructuredExtremal, eval_structured, sample_boundary,
                            taylor_coeff)
from hardyx.hardy_norm import QuadratureError, circle_mean
from hardyx.solver import SolveConfig, SolverError, maximize_phik, sandwich_check, t0_scan
from hardyx.wiener import inner_defect, sharpness_ratio, wiener_coeffs

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


# ---------------------------------------------------------------------------
# the product form, boundary sampling, Taylor coefficients and the averaging
# operator
# ---------------------------------------------------------------------------

# values that are not finite, as a function's value, a point, a coefficient
# or a lambda
_ODD = st.sampled_from([math.nan, INF, -INF, complex(INF, math.nan), complex(0.0, -INF)])
# sample counts and coefficient indices, mostly on the power-of-two grid
_SIZE = st.one_of(
    st.integers(min_value=2, max_value=12).map(lambda e: 2**e),
    st.integers(min_value=0, max_value=300),
    st.sampled_from([-8, -1, 1, 2, 3, 12, 4.0, 8.5, True, None, "8", math.nan, INF, -INF]),
)
_K = st.one_of(st.integers(min_value=2, max_value=6),
               st.sampled_from([-1, 0, 1, 2.0, 2.5, True, None, "2", math.nan, INF, -INF]))
_SCALE = st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0**e)
_UNIT = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _values(v) -> tuple:
    v = np.atleast_1d(v)
    return (*v.real.tolist(), *v.imag.tolist())


@st.composite
def _spoilt(draw, min_size: int, max_size: int) -> list:
    """Complex numbers in the closed disc, one of them made 1, and one not
    finite, in one draw of four each."""
    values = draw(st.lists(_UNIT, min_size=min_size, max_size=max_size))
    for spoil in (st.just(1.0), _ODD):
        if draw(st.sampled_from([False, False, False, True])):
            values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = draw(spoil)
    return values


@st.composite
def _structured(draw, inner=False):
    """A StructuredExtremal, built when the sweep calls it; with inner, a
    Blaschke product: p = inf and a zero at every lambda."""
    k = draw(st.integers(min_value=1, max_value=3))
    lams = draw(_spoilt(k, k))
    if inner:
        p, l, scale = INF, k, 1.0
    else:
        p = draw(st.sampled_from([1e-3, 0.5, 2.0, INF]))
        l = draw(st.integers(min_value=0, max_value=k))
        scale = draw(_SCALE)
    return lambda: StructuredExtremal(scale, p, l, lams)


@st.composite
def _functions(draw, unimodular=False):
    """A function on the closed disc, built when the sweep calls it, so that
    a constructor's ValueError counts as a typed error.

    A polynomial, from a scale across the double range, or a product form
    (_structured).  Either may be poked at z = 1, a point of every
    grid: there it gives a value that is not finite, or it is evaluated at
    such a point, at z = 1 alone or on an arc around it.  With unimodular,
    the product form is a Blaschke product and the polynomial a unimodular
    monomial, so that only a poke or a lambda on the circle breaks the unit
    modulus.
    """
    if draw(st.booleans()):
        if unimodular:
            top = draw(_UNIT.filter(abs))
            coeffs, scale = [0.0] * draw(st.integers(min_value=0, max_value=4)) + [top / abs(top)], 1.0
        else:
            coeffs, scale = draw(_spoilt(1, 6)), draw(_SCALE)
        base = lambda: PolyCoeffs(tuple(scale * c for c in coeffs))  # noqa: E731
    else:
        base = draw(_structured(inner=unimodular))
    if not draw(st.booleans()):
        return base
    odd, width, at_point = draw(_ODD), draw(st.sampled_from([1e-12, 0.1])), draw(st.booleans())

    def poked():
        f = base()
        if at_point:
            return lambda z: f(np.where(np.abs(z - 1.0) < width, odd, z))
        return lambda z: np.where(np.abs(z - 1.0) < width, odd, f(z))

    return poked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(build=_structured(), z=st.lists(_UNIT, min_size=1, max_size=4),
       odd=st.sampled_from([math.nan, complex(0.0, math.nan), INF, complex(INF, math.nan), 1.0 + 1e-6]),
       spoilt=st.booleans())
def test_eval_structured_gives_finite_values_or_a_typed_error(build, z, odd, spoilt):
    # points in the disc, and perhaps one just outside it or not finite
    _finite_or_typed(lambda: _values(eval_structured(build(), np.array(z + [odd] * spoilt))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(build=_functions(), n=_SIZE)
def test_sample_boundary_gives_finite_values_or_a_typed_error(build, n):
    _finite_or_typed(lambda: _values(sample_boundary(build(), n).values))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(build=_functions(), n=_SIZE, raw=_spoilt(1, 8),
       scale=_SCALE, sampled=st.booleans(), index=st.one_of(st.integers(min_value=0, max_value=7), _SIZE))
def test_taylor_coeff_gives_a_finite_value_or_a_typed_error(build, n, raw, scale, sampled, index):
    # samples of a function, or raw values on a grid of 4 or 8, perhaps not finite
    def coeff():
        if sampled:
            samples = sample_boundary(build(), n)
        else:
            values = [scale * v for v in raw]
            samples = BoundarySamples(np.resize(values, 4 if len(values) <= 4 else 8))
        return _values(taylor_coeff(samples, index))

    _finite_or_typed(coeff)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(build=st.one_of(_functions(unimodular=True), _functions()), k=_K)
def test_inner_defect_gives_a_finite_value_or_a_typed_error(build, k):
    _finite_or_typed(lambda: (inner_defect(build(), k),))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coeffs=_spoilt(1, 12), scale=_SCALE, k=_K)
def test_wiener_coeffs_gives_finite_coefficients_or_a_typed_error(coeffs, scale, k):
    _finite_or_typed(lambda: _values(wiener_coeffs(PolyCoeffs(tuple(scale * c for c in coeffs)), k).coeffs))


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
