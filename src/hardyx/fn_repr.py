"""Function representations for the extremal problems on the unit disc.

Three concrete representations are used throughout the package:

* ``StructuredExtremal``: the Caratheodory-Fejer product form

      f(z) = C * prod_{j<=l} (lam_j - z)/(1 - conj(lam_j) z)
               * prod_{j=1}^{k} (1 - conj(lam_j) z)^{2/p}

  with l interior Blaschke zeros and k outer-type factors raised to the
  real power 2/p (principal branch).  Every factor 1 - conj(lam_j) z has
  nonnegative real part on the closed disc, so the principal logarithm is
  globally consistent there.

* ``PolyCoeffs``: a finite Taylor polynomial, the workhorse of the random
  test suites.

* ``BoundarySamples``: values on the uniform N-point boundary grid
  z_m = exp(2 pi i m / N), N a power of two, from which Taylor
  coefficients are recovered by the discrete Cauchy integral.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EvaluationError",
    "StructuredExtremal",
    "PolyCoeffs",
    "BoundarySamples",
    "boundary_grid",
    "eval_structured",
    "sample_boundary",
    "taylor_coeff",
]

# Radii this close to 1 are treated as exactly unimodular when evaluating
# Blaschke factors; the factor then degenerates to the constant lam.
_UNIT_TOL = 1e-14


class EvaluationError(ValueError):
    """Raised when a function cannot be evaluated where it was asked to be."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class StructuredExtremal:
    """Product-form candidate extremal.

    ``zero_count`` (called l below) is the number of leading lambdas that
    carry a Blaschke factor; all ``len(lambdas)`` lambdas carry an
    outer-type factor.  Blaschke lambdas must lie strictly inside the disc;
    outer-only lambdas may touch the boundary.
    """

    scale: complex
    p: float
    zero_count: int
    lambdas: tuple[complex, ...]

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError(f"p must be positive (got {self.p})")
        lams = tuple(complex(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "scale", complex(self.scale))
        if not all(map(_finite, (self.scale, *lams))):
            raise ValueError("scale and lambdas must be finite")
        l = self.zero_count
        if not _is_int(l) or not (0 <= l <= len(lams)):
            raise ValueError(f"zero_count {l!r} is not an integer in 0..{len(lams)}")
        for j in range(l):
            if abs(lams[j]) >= 1.0:
                raise ValueError(
                    f"Blaschke lambda_{j} = {lams[j]} must satisfy |lambda| < 1"
                )
        for j in range(len(lams)):
            if abs(lams[j]) > 1.0 + 1e-12:
                raise ValueError(f"lambda_{j} = {lams[j]} outside the closed disc")

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def __call__(self, z):
        return eval_structured(self, z)


@dataclass(frozen=True)
class PolyCoeffs:
    """Taylor polynomial a_0 + a_1 z + ... + a_d z^d.

    ``_memo`` holds what has been computed from this instance (see
    ``_memoized``): the read-only |f| on each trapezoid grid of
    ``hardy_norm``, the norms measured on those samples, and the
    ``wiener_coeffs`` W_k f and, for f(z) = g(z^m), the g that
    ``hardy_norm`` samples in its place, each with its own memo.  It takes
    no part in equality, hashing or repr, and dies with the instance.
    """

    coeffs: tuple[complex, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if len(cs) == 0:
            raise ValueError("at least one coefficient required")
        if not all(map(_finite, cs)):
            raise ValueError("coefficients must be finite")
        # bounds every Horner and FFT partial sum on the closed disc; abs(c)
        # itself overflows at 1.5e308 + 1.5e308j
        if not math.isfinite(sum(abs(c.real) + abs(c.imag) for c in cs)):
            raise ValueError("the coefficients' sizes sum past the largest double")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        # Horner evaluation, vectorized over z.
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.shape else complex(out)


def _memoized(f, key, compute):
    """compute(), kept in f's memo under key when f is a PolyCoeffs.

    A PolyCoeffs is immutable, so whatever is computed from it stays right
    for its lifetime.  Keys are tuples whose first item names the kind:
    ("grid", n, half), ("hp", p, rel_tol), ("hinf",), ("wiener", k) and
    ("power",).
    """
    if not isinstance(f, PolyCoeffs):
        return compute()
    memo = f._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


@dataclass(frozen=True)
class BoundarySamples:
    """Values of a function on the uniform boundary grid of size N >= 4."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        n = v.shape[0]
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"sample count {n} must be a power of two >= 4")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def boundary_grid(n: int) -> np.ndarray:
    """The grid points exp(2 pi i m / n), m = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _poly_grid(c: PolyCoeffs, n: int, half: bool = False) -> np.ndarray:
    """c at exp(2 pi i m / n), m = 0..n-1, by one zero-padded inverse FFT.

    With ``half`` the grid moves by half a step, to exp(2 pi i (m + 1/2) / n):
    a_j is twisted by exp(i pi j / n).  On either grid z^n is a constant, so
    coefficients from index n on fold onto j mod n after the twist.
    """
    a = np.asarray(c.coeffs)
    if half:
        a = a * np.exp(1j * np.pi * np.arange(a.size) / n)
    if a.size > n:
        a = np.concatenate([a, np.zeros(-a.size % n)]).reshape(-1, n).sum(axis=0)
    # "forward" leaves the inverse transform unscaled: sum_j a_j w^(jm)
    return np.fft.ifft(a, n, norm="forward")


def _blaschke(lam: complex, z: np.ndarray) -> np.ndarray:
    if abs(abs(lam) - 1.0) <= _UNIT_TOL:
        # (lam - z)/(1 - conj(lam) z) == lam identically when |lam| = 1.
        return np.full(z.shape, lam, dtype=complex)
    return (lam - z) / (1.0 - np.conj(lam) * z)


def eval_structured(fn: StructuredExtremal, z):
    """Evaluate the product form at points of the closed unit disc.

    Fractional powers use the principal branch.  If an outer-only lambda is
    unimodular, the factor has a boundary zero at z = lam; the value 0 is
    returned there for finite p (the exponent 2/p is positive).  Where
    |f| passes the largest double, EvaluationError is raised.
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    if not np.all(np.abs(zs) <= 1.0 + 1e-9):  # a NaN point fails too
        raise EvaluationError("evaluation point outside the closed unit disc")

    out = np.full(zs.shape, fn.scale, dtype=complex)
    if math.isfinite(fn.p) and fn.scale != 0:
        # one exp of log(scale) plus the outer factors' logs: at small p a
        # factor alone can pass the double range where f does not
        log_f = np.full(zs.shape, cmath.log(fn.scale))
        zero = np.zeros(zs.shape, dtype=bool)
        for lam in fn.lambdas:
            w = 1.0 - np.conj(lam) * zs
            zero |= w == 0  # boundary tangency: |w|^(2/p) -> 0
            log_f += 2.0 / fn.p * np.log(np.where(w == 0, 1.0, w))
        with np.errstate(over="ignore"):
            out = np.exp(log_f)
        out[zero] = 0.0
        if not np.isfinite(out).all():
            raise EvaluationError("f passes the largest double at an evaluation point")
    for j in range(fn.zero_count):
        out *= _blaschke(fn.lambdas[j], zs)
    return complex(out[0]) if scalar else out


def _pointwise_limit(f, theta: float, h: float):
    """Two-sided limit estimate used to patch isolated evaluation failures."""
    vals = []
    for d in (h, h / 2.0):
        pair = []
        for s in (-1.0, 1.0):
            v = np.asarray(f(np.exp(1j * (theta + s * d))), dtype=complex).ravel()[0]
            if not np.isfinite(v):
                return None
            pair.append(v)
        vals.append(0.5 * (pair[0] + pair[1]))
    if abs(vals[0] - vals[1]) <= 1e-6 * max(1.0, abs(vals[1])):
        return vals[1]
    return None


def _eval_points(f, z: np.ndarray) -> np.ndarray:
    """f at every point of the array z, as a complex array.

    One vectorized call is tried first.  A callable that takes scalars only
    (TypeError or ValueError on an array), or returns a value of another
    shape, such as a constant, is called once per point instead.  An
    EvaluationError propagates at once: f ran and refused the points.
    """
    try:
        vals = np.asarray(f(z), dtype=complex)
        if vals.shape == z.shape:
            return vals
    except EvaluationError:
        raise
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(zm)) for zm in z])


def sample_boundary(f, n: int) -> BoundarySamples:
    """Sample an evaluator on the uniform boundary grid of size n.

    Isolated non-finite values are replaced by a numerical two-sided limit
    when one exists; otherwise an EvaluationError is raised.  A value that
    overflows, such as a polynomial's past the largest double, is such a
    value, so its floating-point warning is not raised.
    """
    if not _is_int(n) or n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count {n!r} must be a power of two >= 4")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = _eval_points(f, boundary_grid(n))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            h = (2 * np.pi / n) * 1e-6
            thetas = 2 * np.pi * np.arange(n) / n
            vals = vals.copy()
            for m in np.nonzero(bad)[0]:
                lim = _pointwise_limit(f, thetas[m], h)
                if lim is None:
                    raise EvaluationError(
                        f"no finite limit at boundary angle {thetas[m]:.6f}"
                    )
                vals[m] = lim
    return BoundarySamples(vals)


def taylor_coeff(s: BoundarySamples, n: int) -> complex:
    """Discrete Cauchy integral: (1/N) sum_m values[m] exp(-2 pi i m n / N).

    Exact for polynomials of degree < N; otherwise the result carries the
    usual aliasing of coefficients n + N, n + 2N, ...  The values are
    divided by N before the transform, exactly above the subnormals since N
    is a power of two, so every coefficient a double holds is returned.
    Where the transform is not finite, from a value that is not or from a
    sum past the largest double, EvaluationError is raised.
    """
    if not _is_int(n) or not (0 <= n < s.n):
        raise ValueError(f"coefficient index {n!r} is not an integer in 0..{s.n - 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        a = complex(np.fft.fft(s.values / s.n)[n])
    if not _finite(a):
        raise EvaluationError(f"coefficient {n} is not finite")
    return a
