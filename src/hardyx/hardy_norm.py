"""Hardy space norms from boundary data.

``norm_hp`` computes (integral of |f|^p over the circle / 2 pi)^(1/p) by the
periodic trapezoidal rule, starting from 4096 points and doubling up to 3
times (32768 points in all).  For smooth boundary moduli the trapezoid
converges spectrally, so two estimates agree within those doublings.  When
0 < p < 1 and f has boundary zeros the integrand |f|^p only has a Hoelder
cusp there, where each doubling gains a fixed factor at best.  So once two
estimates disagree, the pass reads its rate from the successive
differences of the sums on the starting grid's 1/4 and 1/2 subgrids
(strided views of its samples), the starting grid and each doubling.  If
the last ratio is below 1 and at least half the one before, an algebraic
rate, and at that ratio the doublings left cannot reach rel_tol, an
adaptive panel pass (``circle_mean``) takes over at once; so it does
after the last doubling.  The panels start graded geometrically into
seeds: for a polynomial the angles of its zeros within 1e-3 of the circle
(``numpy.roots``), for other callables the starting grid's near-zero
points, and the grid's highest sample.  A cusp at a zero is then
resolved by the first evaluation, and panels are split only where the
error estimate says so.  The same panel machinery handles integrands with
a sharp near-singular peak and a starting grid that meets a pole or a
NaN, seeded there.
``QuadConfig.rel_tol`` is the one quadrature setting; the panels take the
mean of |f|^p to rel_tol * min(1, p), which holds the norm to rel_tol.

The mean is taken of (|f|/M)^p and the norm returned as M mean^(1/p), so
that p in the hundreds or more neither under- nor overflows.  M is 1
wherever the starting grid's largest finite sample, raised to p, and a sum
of 32768 such terms stay in the normal double range; elsewhere it is that
sample.  A finer grid or a panel node can meet a higher peak between the
starting grid's points, higher by a factor (1 + delta)^p; if that takes a
finite sample's power out of the range, the measurement starts again with M
that sample.  A polynomial's kept grids make that restart cheap.

A ``PolyCoeffs`` whose nonzero coefficients all sit at multiples of some
m > 1 (m their indices' gcd), such as every W_k f, is f(z) = g(z^m) with
g(w) = sum_j a_{mj} w^j.  As theta -> m theta keeps the circle's measure,
||f||_p = ||g||_p for every 0 < p <= inf, and g is measured instead:
from 4096/m points rounded up to a power of two, but no fewer than 128.
Up to m = 32 that is the sample set of f's 4096-point grid when m is a
power of two and a finer one otherwise.  Its zeros and the panels' nodes are g's, and the sup-norm's
witness angle is g's over m.

A ``PolyCoeffs`` is sampled on each trapezoid grid by one zero-padded
inverse FFT of its coefficients (twisted by e^{i pi j/n} for the midpoint
grid, folded mod n past degree n), in place of a Horner pass per grid.
It is immutable, so it keeps g and |g| on each grid g meets, read-only, and
the norms measured from them: a sweep over p and rel_tol samples g once
per grid, at most 4096 + 4096 + 8192 + 16384 doubles, and the sup-norm
reads the same starting grid.  Other callables, and the panels' nodes, are
evaluated directly: the panel pass (``circle_mean``) makes one call for
all its starting panels and one per round, which splits the fewest worst
panels that leave the rest within half its error target, on the 64
nodes of each split panel's four quarter panels.

``norm_hinf`` takes a grid maximum and polishes it with golden-section search
around the best grid angle, to a 1e-8 rad bracket; a polynomial is
evaluated there one point at a time by a scalar Horner.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fn_repr import PolyCoeffs, _eval_points, _memoized, _poly_grid

__all__ = [
    "QuadConfig",
    "QuadratureError",
    "norm_hp",
    "norm_hinf",
    "parseval_norm",
    "circle_mean",
]

_TWO_PI = 2.0 * np.pi
# the dyadic pass: starting grid size and the doublings allowed before the
# panel pass takes over
_BASE_SAMPLES = 4096
_MAX_REFINEMENTS = 3
# the fewest starting points of a polynomial measured through g(z^m)
_MIN_SAMPLES = 128
# log of the range |f|^p may take unscaled: normal doubles, with room for
# the sum of the finest grid's samples
_LOG_POW_MIN = math.log(sys.float_info.min)
_LOG_POW_MAX = math.log(sys.float_info.max / (_BASE_SAMPLES << _MAX_REFINEMENTS))


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the last two estimates."""

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(f"{message} (last two estimates: {estimates[0]!r}, {estimates[1]!r})")
        self.estimates = estimates


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature control.

    rel_tol: relative agreement required between successive dyadic
        estimates, and the panel pass's error target.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


def _as_theta_evaluator(f):
    """Adapt the accepted function representations to a vectorized theta -> |f| map."""
    if not callable(f):
        raise TypeError(f"cannot evaluate object of type {type(f).__name__}")

    def absf(theta: np.ndarray) -> np.ndarray:
        return np.abs(_eval_points(f, np.exp(1j * theta)))

    return absf


def _grid_sampler(f, absf):
    """|f| on the grid 2 pi m / n, or with ``half`` on 2 pi (m + 1/2) / n.

    A polynomial takes one inverse FFT per grid, on the first call for that
    grid only: the array is kept, read-only, in its memo.  Other callables
    go through absf at the grid angles.
    """
    if isinstance(f, PolyCoeffs):
        def sample(n: int, half: bool) -> np.ndarray:
            vals = np.abs(_poly_grid(f, n, half))
            vals.setflags(write=False)
            return vals

        return lambda n, half: _memoized(f, ("grid", n, half), lambda: sample(n, half))

    def grid(n: int, half: bool) -> np.ndarray:
        theta = _TWO_PI * np.arange(n) / n
        return absf(theta + _TWO_PI / (2 * n) if half else theta)

    return grid


def _point_sampler(f, absf):
    """|f| at one angle: a scalar Horner for a polynomial, absf otherwise."""
    if isinstance(f, PolyCoeffs):
        top, *rest = f.coeffs[::-1]

        def one(theta: float) -> float:
            z = complex(math.cos(theta), math.sin(theta))
            acc = top
            for c in rest:
                acc = acc * z + c
            return abs(acc)

        return one
    return lambda theta: float(absf(np.array([theta]))[0])


# ---------------------------------------------------------------------------
# adaptive panel quadrature on [0, 2 pi)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(16)
# panel count from which circle_mean watches its error estimate for a floor
_FLOOR_START = 1024
# the starting mesh: 32 uniform panels, graded toward each seed by the ratio
# 0.15 (Schwab, p- and hp-Finite Element Methods, 1998, section 4.4) for up
# to 18 levels on either side, at the offsets 2 pi / 32 * 0.15^j from it; an
# offset below 1e-11 times the seed's angle is dropped, so that no node
# rounds onto the seed
_GRADE_OFFSETS = _TWO_PI / 32 * 0.15 ** np.arange(1, 19)
_GRADE_FLOOR = 1e-11
# the panel budget of one circle_mean call
_MAX_PANELS = 20000


def _panel_ests(g, a: np.ndarray, b: np.ndarray, total: float) -> np.ndarray:
    """The 16-node Gauss-Legendre estimate of g on each panel [a_i, b_i].

    g is called once, on the nodes of every panel laid out panel by panel.
    Every panel is summed by the same chain of 16 multiply-adds, so it gets
    the double it would get from a call of its own.  A non-finite estimate,
    or sum of estimates, raises QuadratureError at once, naming the first
    non-finite node; ``total`` is the integral before these panels.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    theta = mid[:, None] + half[:, None] * _GL_NODES
    vals = np.reshape(g(theta.ravel()), theta.shape)
    acc = _GL_WEIGHTS[0] * vals[:, 0]
    for j in range(1, len(_GL_WEIGHTS)):
        acc = acc + _GL_WEIGHTS[j] * vals[:, j]
    ests = half * acc
    # a Python sum, which overflows to inf without a warning
    if not math.isfinite(sum(ests.tolist())):
        bad = theta[~np.isfinite(vals)]
        at = float(bad[0] if bad.size else mid[0])
        raise QuadratureError(
            f"integrand is not finite at theta = {at!r}", (total / _TWO_PI, math.nan)
        )
    return ests


def _start_panels(seeds: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The starting panels' ends: the 32 uniform panels of [0, 2 pi], cut at
    each seed and graded toward it from both sides."""
    s = np.asarray(seeds, dtype=float)[:, None] % _TWO_PI
    # a seed at 0 is approached from 2 pi on its left
    left = np.where(s == 0.0, _TWO_PI, s)
    d = _GRADE_OFFSETS
    breaks = np.concatenate((
        _TWO_PI * np.arange(33) / 32,
        s.ravel(),
        (s + d)[d >= _GRADE_FLOOR * s] % _TWO_PI,
        (left - d)[d >= _GRADE_FLOOR * left] % _TWO_PI,
    ))
    # sorted without repeats (np.unique would import numpy.ma, 2 MB)
    breaks = np.sort(breaks)
    breaks = breaks[np.append(True, breaks[1:] > breaks[:-1])]
    return breaks[:-1], breaks[1:]


def circle_mean(g, rel_tol: float = 1e-9, seeds=()) -> float:
    """Mean of g over [0, 2 pi) by error-driven adaptive panel subdivision.

    g receives one flat array of angles per call and must act elementwise:
    its value at an angle may not depend on the other angles in the call.
    It is called once for all the starting panels and once per round.

    ``seeds`` lists angles where mass, a cusp or a near-singular peak is
    expected.  The starting panels are graded geometrically toward each
    seed from both sides, by the ratio 0.15 over up to 18 levels: down to
    3e-16 next to a seed at 0, and to no less than 1e-11 times the seed's
    angle elsewhere, so that no node rounds onto it.  The first call then
    already resolves an |theta - seed|^beta cusp or a peak there.

    A panel's value is the sum of its two halves' estimates, and its error
    their gap to the whole panel's.  Each round sums all values and all
    errors exactly (``math.fsum``), and stops once the error is at most
    rel_tol times the integral.  Otherwise it splits the fewest worst
    panels whose removal leaves the others' error at most half that
    target.  A child takes its parent's half as its whole-panel estimate,
    so one call of g on the 64 nodes of each split panel's four quarter
    panels finishes the round.

    Past the round-off floor of g, where its evaluation noise outweighs
    rel_tol, splitting stops shrinking the error estimate.  The estimate is
    recorded at 1024 panels (or the start, if it has more) and at each
    doubling of the count since, and no round splits past the next record
    or the budget of 20000 panels.  Once the estimate has not halved across
    eightfold growth, QuadratureError names that floor rather than spending
    the whole budget, whose exhaustion raises it too.  A non-finite value
    of g raises QuadratureError at once.
    """
    if not (rel_tol > 0):  # a NaN fails
        raise ValueError(f"rel_tol must be positive (got {rel_tol!r})")
    seeds = [float(s) for s in seeds]
    if not all(map(math.isfinite, seeds)):
        raise ValueError(f"seeds must be finite angles (got {seeds!r})")
    lo, hi = _start_panels(seeds)
    mid = 0.5 * (lo + hi)
    # every starting panel, then its left and its right half, in one call
    ests = _panel_ests(g, np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)), math.nan)
    # one column per panel: its ends, then its estimate and its halves'
    panels = np.stack((lo, hi, *np.split(ests, 3)))
    marks, next_mark = [], _FLOOR_START
    while True:
        lo, hi, whole, left, right = panels
        halves = left + right
        err = np.abs(whole - halves)
        total, err_total = math.fsum(halves), math.fsum(err)
        target = rel_tol * max(abs(total), 1e-300)
        if err_total <= target:
            return total / _TWO_PI
        estimates = (total / _TWO_PI, (total + err_total) / _TWO_PI)
        count = len(lo)
        if count >= next_mark:
            marks.append(err_total)
            next_mark = 2 * count
            if len(marks) >= 4 and marks[-1] > 0.5 * marks[-4]:
                raise QuadratureError(
                    "error estimate stalled at the round-off floor of the integrand", estimates
                )
        if count >= _MAX_PANELS:
            raise QuadratureError("adaptive panel budget exhausted", estimates)
        # rest[i] is the error left once the i worst panels are split
        order = np.argsort(-err, kind="stable")
        rest = np.cumsum(err[order][::-1])[::-1]
        room = min(next_mark, _MAX_PANELS) - count
        split = order[:min(np.count_nonzero(rest > 0.5 * target), room)]
        a, b = lo[split], hi[split]
        mid = 0.5 * (a + b)
        # the quarter panels: the halves of the two children
        edges = (a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b)
        q0, q1, q2, q3 = np.split(
            _panel_ests(g, np.concatenate(edges[:-1]), np.concatenate(edges[1:]), total), 4
        )
        children = np.block([[a, mid], [mid, b], [left[split], right[split]], [q0, q2], [q1, q3]])
        panels = np.hstack((np.delete(panels, split, axis=1), children))


# ---------------------------------------------------------------------------
# H^p norm, 0 < p < infinity
# ---------------------------------------------------------------------------

def norm_hp(f, p: float, cfg: QuadConfig | None = None) -> float:
    """The H^p quasi-norm (mean of |f|^p on the circle)^(1/p), 0 < p < inf.

    Dyadic refinement doubles the grid, reusing previous samples, until two
    successive norm estimates agree to cfg.rel_tol relatively.  If that
    stalls, or a grid sample is not finite (a pole on the circle), an
    adaptive panel pass finishes the job, and raises QuadratureError with
    its last two estimates if it runs out of panels.  The panels take the
    mean of |f|^p to rel_tol * min(1, p), so that its 1/p-th power, the
    norm, meets rel_tol.  The mean is taken of (|f|/M)^p, with M from the
    starting grid, or from a higher peak found later, so large p neither
    under- nor overflows.

    A polynomial f(z) = g(z^m) is measured through g (see the module
    docstring); either way it is sampled once per grid whatever p and
    rel_tol, and its norm is measured once per (p, rel_tol).

    The mean of |f|^p is rounded at about 2^-52 relative, which its
    1/p-th power turns into about 2^-52 / p in the norm.  So p must be at
    least 2^-52 / min(rel_tol, 1), 2.2e-7 at the default rel_tol 1e-9;
    smaller p raise ValueError.  Against mpmath, a few norms with and
    without zeros on the circle stay within rel_tol from that floor up.
    """
    if not (0 < p < math.inf):
        raise ValueError(f"p must lie in (0, inf) (got {p})")
    cfg = cfg or QuadConfig()
    if p * min(cfg.rel_tol, 1.0) < sys.float_info.epsilon:
        raise ValueError(f"p = {p!r} is below 2^-52 / rel_tol, where rounding alone misses rel_tol")

    def measure():
        g, _, n = _measured(f)
        return _norm_hp(g, n, p, cfg.rel_tol)

    return _memoized(f, ("hp", p, cfg.rel_tol), measure)


def _measured(f) -> tuple[object, int, int]:
    """(g, m, n): what is sampled for f, with f(z) = g(z^m), and its
    starting grid size.

    For a PolyCoeffs whose nonzero coefficients sit at multiples of some
    m > 1, m their indices' gcd, g is sum_j a_{mj} w^j, kept in f's memo:
    theta -> m theta keeps the circle's measure, so ||f||_p = ||g||_p for
    every p.  g starts from 4096/m points rounded up to a power of two, but
    from no fewer than 128.  Any other f is its own g, from 4096 points.
    """
    if not isinstance(f, PolyCoeffs):
        return f, 1, _BASE_SAMPLES

    def reduce():
        m = math.gcd(*(i for i, a in enumerate(f.coeffs) if a))
        # None rather than f itself, which f's memo would keep alive
        return (PolyCoeffs(f.coeffs[::m]), m) if m > 1 else None

    g, m = _memoized(f, ("power",), reduce) or (f, 1)
    return g, m, max(_MIN_SAMPLES, _BASE_SAMPLES >> (m.bit_length() - 1))


def _finite_max(x: np.ndarray) -> float:
    """The largest finite value in x, or 0.0 if there is none."""
    big = float(x.max())
    if not math.isfinite(big):
        finite = x[np.isfinite(x)]
        big = float(finite.max()) if finite.size else 0.0
    return big


def _pow_scale(prof: np.ndarray, p: float) -> float:
    """M for the mean of (|f|/M)^p, from the starting grid's samples prof.

    M is 1 while the largest finite sample, raised to p, stays within
    _LOG_POW_MIN and _LOG_POW_MAX, so that every norm computable unscaled
    keeps its bits; elsewhere M is that sample.
    """
    big = _finite_max(prof)
    if big == 0.0 or _LOG_POW_MIN <= p * math.log(big) <= _LOG_POW_MAX:
        return 1.0
    return big


class _PowerOverflow(Exception):
    """A finite sample above M took (|f|/M)^p out of the double range."""

    def __init__(self, peak: float):
        super().__init__(peak)
        self.peak = peak


def _check_headroom(x: np.ndarray, scale: float, p: float) -> None:
    """Raise _PowerOverflow if x's largest finite value, over scale, to the
    power p leaves _LOG_POW_MAX; a non-finite mean is then the scale's."""
    peak = _finite_max(x)
    if peak > scale and p * math.log(peak / scale) > _LOG_POW_MAX:
        raise _PowerOverflow(peak)


def _norm_hp(f, n: int, p: float, rel_tol: float) -> float:
    # A later grid or a panel node can find a peak above the starting grid's
    # by (1 + delta)^p; then the measurement starts again with M that peak.
    # M grows by e^(_LOG_POW_MAX / p) at least each time, and stays below the
    # sup of |f|.  A polynomial's kept grids make the dyadic pass cheap.
    # Such a peak's power overflows before _check_headroom sees it, so numpy's
    # overflow warning is silenced here, once per measured norm.
    absf = _as_theta_evaluator(f)
    grid = _grid_sampler(f, absf)
    prof = grid(n, False)
    scale = _pow_scale(prof, p)
    while True:
        try:
            with np.errstate(over="ignore"):
                return _scaled_norm_hp(f, absf, grid, prof, p, rel_tol, scale)
        except _PowerOverflow as exc:
            scale = exc.peak


def _zero_angles(f: PolyCoeffs) -> list[float]:
    """The angles of f's zeros within 1e-3 of the circle, one per zero.

    numpy.roots splits a j-fold zero into j roots about eps^(1/j) apart, so
    roots whose angles lie within 1e-4 rad of the next are taken as one
    zero, at the angle of their mean.
    """
    r = np.roots(f.coeffs[::-1])
    r = r[np.abs(np.abs(r) - 1.0) <= 1e-3]
    if not r.size:
        return []
    ang = np.angle(r) % _TWO_PI
    order = np.argsort(ang)
    r, ang = r[order], ang[order]
    groups = np.split(r, np.flatnonzero(np.diff(ang) > 1e-4) + 1)
    if len(groups) > 1 and ang[0] + _TWO_PI - ang[-1] <= 1e-4:
        # one zero on both sides of the angle 0
        groups[0] = np.concatenate((groups.pop(), groups[0]))
    return [float(np.angle(z.mean()) % _TWO_PI) for z in groups]


def _grid_seeds(mask: np.ndarray, shift: float) -> list[float]:
    """The middle point of each run of adjacent grid points where mask
    holds, at most 64; the grid has len(mask) points, moved by ``shift``
    steps."""
    idx = np.flatnonzero(mask)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1) if idx.size else []
    return [_TWO_PI * (run[len(run) // 2] + shift) / len(mask) for run in runs[:64]]


def _stalls(diffs: list[float], left: int, tol: float) -> bool:
    """Whether the dyadic pass, whose successive differences are diffs,
    falls at an algebraic rate that the doublings left cannot take under tol.

    The last ratio r of successive differences must be below 1 and at least
    half the one before: a geometric rate squares its ratio at each doubling
    (Trefethen & Weideman, SIAM Review 2014), while a |theta|^beta cusp
    keeps it near 2^-(1 + beta).  At that r the last difference falls to
    diffs[-1] r^left after the doublings left.
    """
    d0, d1, d2 = diffs[-3:]
    r = d2 / d1 if d1 else math.inf
    r_prev = d1 / d0 if d0 else math.inf
    return 0.5 * r_prev <= r < 1.0 and d2 * r**left > tol


def _scaled_norm_hp(f, absf, grid, prof, p: float, rel_tol: float, scale: float) -> float:
    """The dyadic pass, then the panels, on (|f|/scale)^p; prof is the
    starting grid's |f|."""
    def power(x):
        return (x / scale) ** p

    def root(mean: float) -> float:
        return scale * mean ** (1.0 / p) if mean > 0 else 0.0

    n = len(prof)
    samples = prof
    powers = power(prof)
    mean = float(np.mean(powers))
    prev = root(mean)
    diffs = []
    for left in range(_MAX_REFINEMENTS - 1, -1, -1):
        if not math.isfinite(mean):
            break
        samples = grid(n, True)
        mean = 0.5 * (mean + float(np.mean(power(samples))))
        n *= 2
        cur = root(mean)
        # two estimates of 0 do not agree: at small p a zero of f on a grid
        # point takes 1/n off the mean, and both roots can underflow
        if 0 < cur and abs(cur - prev) <= rel_tol * max(cur, 1e-300) and math.isfinite(mean):
            return cur
        if not diffs:
            # the starting grid's 1/4 and 1/2 subgrids, from its powers
            quarter, half = (root(float(np.mean(powers[::step]))) for step in (4, 2))
            diffs = [abs(half - quarter), abs(prev - half)]
        diffs.append(abs(cur - prev))
        if _stalls(diffs, left, rel_tol * cur):
            break
        prev = cur

    if math.isfinite(mean):
        # refinement stalled: cusp or sharp peak; seed the panels at the
        # zeros near the circle and at the starting grid's highest sample
        if isinstance(f, PolyCoeffs):
            seeds = _zero_angles(f)
        else:
            seeds = _grid_seeds(prof < 1e-6 * max(prof.max(), 1e-300), 0.0)
        seeds.append(_TWO_PI * int(np.argmax(prof)) / len(prof))
    else:
        _check_headroom(samples, scale, p)
        # the last grid met a pole or a NaN, which no trapezoid sum can use;
        # seed the panels there, where no Gauss-Legendre node lands
        seeds = _grid_seeds(~np.isfinite(samples), 0.0 if samples is prof else 0.5)

    # the panels stop at the first non-finite estimate: keep the |f| of the
    # last call, to tell an overflow from a pole
    last = [prof]

    def g(theta):
        last[0] = absf(theta)
        return power(last[0])

    try:
        return root(circle_mean(g, rel_tol * min(1.0, p), seeds=seeds))
    except QuadratureError:
        _check_headroom(last[0], scale, p)
        raise


def norm_hinf(f, return_witness: bool = False):
    """The boundary sup-norm: grid maximum plus golden-section polish.

    With return_witness=True the attained angle is returned alongside the
    norm value.  A polynomial's pair is measured once; for f(z) = g(z^m)
    it is g's sup and g's angle over m, one of the m angles where |f|
    attains it.
    """
    def measure():
        g, m, n = _measured(f)
        best, theta = _norm_hinf(g, n)
        return best, theta / m

    best, best_theta = _memoized(f, ("hinf",), measure)
    if return_witness:
        return best, best_theta
    return best


def _norm_hinf(f, n: int) -> tuple[float, float]:
    absf = _as_theta_evaluator(f)
    one = _point_sampler(f, absf)
    vals = _grid_sampler(f, absf)(n, False)
    m = int(np.argmax(vals))
    h = _TWO_PI / n
    theta_m = _TWO_PI * m / n

    # golden-section maximization on [theta_m - h, theta_m + h], to a 1e-8
    # bracket: |f| is flat to second order at its maximum, so closer than
    # that the two compared values differ by rounding only
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta_m - h, theta_m + h
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = one(c), one(d)
    while b - a > 1e-8:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = one(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = one(d)
    best_theta = 0.5 * (a + b)
    return max(float(vals[m]), one(best_theta)), best_theta % _TWO_PI


def parseval_norm(c: PolyCoeffs) -> float:
    """The exact H^2 norm of a polynomial: sqrt(sum |a_n|^2).

    ``math.hypot`` of the real and imaginary parts scales them, so the norm
    neither underflows nor overflows on the way; a norm past the largest
    double raises ValueError.
    """
    if not isinstance(c, PolyCoeffs):
        c = PolyCoeffs(tuple(c))
    norm = math.hypot(*(x for a in c.coeffs for x in (a.real, a.imag)))
    if norm == math.inf:
        raise ValueError("the H^2 norm exceeds the largest double")
    return norm
