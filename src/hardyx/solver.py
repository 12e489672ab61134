"""Direct search for the k-th coefficient extremum over structured candidates.

The search space is the product family of fn_repr.StructuredExtremal: l
Blaschke zeros and k outer-type factors sharing the parameter tuple
(lam_1, ..., lam_k) in the closed polydisc.  Two identities make the inner
loop exact and quadrature-free:

* on the circle |f|^p = |C|^p prod_j |1 - conj(lam_j) z|^2, so the H^p
  quasi-norm is the coefficient sum of one degree-k polynomial, for every
  0 < p < infinity;
* the Taylor coefficients of the unscaled product through degree k follow
  from truncated series multiplication, with no aliasing.

The scale C is eliminated: ||f|| = 1 and f(0) > 0 pin
C = conj(g0) / (|g0| ||g||), leaving the smooth objective
J = Re(conj(g0) a_k) / (|g0| ||g||) under the scalar constraint
t_hat = |g0| / ||g|| = t.  The search reads that problem as f = -J and
c = t_hat - t (_objective_batch): the explore descends f + _PENALTY |c|,
and the polish minimizes f subject to c = 0.  The constraint is then met
exactly, not to a tolerance: each end moves along its ray lam = rho mu to
the root of t_hat = t beside it (_rays).  There ||g|| = |g0| / t, so
J = t Re(a_k / g0) forms no norm, and the answer is t g / g0.  One test,
that the ray has a root with every |lam_j| <= 1 (_candidates), admits
the polish's ends and the closed-form rays alike.

The same identities bound the values t_hat takes at a given zero count.
With c the coefficients of prod_j (1 - conj(lam_j) z), ||g||^p = sum |c_n|^2
and |g0| = prod_{j<l} |lam_j|.  At l = k, c_0 = 1 and |c_k| = |g0| = P, so
t_hat <= P (1+P^2)^{-1/p} <= T(p), the top of the k = 1 alpha branch (alpha2
for p < 1, 1 for p >= 1); the k = 1 extremal lifted through z -> z^k
attains it.  At l = 0, |g0| = 1 and |c_n| <= C(k, n), so
t_hat >= C(2k, k)^{-1/p}, attained at lam_j = 1.  At l = 1, with
r = |lam_1| and q = prod_j (1 - conj(lam_j) z), t_hat = r / ||q||_2^{2/p}.
q has degree at most k, q(0) = 1 and q(1/conj(lam_1)) = 0; the reproducing
kernel sum_{n<=k} (z conj(w))^n of those polynomials (Aronszajn, Theory of
reproducing kernels, 1950) gives min ||q||_2^2 = S_k(r)/S_{k-1}(r), with
S_n(r) = sum_{j<=n} r^{2j}.  So t_hat <= U_1(k, p), the sup over r in (0, 1]
of r (S_{k-1}(r)/S_k(r))^{1/p} (closed_form._one_zero_top), which is
(k/(k+1))^{1/p} for p >= 1; lam_j = 1/conj(root_j) over the roots of the
minimal interpolant at the maximizing r attains it.  At p = infinity,
where ||g|| = 1, these read t_hat <= 1 at l = k and l = 1, and t_hat >= 1
at l = 0, where g = 1.  A zero count whose range excludes t is skipped
before any search.  Above l = 0's floor, for finite p and 0 < t < 1, the
family's own ray mu_j = -1, g = (1 + a z)^{2k/p}, meets t at the root a
in (0, 1] of t^p sum_n C(k, n)^2 a^{2n} = 1; it joins l = 0's candidates
as the polish's ends do, without a search, so l = 0 has a feasible point
wherever t is at or above its floor.  The lifted k = 1 extremals join
their counts' candidates in the same way.

Simplex descent on an exact penalty explores every zero count of a solve
at once: one Nelder-Mead advances the starts of all counts with the same
free dimension (every count for finite p) in lockstep, following scipy's
rules for each start, and evaluates the penalty in one complex array pass,
each row with its own zero count (_series_batch).  That pass is the
search's only evaluation of the series: it agrees with a 30-digit
evaluation to 1e-13 of the terms' size, and no row's result depends on
the other rows.  So one pass per step holds the
reflection and all three second trials of every start, and each start
takes the values scipy would evaluate, to the bit.  Each start has 10
penalty evaluations per free coordinate (_EXPLORE_FEV_PER_DIM), enough to
pick its basin: near the feasible set the penalty has a kink along
t_hat = t, which a simplex follows only slowly, and the polish does that
constrained descent on exact gradients.  At tiny p (below about 0.03)
with few starts the basin each start picks varies with the budget, and
the in-family ray keeps l = 0 from ending with no feasible point.  One
sequential quadratic programming polish then enforces the constraint on
the leaders of every count of the population in lockstep, each iteration
evaluating the objective, t_hat and their exact gradients for all of its
rows, and at every row moved by 1e-6 along each coordinate, in one pass of
the same kernel; the series are finite in lam and conj(lam), so the
derivatives are too (_series_batch, _objective_batch).  The moved rows'
gradients difference into the Hessian of the Lagrangian, whose
eigenvalues, replaced by their moduli, make a modified Newton matrix; its
one eigendecomposition gives the step and the multiplier
(_newton_parts, _newton_step).  Its line search is at most two passes: the
full step, then every halving of the rows that step fails, all fixed by
then.  Each end then moves onto t_hat = t along its ray, by a few Newton
steps on rho alone from the series formed once at the end (_rays).  The
winner is the smallest zero count with a candidate that ties
with the top, within _TIE_TOL min(1, |top|) of it, and cluster_count
counts the distinct configurations among the candidates that tie by the
same rule.  The value returned is the winner's series Re a_k.  One
256-point Cauchy integral of the built function checks it, on the circle
|z| = r of 1/2, ..., 1/32 where its round-off is least (_coeff_inside),
and hardy_norm re-measures its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _branch_top, _one_zero_top, phi1, solve_alpha, solve_beta
from .fn_repr import (_UNIT_TOL, EvaluationError, StructuredExtremal, _is_int,
                      sample_boundary, taylor_coeff)
from .hardy_norm import _chain_sum, norm_hinf, norm_hp

__all__ = [
    "SolverError",
    "SolveConfig",
    "ExtremalSolution",
    "SandwichReport",
    "maximize_phik",
    "sandwich_check",
    "t0_scan",
]

_PENALTY = 10.0
# a candidate ties with the top value J where it lies within
# _TIE_TOL min(1, |J|) of it (_ties)
_TIE_TOL = 1e-9
_CLUSTER_DIST_TOL = 1e-3
# the polish's convergence tolerance on the change of the objective and on
# |t_hat - t|, SLSQP's ftol in the polish this replaced
_POLISH_FTOL = 1e-10
# the largest gap allowed between the series Re a_k and the Cauchy integral's,
# relative to max(1, |Re a_k|)
_AGREE_TOL = 1e-8
# t0_scan's grid t = j / _T0_GRID, and the largest gap to phi1 it takes as
# collapsed
_T0_GRID = 256
_T0_TOL = 1e-6


# no solve calls this: it is kept because perfbench/tracing.py patches it
def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class SolverError(RuntimeError):
    """Optimization failed to converge or to pass its consistency checks."""


@dataclass(frozen=True)
class SolveConfig:
    k: int
    p: float
    t: float
    l_range: tuple[int, ...] | None = None
    starts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer (got {value!r})")
            if value < low:
                raise ValueError(f"{name} must be >= {low} (got {value})")
        if not (self.p > 0):
            raise ValueError(f"p must be positive (got {self.p})")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0, 1] (got {self.t})")
        ls = self.l_range
        if ls is None:
            ls = tuple(range(self.k + 1))
        else:
            try:
                ls = tuple(ls)
            except TypeError:
                raise ValueError(f"l_range must be a sequence of integers (got {ls!r})") from None
            for l in ls:
                if not _is_int(l):
                    raise ValueError(f"l_range entries must be integers (got {l!r})")
            ls = tuple(sorted(set(int(l) for l in ls)))
            if not ls:
                raise ValueError("l_range must be non-empty")
            if ls[0] < 0 or ls[-1] > self.k:
                raise ValueError(f"l_range {ls} outside 0..{self.k}")
        object.__setattr__(self, "l_range", ls)


@dataclass(frozen=True)
class ExtremalSolution:
    """The answer of ``maximize_phik``.

    ``best`` is t g / g(0) for the winner g, a root of t_hat =
    |g(0)| / ||g|| = t on its ray, so that best(0) = t and its norm is 1;
    at t = 0 it is g / ||g||, turned by a constant phase so that its
    a_k >= 0.  ``value`` is the series Re a_k of ``best``.
    ``norm_residual`` is | ||best|| - 1 | by quadrature, and ``t_residual``
    is |best(0) - t|.
    """

    value: float
    best: StructuredExtremal
    l_used: int
    norm_residual: float
    t_residual: float
    cluster_count: int
    per_l_values: dict

    def __post_init__(self):
        # a NaN fails each test
        if not (self.norm_residual < 1e-7):
            raise SolverError(f"norm residual {self.norm_residual} is not below 1e-7")
        if not (self.t_residual < 1e-9):
            raise SolverError(f"t residual {self.t_residual} is not below 1e-9")
        if not (self.value >= 0):
            raise SolverError(f"extremal value {self.value} is not >= 0")


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    upper: float
    solved: float
    l_used: int


# ---------------------------------------------------------------------------
# exact series arithmetic
# ---------------------------------------------------------------------------

def _terms(p: float, lams: np.ndarray, l):
    """(num, E, c): the coefficients through degree k, per row of lams (n, k).

    num is the numerator prod_{j<l} (lam_j - z), an array (k + 1, n); E the
    list of the k + 1 coefficients of exp(sum_m A_m z^m) (module docstring
    of _series_batch); c the coefficients (k + 1, n) of
    prod_j (1 - conj(lam_j) z), or None at p = inf.  Every operation is
    elementwise over the rows.
    """
    n, k = lams.shape
    lam = lams.T
    w = lam.conj()
    zeros = np.arange(k)[:, None] < l  # slot j of a row carries a Blaschke zero
    num = np.zeros((k + 1, n), dtype=complex)
    num[0] = 1.0
    for j in range(int(np.asarray(l).max())):
        times = lam[j] * num
        times[1:] -= num[:-1]
        num = np.where(zeros[j], times, num)
    weight = zeros - 2.0 / p
    P = [_chain_sum(weight * w)]
    power = w
    for _ in range(1, k):
        power = power * w
        P.append(_chain_sum(weight * power))
    E = [1.0]
    for d in range(1, k + 1):
        E.append(_chain_sum([P[d - 1], *(P[m - 1] * E[d - m] for m in range(1, d))]) / d)
    if math.isinf(p):
        return num, E, None
    c = np.zeros((k + 1, n), dtype=complex)
    c[0] = 1.0
    for j in range(k):
        c[1:j + 2] -= w[j] * c[:j + 1]
    return num, E, c

def _series_batch(p: float, lams: np.ndarray, l, grad: bool = False):
    """(g0, a_k, ||g||) of the unscaled product with l zeros, per row of lams (n, k).

    l is the zero count of every row, or an array of one count per row.
    With w = conj(lam) and e = 2/p (0 at p = inf, where ||g|| = 1), g is
    the numerator prod_{j<l} (lam_j - z) times exp(sum_m A_m z^m), with
    m A_m = P_m = sum_{j<l} w_j^m - e sum_{j<k} w_j^m: each Blaschke
    denominator and outer factor is a power of (1 - w_j z).  The
    exponential's coefficients follow from E_0 = 1 and
    E_d = (1/d) sum_{m<=d} P_m E_{d-m} (_terms).  ||g||^p is sum |c_n|^2
    over the coefficients of prod_j (1 - w_j z), and reads inf where its
    p-th root passes the largest double.

    With grad, a fourth item holds the derivatives in each slot j, arrays
    of shape (k, n): d g0/d lam_j, d a_k/d lam_j, d a_k/d w_j and
    d log||g||/d w_j.  g0 and a_k are holomorphic in lam through the
    numerator and in w through E = prod_j (1 - w_j z)^-weight_j, with
    weight_j = [j < l] - e, and ||g|| depends on w alone.  The numerator
    over (lam_j - z) and c over (1 - w_j z) come by synthetic division,
    from the top and from the bottom, both stable for |lam_j| <= 1; the
    coefficients of d E/d w_j = weight_j z E/(1 - w_j z) follow
    F_d = weight_j E_{d-1} + w_j F_{d-1}; and d (sum |c_n|^2)/d w_j is
    sum_n conj(c_n) d c_n/d w_j.

    Every operation is elementwise over the rows, and each sum over slots
    or degrees is a _chain_sum, so a row's result does not depend on the
    other rows or their counts.  It agrees with a 30-digit
    evaluation of the truncated product to 1e-13 of the majorant series,
    the product with every term replaced by its modulus.
    """
    n, k = lams.shape
    num, E, c = _terms(p, lams, l)
    ak = _chain_sum([num[k], *(num[i] * E[k - i] for i in range(k))])
    if grad:
        lam = lams.T
        w = lam.conj()
        zeros = np.arange(k)[:, None] < l
        weight = zeros - 2.0 / p
        # slot j's numerator without its factor (0 where j carries no zero),
        # and the coefficients of d E/d w_j, each of shape (k, n) per degree
        quot = np.zeros((k + 1, k, n), dtype=complex)
        for d in range(k, 0, -1):
            quot[d - 1] = lam * quot[d] - num[d]
        quot = np.where(zeros, quot, 0)
        F = [0.0]
        for d in range(1, k + 1):
            F.append(weight * E[d - 1] + w * F[d - 1])
        dak_dlam = _chain_sum([quot[k], *(quot[i] * E[k - i] for i in range(k))])
        dak_dw = _chain_sum(num[i] * F[k - i] for i in range(k))
        derivs = [quot[0], dak_dlam, dak_dw]
    if c is None:
        return (num[0], ak, np.ones(n)) + ((derivs + [np.zeros((k, n), dtype=complex)],) if grad else ())
    total = _chain_sum(c.real * c.real + c.imag * c.imag)
    with np.errstate(over="ignore"):
        nrm = np.exp(np.log(total) / p)
    if not grad:
        return num[0], ak, nrm
    # d c_d/d w_j = -q_{d-1}, with q = c/(1 - w_j z)
    q = [np.ones((k, n), dtype=complex)]
    for d in range(2, k + 1):
        q.append(c[d - 1] + w * q[-1])
    cc = c.conj()
    dS = _chain_sum(cc[d] * q[d - 1] for d in range(1, k + 1))
    return num[0], ak, nrm, derivs + [-dS / (p * total)]


# ---------------------------------------------------------------------------
# lockstep Nelder-Mead
# ---------------------------------------------------------------------------

# scipy's Nelder-Mead: the reflection, expansion, outside and inside
# contraction a xbar + c worst (scipy's a xbar - |c| worst, the same double:
# a - b == a + (-b)), the shrink coefficient and the initial-simplex steps
_NM_TRIAL_A = np.array([2, 3, 1.5, 0.5])[:, None, None]
_NM_TRIAL_C = np.array([-1, -2, -0.5, 0.5])[:, None, None]
_NM_SIGMA, _NM_NONZDELT, _NM_ZDELT = 0.5, 0.05, 0.00025
# the explore's stopping test, scipy's xatol and fatol: every vertex within
# _NM_XATOL of the best in each coordinate, and its value within _NM_FATOL
_NM_XATOL, _NM_FATOL = 1e-4, 1e-8
# the explore's evaluations per start and free coordinate: enough to pick a
# start's basin, which the polish finishes (module docstring)
_EXPLORE_FEV_PER_DIM = 10

def _nm_sort(sim, fsim, pos):
    # np.argsort's default kind, as in scipy: it is not stable on every
    # platform, and tied vertices must fall the same way.  Vertex j of the
    # start at position i sits at j m + i of sim and fsim flattened
    at = fsim.T.argsort(axis=1).T * len(pos) + pos
    return sim.reshape(-1, sim.shape[2]).take(at, axis=0), fsim.take(at)

def _nm_centroid(sim):
    # scipy's np.add.reduce(sim[:-1], 0) / N, which adds from 0.0 (so that
    # -0.0 vertices give +0.0), then vertex by vertex
    return _chain_sum([0.0, *sim[:-1]]) / (len(sim) - 1)

def _nelder_mead_lockstep(fun, x0s: np.ndarray, maxfev: int):
    """Nelder-Mead from every row of x0s at once; returns arrays x, fun, nfev.

    fun maps an (m, dim) array of points, and the index of the start each
    belongs to, onto their m values.  Each start follows
    scipy.optimize.minimize(method="Nelder-Mead") with xatol = _NM_XATOL,
    fatol = _NM_FATOL and the same maxfev (> dim): the same initial simplex,
    coefficients, sorts and stopping test, and an expansion, contraction or
    shrink cut off where the start runs out of evaluations.  So each row of
    the result is what scipy returns for that start alone, where no value of
    fun depends on the other points of its call: fun is called once for the
    initial simplices, once per step on the reflection and all three second
    trials of every start, and once per step in which a start shrinks, and
    nfev counts only the points scipy evaluates.
    """
    n, N = x0s.shape
    # vertex j of the start at position i is sim[j, i], its value fsim[j, i]
    sim = np.repeat(x0s[None], N + 1, axis=0)
    for j in range(N):
        y = x0s[:, j]
        sim[j + 1, :, j] = np.where(y != 0, (1 + _NM_NONZDELT) * y, _NM_ZDELT)
    rows = np.arange(n)  # the starts still running, in population order
    fsim = fun(sim.reshape(-1, N), np.tile(rows, N + 1)).reshape(N + 1, n)
    # scipy sorts twice before its first step; with an unstable sort the
    # second pass can reorder ties
    pos = rows  # each live start's position, kept until one finishes
    sim, fsim = _nm_sort(*_nm_sort(sim, fsim, pos), pos)
    nfev = np.full(n, N + 1)

    x_out, f_out, nfev_out = np.empty((n, N)), np.empty(n), np.empty(n, dtype=int)
    rows4 = np.tile(rows, 4)  # each trial's start
    while rows.size:
        done = nfev >= maxfev
        # the vertex spread only where the values pass: nearly every start
        # runs to its cap.  fsim is sorted, so its spread max_j |f_0 - f_j|
        # is f_N - f_0, NaN and inf alike
        flat = ~done & (fsim[-1] - fsim[0] <= _NM_FATOL)
        if flat.any():
            done[flat] = np.abs(sim[1:, flat] - sim[:1, flat]).max(axis=(0, 2)) <= _NM_XATOL
        if done.any():
            x_out[rows[done]] = sim[0, done]
            f_out[rows[done]] = fsim.T[done].min(axis=1)
            nfev_out[rows[done]] = nfev[done]
            live = ~done
            rows, sim, fsim, nfev = rows[live], sim[:, live], fsim[:, live], nfev[live]
            if not rows.size:
                break
            rows4, pos = np.tile(rows, 4), np.arange(rows.size)

        xbar = _nm_centroid(sim)
        # trial i of every start, then trial i + 1
        trial = _NM_TRIAL_A * xbar + _NM_TRIAL_C * sim[-1]
        ftrial = fun(trial.reshape(-1, N), rows4).reshape(4, -1)
        fxr = ftrial[0]
        nfev += 1
        expand = fxr < fsim[0]
        no_expand = ~expand
        reflect = no_expand & (fxr < fsim[-2])
        outside = no_expand & ~reflect & (fxr < fsim[-1])
        # scipy's second trial: the expansion, outside or inside contraction
        second = 3 - 2 * expand - outside
        f2 = ftrial[second, pos]
        tried = ~reflect & (nfev < maxfev)  # while the start has evaluations left
        nfev += tried
        # expand and outside exclude each other
        better = np.where(outside, f2 <= fxr, f2 < np.where(expand, fxr, fsim[-1]))
        take_2 = tried & better
        shrink = tried & no_expand & ~better
        swap = (take_2 | reflect | (tried & expand)).nonzero()[0]
        pick = np.where(take_2, second, 0)[swap]
        sim[-1, swap], fsim[-1, swap] = trial[pick, swap], ftrial[pick, swap]

        if shrink.any():
            s = shrink.nonzero()[0]
            ssim, sf = sim[:, s], fsim[:, s]
            moved = ssim[:1] + _NM_SIGMA * (ssim[1:] - ssim[:1])
            # scipy moves vertex j, then evaluates it; the vertex at which a
            # start runs out is moved but keeps its old value
            room = (maxfev - nfev[s]) - np.arange(1, N + 1)[:, None]
            evaluated, relocated = room >= 0, room >= -1
            ssim[1:][relocated] = moved[relocated]
            if evaluated.any():
                sf[1:][evaluated] = fun(moved[evaluated], rows[s][evaluated.nonzero()[1]])
            sim[:, s], fsim[:, s] = ssim, sf
            nfev[s] += evaluated.sum(axis=0)

        sim, fsim = _nm_sort(sim, fsim, pos)
    return x_out, f_out, nfev_out


# ---------------------------------------------------------------------------
# lockstep SQP
# ---------------------------------------------------------------------------

# the sufficient-decrease fraction of the polish's line search and its most
# step halvings, enough where the Newton step's scale is far off (tiny p)
_LS_ETA, _LS_CUTS = 1e-4, 30
# the trials of a row that the full step fails, in order: cut j tries the arc
# at alpha = 2^(1-j) (bend 1), then the line at alpha = 2^-j (bend 0)
_LS_BEND = np.tile([1, 0], _LS_CUTS)
_LS_ALPHA = np.ldexp(1.0, _LS_BEND - np.repeat(np.arange(1, _LS_CUTS + 1), 2))
# the forward-difference step of the polish's Hessian, and the largest step
# in any coordinate of a row that converges
_HESS_STEP, _POLISH_XTOL = 1e-6, 1e-6
_EPS = np.finfo(float).eps

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] b[..., j], by _chain_sum: each row's as if alone."""
    prod = a * b
    return _chain_sum(prod[..., j] for j in range(prod.shape[-1]))

def _newton_parts(fun, x: np.ndarray, rows: np.ndarray):
    """f, c, grad f, grad c at the rows of x, and the Hessian of the Lagrangian.

    One call of fun takes x and every x + h e_j, h = _HESS_STEP.  The
    gradients of f + mult c, with mult the least-squares multiplier
    -(grad c . grad f) / |grad c|^2 at x (0 where grad c vanishes, as it
    does at t = 0), are differenced over the step each coordinate takes
    in rounding, and the difference quotient is symmetrized.
    """
    m, dim = x.shape
    shifted = x + _HESS_STEP * np.eye(dim)[:, None, :]  # x + h e_j, j first
    f, c, gf, gc = fun(np.concatenate((x, shifted.reshape(-1, dim))), np.tile(rows, dim + 1),
                       grad=True)
    gf0, gc0 = gf[:m], gc[:m]
    gg = _dot(gc0, gc0)
    mult = -np.divide(_dot(gc0, gf0), gg, out=np.zeros(m), where=gg > 0)
    gL = (gf + np.tile(mult, dim + 1)[:, None] * gc).reshape(dim + 1, m, dim)
    # row i's column j: (grad L(x + h e_j) - grad L(x)) / ((x_j + h) - x_j),
    # not finite where a gradient is not or x_j + h rounds to x_j
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        H = ((gL[1:] - gL[0]) / ((x + _HESS_STEP) - x).T[:, :, None]).transpose(1, 2, 0)
    return f[:m], c[:m], gf0, gc0, 0.5 * (H + H.transpose(0, 2, 1))

def _newton_step(H: np.ndarray, gf: np.ndarray, gc: np.ndarray, c: np.ndarray):
    """(step, multiplier, step . B step): each row's minimum of
    gf . s + s . B s / 2 subject to c + gc . s = 0.

    B is the row's H with its eigenvalues replaced by their moduli, floored
    at max(1e-6 max|eig|, 1e-10) (Nocedal & Wright, section 3.4).  From
    B = V diag(d) V^T, B^-1 v = V((V^T v) / d) gives the range-space step of
    their section 16.2: multiplier (c - gc . B^-1 gf) / (gc . B^-1 gc), 0
    where gc = 0, and step -B^-1 (gf + multiplier gc).  Each row's is as if
    alone: np.linalg.eigh factors each matrix alone, _dot sums by _chain_sum.
    """
    eig, V = np.linalg.eigh(H)
    size = np.abs(eig)
    d = np.maximum(size, np.maximum(1e-6 * size.max(axis=1), 1e-10)[:, None])
    Vt = V.transpose(0, 2, 1)
    Bf, Bc = (_dot(V, (_dot(Vt, v[:, None, :]) / d)[:, None, :]) for v in (gf, gc))
    curv = _dot(gc, Bc)
    mult = np.divide(c - _dot(gc, Bf), curv, out=np.zeros(len(c)), where=curv != 0)
    step = -(Bf + mult[:, None] * Bc)
    return step, mult, _dot(d, _dot(Vt, step[:, None, :]) ** 2)

def _sqp_lockstep(fun, x0s: np.ndarray):
    """min f subject to c = 0 from every row of x0s at once; returns x, f, c, converged.

    fun maps an (m, dim) array of points, and the index of the start each
    belongs to, onto f and c, and with grad=True also onto their gradients,
    each of shape (m, dim).  Each start follows Nocedal & Wright,
    Numerical Optimization, Algorithm 18.3, with a modified Newton matrix:
    * the step and multiplier solve the KKT system with B the Hessian of
      the Lagrangian at the least-squares multiplier, by differences of
      exact gradients (_newton_parts), its eigenvalues replaced by their
      moduli, floored (_newton_step), so that every step descends; at
      t = 0, where fun gives c and grad c as 0, that is -B^-1 grad f;
    * the merit is f + mu |c|, with mu at least their (18.36) bound at
      rho = 1/2, so that the step descends, and otherwise Powell's
      max(|multiplier|, mean of the last mu and |multiplier|), which
      SLSQP uses and which lets mu fall again;
    * the line search backtracks by halves, _LS_CUTS times, to sufficient
      decrease; where the full step fails, its second-order correction
      back onto the constraint along a bends the search to the arc
      x + alpha step + alpha^2 correction (their remedy for the Maratos
      effect), and each cut tries the arc and then the line, whose
      correction can be far off where the full step is long.  That is two
      calls: the full step, then one table of every cut of the rows it
      fails, all fixed by the full step's c.
    A start converges on SLSQP's test, |f change| < _POLISH_FTOL and
    |c| < _POLISH_FTOL, with a step below _POLISH_XTOL in every coordinate
    or one along which the merit's slope lies within its rounding: at the
    quartic-flat top of t = 0, f settles long before x, while on a top
    flat to rounding, such as p = 1's plateau, x would crawl on.  It stops
    unconverged after 200 steps (SLSQP's maxiter in the polish this
    replaced), where its line search fails, or where grad c vanishes but c
    does not (SLSQP's status 8 and 7).  Every operation is elementwise over
    the starts, so each row is what it would be alone where no value of fun
    depends on the other points of its call.
    """
    n, dim = x0s.shape
    rows = np.arange(n)  # the starts still running
    x = x0s.copy()
    f, c, gf, gc, H = _newton_parts(fun, x, rows)
    x_out, f_out, c_out, conv_out = x.copy(), f.copy(), c.copy(), np.zeros(n, dtype=bool)
    mu = np.zeros(n)
    for _ in range(200):
        # a row stops where its Hessian is not finite: a gradient overflowed,
        # or x ran so far that x_j + h rounds to x_j.  It stops where no step
        # of a radian moves c by a rounding unit of t_hat <= 1 and c is not 0
        # (never at t = 0): the |g0| guard, an overflowed norm, and points
        # where t_hat underflows
        gg = _dot(gc, gc)
        out = ~np.isfinite(H).all(axis=(1, 2)) | (~(gg > _EPS * _EPS) & (c != 0))
        if out.any():
            x_out[rows[out]], f_out[rows[out]], c_out[rows[out]] = x[out], f[out], c[out]
            keep = ~out
            rows, x, f, c, gf, gc, H, gg, mu = (v[keep] for v in (rows, x, f, c, gf, gc, H, gg, mu))
        m = rows.size
        if not m:
            break
        step, mult, sBs = _newton_step(H, gf, gc, c)
        size, slope, viol = np.abs(mult), _dot(gf, step), np.abs(c)
        need = np.divide(slope + 0.5 * np.maximum(sBs, 0.0), 0.5 * viol,
                         out=np.zeros(m), where=viol > 0)
        mu = np.maximum(need, np.maximum(size, 0.5 * (mu + size)))
        merit, descent = f + mu * viol, slope - mu * viol
        slack = 4 * _EPS * np.abs(merit)

        def passes(ft, ct, at, a):
            # sufficient decrease of the merit at alpha = a for rows at; a
            # change within the rounding of the merit counts as none
            return ft + mu[at] * np.abs(ct) - merit[at] <= _LS_ETA * a * descent[at] + slack[at]

        # the full step: the arc below at alpha = 1 with no correction, whose
        # + 1^2 0 turns a -0.0 into +0.0
        x_new = x + step + 0.0
        f_new, ct = fun(x_new, rows)
        moved = passes(f_new, ct, slice(None), 1.0)
        c_new = np.where(moved, ct, c)
        f_new = np.where(moved, f_new, f)
        x_new = np.where(moved[:, None], x_new, x)
        # the full step's c fixes every trial of the rows it fails: a table
        # of failing rows by trials, each row taking its first that passes.
        # The correction is +0.0 where grad c vanishes: each arc at t = 0
        # repeats the line before it
        fail = (~moved).nonzero()[0]
        if fail.size:
            live = (gg[fail] > 0)[:, None]
            ratio = np.divide(ct[fail, None], gg[fail, None], out=np.zeros((fail.size, 1)), where=live)
            corr = np.where(live, -gc[fail] * ratio, 0.0)
            xt = (x[fail, None] + _LS_ALPHA[:, None] * step[fail, None]
                  + (_LS_BEND * _LS_ALPHA * _LS_ALPHA)[:, None] * corr[:, None])
            ft, ct = (v.reshape(fail.size, -1)
                      for v in fun(xt.reshape(-1, dim), np.repeat(rows[fail], _LS_ALPHA.size)))
            ok = passes(ft, ct, fail[:, None], _LS_ALPHA)
            hit = ok.any(axis=1)
            won, first = fail[hit], ok.argmax(axis=1)[hit]
            x_new[won], f_new[won], c_new[won] = xt[hit, first], ft[hit, first], ct[hit, first]
            moved[won] = True

        conv = (moved & (np.abs(f_new - f) < _POLISH_FTOL) & (np.abs(c_new) < _POLISH_FTOL)
                & ((np.abs(x_new - x).max(axis=1) < _POLISH_XTOL) | (-descent <= slack)))
        stop = ~moved | conv
        if stop.any():
            x_out[rows[stop]], f_out[rows[stop]], c_out[rows[stop]] = x_new[stop], f_new[stop], c_new[stop]
            conv_out[rows[stop]] = conv[stop]
            keep = ~stop
            rows, x_new, mu = rows[keep], x_new[keep], mu[keep]
            if not rows.size:
                return x_out, f_out, c_out, conv_out
        f, c, gf, gc, H = _newton_parts(fun, x_new, rows)
        x = x_new
    x_out[rows], f_out[rows], c_out[rows] = x, f, c
    return x_out, f_out, c_out, conv_out


# ---------------------------------------------------------------------------
# rays: f(0) = t exactly
# ---------------------------------------------------------------------------

# the Newton steps a ray's root may take; from a start beside it, it needs
# one or two (_ray_roots)
_ROOT_STEPS = 60
# how far past the wall |lam_j| <= 1 a root may lie in s = log rho^2, as a
# share of 1 - t, and count as on it: a polish end on the wall meets t to
# about 1e-13 of it, and its root, as far away, may fall on either side.
# Near t = 1 the defects 1 - |lam_j|^2 are O(1 - t), so the share keeps
# them from going negative by more than that share; _build_best puts such
# a lambda back on the circle
_WALL_TOL = 1e-12

def _ray_roots(p: float, t: float, l: np.ndarray, a: np.ndarray, P: np.ndarray):
    """(s, ok) per row: s = log rho^2 at a root of t_hat(rho mu) = t for
    finite p, found from s = 0, the row's own lambdas; ok where the search
    meets one.

    With u = e^s the series of a row reads ||g||^p = S(u) = 1 + Q(u),
    Q(u) = sum_{n>=1} a_n u^n, and |g0| = rho^l P (module docstring), so
    the root solves F(s) = 0 for a concave F:
    * l = 0: F = log D - log Q(e^s), D = expm1(-p log t), decreasing, with
      one root;
    * l >= 1: F = (lp/2) s + p log(P/t) - log1p(Q(e^s)), with at most two
      roots, one on each side of F's top; the search finds the one to which
      F's slope at 0 points.
    From the root's outer side, where F < 0, a Newton step stays on that
    side, and from between the root and F's top it lands there.  Near the
    top, where the two roots nearly meet and Newton's steps only halve the
    distance, a step to the root of F's quadratic model takes over from
    the outer side: it is taken where it lands short of the top, and
    otherwise the Newton step.  A Newton step from the outer side that
    turns back shows that F has no root there.  Every operation is
    elementwise over the rows.
    """
    lt = math.log(t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logP = np.log(P)
        k = len(a) - 1
        outer = l == 0
        # log D = log(e^x - 1), x = -p log t, without overflow
        logD = -p * lt + math.log(-math.expm1(p * lt))
        h = 0.5 * l * p
        c = np.where(outer, logD, p * (logP - lt))
        degree = np.arange(1, k + 1)[:, None]

        def F(s, at):
            # F, F' and F'' at s for the rows at: with the terms a_n u^n,
            # F' = h - mean and F'' = -variance of n under the weights S,
            # and F's rounding, a few units of its terms' size
            terms = a[1:, at] * np.exp(degree * s)
            Q, M, V = _chain_sum(terms), _chain_sum(degree * terms), _chain_sum(degree ** 2 * terms)
            o = outer[at]
            S = np.where(o, Q, 1.0 + Q)
            mean = M / S
            slope, log_S = h[at] * s, np.where(o, np.log(Q), np.log1p(Q))
            return (slope + c[at] - log_S, h[at] - mean, mean * mean - V / S,
                    8 * _EPS * (np.abs(slope) + np.abs(c[at]) + np.abs(log_S)))

        s = np.zeros(len(l))
        live = np.arange(len(l))
        sign = np.where(F(s, live)[1] > 0, 1.0, -1.0)  # the step's direction on the outer side
        ok = np.zeros(len(l), dtype=bool)
        # the Newton point of the last outer point, to fall back on where a
        # model step passes the top
        back, modelled = s.copy(), np.zeros(len(l), dtype=bool)
        for _ in range(_ROOT_STEPS):
            if not live.size:
                break
            x = s[live]
            Fv, dF, d2F, noise = F(x, live)
            up = dF * sign[live] > 0  # short of the top
            retry = ~up & modelled
            newton = -Fv / dF
            disc = np.maximum(dF * dF - 2 * Fv * d2F, 0.0)
            model = -2 * Fv / (dF + sign[live] * np.sqrt(disc))
            use_model = up & (Fv < 0)
            step = np.where(use_model, model, newton)
            met = up & ((np.abs(Fv) <= noise) | (np.abs(step) <= 4 * _EPS * np.maximum(1.0, np.abs(x))))
            ok[live[met]] = True
            # past the top after a Newton step: no root on this side, or at
            # 0 the double root
            lost = ~up & ~modelled
            ok[live[lost & (Fv >= 0)]] = True
            s[live] = np.where(met | lost, x, np.where(retry, back, x + step))
            back = np.where(use_model, x + newton, back)
            modelled = use_model
            keep = ~(met | lost | ~np.isfinite(Fv))
            live, back, modelled = live[keep], back[keep], modelled[keep]
        return s, ok

def _rays(p: float, k: int, t: float, mu: np.ndarray, l):
    """(J, lams, ok): the value J and lambdas lams = rho mu at the root of
    t_hat = t on the ray of each row of mu (n, k) beside mu itself
    (_ray_roots), where ok: where the row has one with every |lam_j| <= 1,
    s <= s_max = -log max|mu_j|^2, to _WALL_TOL (1 - t).

    l is the zero count of every row, or one count per row.  The series is
    formed once at mu, and rho enters through monomials: g0 = rho^l num_0,
    a_k = sum_i num_i E_{k-i} rho^{k+l-2i} and ||g||^p = S(rho^2), so on the
    feasible set, where ||g|| = |g0| / t, J = t Re(a_k / g0) =
    t sum_i b_i rho^{k-2i}, b_i = Re(num_i E_{k-i} / num_0), and no norm is
    formed.  At p = inf, where ||g|| = 1, s = (2 log t - sum_{j<l}
    log|mu_j|^2) / l, and g is the Blaschke product of the factors
    lam_j - d_j z / (1 - w_j z), d_j = 1 - |lam_j|^2 = -expm1(s +
    log|mu_j|^2): every coefficient past g0 carries some d_j, so a_k does
    not cancel as |lam_j| -> 1 near t = 1, and the d_j meet
    prod_j (1 - d_j) = t^2 with the same logs.
    """
    n = len(mu)
    l = np.broadcast_to(l, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_m = np.log(mu.real * mu.real + mu.imag * mu.imag)
        s_max = -log_m.max(axis=1)
        if math.isinf(p):
            s = (2 * math.log(t) - _chain_sum([np.where(j < l, log_m[:, j], 0.0) for j in range(k)])) / l
            lams = np.exp(0.5 * s)[:, None] * mu
            d = -np.expm1(s[:, None] + log_m)
            g = [np.ones(n, dtype=complex)] + [np.zeros(n, dtype=complex)] * k
            for j in range(int(l.max())):
                w = lams[:, j].conj()
                B = [lams[:, j], -d[:, j]]
                for _ in range(2, k + 1):
                    B.append(B[-1] * w)
                g = np.where(j < l, [_chain_sum(g[i] * B[m - i] for i in range(m + 1))
                                     for m in range(k + 1)], g)
            J = t * (g[k] / g[0]).real
            ok = np.ones(n, dtype=bool)
        else:
            num, E, c = _terms(p, mu, l)
            s, ok = _ray_roots(p, t, l, c.real * c.real + c.imag * c.imag, np.abs(num[0]))
            J = t * _chain_sum([(num[i] * E[k - i] / num[0]).real * np.exp(0.5 * (k - 2 * i) * s)
                                for i in range(int(l.max()) + 1)])
            lams = np.exp(0.5 * s)[:, None] * mu
        return J, lams, ok & (s <= s_max + _WALL_TOL * (1.0 - t)) & np.isfinite(J)


# ---------------------------------------------------------------------------
# parametrization and per-l optimization
# ---------------------------------------------------------------------------

def _free_slots(k: int, l: int, p: float, pinned: bool) -> range:
    """Indices of the lambdas that x parametrizes, two coordinates each.

    For p = inf only the l Blaschke lambdas act; a pinned f(0) = 0 fixes
    lam_0 = 0 and frees the rest.
    """
    active = l if math.isinf(p) else k
    return range(1 if pinned else 0, active)

def _lams_from_x_batch(X: np.ndarray, k: int, pinned: bool) -> np.ndarray:
    """The lambdas (n, k) of the rows of X: lam_j = sin(r_j)^2 e^{i th_j}, else 0.

    The free slots are the X.shape[1] // 2 from lam_1 (pinned) or lam_0 on.
    """
    r, th = X[:, 0::2], X[:, 1::2]
    block = np.sin(r) ** 2 * np.exp(1j * th)
    if not pinned and r.shape[1] == k:
        return block
    lo = int(pinned)
    lams = np.zeros((X.shape[0], k), dtype=complex)
    lams[:, lo:lo + r.shape[1]] = block
    return lams

def _x_from_lams(lams, k: int, l: int, p: float) -> np.ndarray:
    xs = []
    for j in _free_slots(k, l, p, False):
        m = min(abs(lams[j]), 1.0)
        xs.extend([math.asin(math.sqrt(m)), np.angle(lams[j])])
    return np.array(xs)

def _objective_batch(p: float, k: int, t: float, X: np.ndarray, l, grad: bool = False):
    """(f, c) = (-J, t_hat - t) for every row of X (module docstring); at
    t = 0, which pins lam_0 = 0, J = |a_k| / ||g|| and t_hat = 0.

    l is the zero count of every row, or one count per row.  With grad,
    their gradients in x follow, each of shape X.shape, through
    lam_j = sin(r_j)^2 e^{i th_j}: d lam/d r = sin(2r) e^{i th} and
    d lam/d th = i lam, and a function of lam and w = conj(lam) moves by
    (d/d lam) dlam + (d/d w) conj(dlam).  Where J reads 0 by the |g0|
    guard or an overflowed norm, so does t_hat (c = -t), and both
    gradients vanish.
    """
    pinned = t == 0.0
    lams = _lams_from_x_batch(X, k, pinned)
    out = _series_batch(p, lams, l, grad)
    g0, ak, nrm = out[:3]
    n = len(X)
    if pinned:
        size = np.abs(ak)
        J, t_hat = size / nrm, np.zeros(n)
    else:
        a0 = np.abs(g0)
        live = ~(a0 < 1e-150)
        J = np.divide((g0.conj() * ak).real, a0 * nrm, out=np.zeros(n), where=live)
        t_hat = np.divide(a0, nrm, out=np.zeros(n), where=live)
    if not grad:
        return -J, t_hat - t
    lo = int(pinned)
    slot = lo + np.arange(X.shape[1]) // 2  # the lambda each column moves
    dg0, dak_dlam, dak_dw, dlog_dw = (d.T[:, slot] for d in out[3])
    dlam = np.empty(X.shape, dtype=complex)
    dlam[:, 0::2] = np.sin(2 * X[:, 0::2]) * np.exp(1j * X[:, 1::2])
    dlam[:, 1::2] = 1j * lams[:, lo:lo + X.shape[1] // 2]
    dlam_c = dlam.conj()
    dak = dak_dlam * dlam + dak_dw * dlam_c
    dlog_nrm = 2 * (dlog_dw * dlam_c).real
    zero = np.zeros(X.shape)
    if pinned:
        dJ = np.divide((ak.conj()[:, None] * dak).real, (size * nrm)[:, None], out=zero.copy(),
                       where=(size > 0)[:, None] & np.isfinite(nrm)[:, None])
        return -J, t_hat - t, -(dJ - J[:, None] * dlog_nrm), zero
    # h = dg0/g0: log|g0| moves by Re h, and the phase conj(g0)/|g0| by -i Im h
    ok = (live & np.isfinite(nrm))[:, None]
    h = np.divide(dg0 * dlam, g0[:, None], out=np.zeros(X.shape, dtype=complex), where=ok)
    phase = np.divide(g0.conj(), a0, out=np.zeros(n, dtype=complex), where=live)[:, None]
    dJ = np.divide((phase * (dak - 1j * h.imag * ak[:, None])).real, nrm[:, None], out=zero,
                   where=ok) - J[:, None] * dlog_nrm
    return (-J, t_hat - t, -np.where(ok, dJ, 0.0),
            np.where(ok, t_hat[:, None] * (h.real - dlog_nrm), 0.0))

def _penalized(p: float, k: int, t: float, X: np.ndarray, l) -> np.ndarray:
    """The explore's exact penalty f + _PENALTY |c| for every row of X, l as
    in _objective_batch."""
    f, c = _objective_batch(p, k, t, X, l)
    return f + _PENALTY * np.abs(c)

def _root_pattern(radius: float, k: int):
    # lam_j on the k-th roots of a negative real number: the product
    # prod (1 - conj(lam_j) z) telescopes to 1 + radius^k ... z^k
    return [
        radius * complex(math.cos(math.pi * (2 * m + 1) / k),
                         math.sin(math.pi * (2 * m + 1) / k))
        for m in range(k)
    ]

def _lift_roots(p: float, k: int, l: int, t: float) -> list:
    """The roots in (0, 1) of the closed-form k = 1 extremals that lift
    through z -> z^k to zero count l: alpha at l = k, beta at l = 0; none
    at t = 0, where solve_alpha gives the root 0 and solve_beta raises."""
    roots = []
    # alpha: all k lambdas carry zeros; beta: the zero-free outer extremal
    for solve, lifts in ((solve_alpha, l == k), (solve_beta, l == 0)):
        if not lifts:
            continue
        try:
            root = solve(p, t)
        except ValueError:
            continue
        if 0 < root < 1:
            roots.append(root)
    return roots

def _warm_starts(p: float, k: int, l: int, t: float):
    """The lifted k = 1 extremals (_lift_roots) as starts."""
    return [_x_from_lams(_root_pattern(root ** (1.0 / k), k), k, l, p) for root in _lift_roots(p, k, l, t)]

# t must pass the proven end of a zero count's range of t_hat by this much
# before the count is skipped: it covers the rounding of the end
_SKIP_MARGIN = 2e-9

def _unreachable(cfg: SolveConfig, l: int) -> bool:
    """Whether the exact range of t_hat at zero count l excludes t.

    f(0) = 0 needs a zero; that is tested by name, since the l = 0 floor
    below underflows to 0 at tiny p.  l = k reaches at most the k = 1
    branch maximum T(p), l = 1 at most U_1(k, p), and l = 0 at least
    C(2k, k)^{-1/p} (module docstring), each 1 at p = inf; t must pass
    them by _SKIP_MARGIN.
    """
    p, t, k = cfg.p, cfg.t, cfg.k
    if t == 0.0 and l == 0:
        return True
    if l == k and t > _branch_top(p)[1] + _SKIP_MARGIN:
        return True
    if l == 1 and t > _one_zero_top(k, p)[1] + _SKIP_MARGIN:
        return True
    return l == 0 and t < math.exp(-math.log(math.comb(2 * k, k)) / p) - _SKIP_MARGIN

def _candidates(cfg: SolveConfig, lams: np.ndarray, l) -> list:
    """Per row of lams (n, k), (J, lams) at the root of t_hat = t on its ray
    beside the row (_rays), or None where the search finds none; at t = 0,
    where lam_0 = 0 pins f(0) = 0, (J, lams) of the row itself.

    The one feasibility test of a solve: the polish's ends and the rays of
    _solve_zero_counts's points table pass through it alike.
    """
    p, k, t = cfg.p, cfg.k, cfg.t
    if t == 0.0:
        _, ak, nrm = _series_batch(p, lams, l)
        J, ok = np.abs(ak) / nrm, np.ones(len(lams), dtype=bool)
    else:
        J, lams, ok = _rays(p, k, t, lams, l)
    return [(Jv, [complex(z) for z in row]) if okv else None
            for Jv, row, okv in zip(J.tolist(), lams, ok.tolist())]

# the upper ends of a random start's r and theta, broadcast over its free slots
_START_HIGH = np.array([[math.pi / 2.0], [2.0 * math.pi]])

def _starts(cfg: SolveConfig, l: int, dim: int) -> list:
    """The warm starts and cfg.starts random ones, from zero count l's own stream."""
    rng = np.random.default_rng([cfg.seed, cfg.k, l, 1])
    x0s = _warm_starts(cfg.p, cfg.k, l, cfg.t)
    n_random = max(cfg.starts - len(x0s), 1)
    # each start's r draws, then its theta draws, as one call per start would
    draws = rng.uniform(0.0, _START_HIGH, size=(n_random, 2, dim // 2))
    return x0s + list(draws.transpose(0, 2, 1).reshape(n_random, dim))

def _solve_zero_counts(cfg: SolveConfig) -> dict:
    """Multistart for every zero count of cfg; returns l -> feasible (J, lams).

    A zero count whose range of t_hat excludes t gets [] before any search.
    At t = 1, where |f(0)| <= ||f|| admits only f = 1, l = 0 gets lam = 0
    and no count is searched.  The other counts explore in one lockstep
    population per free dimension, and their leaders polish in one
    lockstep SQP: for finite p that is every count, at p = inf (dimension
    2l) each count alone.  Each count keeps its own starts and leaders.
    Each polish end then moves along its ray to the root of t_hat = t
    beside it, all in one call of _candidates.  The rays of a points table
    join them there:
    at t = 0 a count's one point lam = 0 where it has no free coordinate;
    otherwise the lifted k = 1 extremals of _warm_starts, and l = 0's
    in-family ray mu_j = -1, where g = (1 + a z)^{2k/p}, whose root lies
    within |lam_j| <= 1 wherever t is at or above l = 0's floor.
    """
    p, t, k = cfg.p, cfg.t, cfg.k
    pinned = t == 0.0
    feasible = {l: [] for l in cfg.l_range}
    if t == 1.0:
        if 0 in feasible:
            feasible[0].append((0.0, [0j] * k))
        return feasible
    points = {}  # l -> lams, passed to _candidates with the polish's ends
    groups: dict = {}  # dim -> [(l, starts)]
    polished = []  # (lams, l) of the polish's ends, group by group
    for l in cfg.l_range:
        if _unreachable(cfg, l):
            continue
        dim = 2 * len(_free_slots(k, l, p, pinned))
        if dim == 0:
            points[l] = np.zeros((1, k), dtype=complex)
            continue
        rays = [_root_pattern(root ** (1.0 / k), k) for root in _lift_roots(p, k, l, t)]
        if l == 0:
            rays.append([-1.0] * k)
        if rays:
            points[l] = np.array(rays, dtype=complex)
        groups.setdefault(dim, []).append((l, _starts(cfg, l, dim)))

    for dim, members in groups.items():
        counts = np.concatenate([np.full(len(x0s), l) for l, x0s in members])
        ends, fends, _ = _nelder_mead_lockstep(
            lambda X, starts: _penalized(p, k, t, X, counts[starts]),
            np.array([x0 for _, x0s in members for x0 in x0s]), maxfev=_EXPLORE_FEV_PER_DIM * dim)
        # each count's 8 best ends, and up to 16 within 1e-4 of its best
        leaders, owners = [], []
        at = 0
        for l, x0s in members:
            explored = sorted(zip(ends[at:at + len(x0s)], fends[at:at + len(x0s)].tolist()),
                              key=lambda e: e[1])
            cut = explored[0][1] + 1e-4
            block = [x for i, (x, fv) in enumerate(explored) if i < 8 or (i < 16 and fv <= cut)]
            leaders += block
            owners += [l] * len(block)
            at += len(x0s)
        # pinned, f(0) = 0 holds by construction and only J is polished: c
        # and its gradient are 0, so the SQP's step is the modified Newton
        # step on -J and it takes only steps that lower -J, up to the merit's
        # rounding slack, so every row keeps where it stops, converged or not
        owners = np.array(owners)
        x, _, _, _ = _sqp_lockstep(
            lambda X, rows, grad=False: _objective_batch(p, k, t, X, owners[rows], grad),
            np.array(leaders))
        polished.append((_lams_from_x_batch(x, k, pinned), owners))
    polished += [(lams, np.full(len(lams), l)) for l, lams in points.items()]
    if polished:
        owners = np.concatenate([l for _, l in polished])
        for l, found in zip(owners.tolist(), _candidates(cfg, np.concatenate([x for x, _ in polished]), owners)):
            if found is not None:
                feasible[l].append(found)
    return feasible


# ---------------------------------------------------------------------------
# classification of candidates
# ---------------------------------------------------------------------------

def _effective(lams, l: int):
    """Push Blaschke parameters on the unit circle into the outer-only tail.

    A factor with |lam| within fn_repr._UNIT_TOL of 1 is the constant lam,
    as eval_structured evaluates it; dropping it from the zero prefix while
    keeping its outer factor changes f by a constant phase only, which
    _build_best's phase absorbs.
    """
    interior = [lam for lam in lams[:l] if abs(lam) < 1.0 - _UNIT_TOL]
    moved = [lam for lam in lams[:l] if abs(lam) >= 1.0 - _UNIT_TOL]
    return interior + moved + list(lams[l:]), len(interior)

def _pairs_off(a, b) -> bool:
    """Whether the lambdas a and b pair off one to one within _CLUSTER_DIST_TOL.

    A perfect matching of the pairs within the tolerance, grown by
    augmenting paths (Kuhn), O(len(a)^3); the lambdas' order plays no part.
    """
    near = [[j for j, y in enumerate(b) if abs(x - y) <= _CLUSTER_DIST_TOL] for x in a]
    owner = [None] * len(b)

    def augment(i, seen):
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    # a lambda left unmatched now stays unmatched as the matching grows
    return all(augment(i, set()) for i in range(len(a)))

def _same_configuration(a_lams, a_l, b_lams, b_l, k: int) -> bool:
    """Whether a and b agree, up to a k-th-root rotation, in each block.

    The blocks are the l zero lambdas and the outer ones; within a block
    the lambdas match as a set.
    """
    if a_l != b_l:
        return False
    for m in range(k):
        rot = complex(math.cos(2 * math.pi * m / k), -math.sin(2 * math.pi * m / k))
        turned = [z * rot for z in a_lams]
        if _pairs_off(turned[:a_l], b_lams[:b_l]) and _pairs_off(turned[a_l:], b_lams[b_l:]):
            return True
    return False

def _ties(J: float, top: float) -> bool:
    """Whether J ties with the top value: within _TIE_TOL of it, relative
    where |top| < 1, as near t = 1, where values are about 2 (1 - t)."""
    return J >= top - _TIE_TOL * min(1.0, abs(top))

def _count_clusters(cands, best_value: float, k: int) -> int:
    """The distinct configurations among the candidates that tie with the
    top, by the rule that picks the winner (at least 1)."""
    reps = []
    for J, lams, l_eff in cands:
        if not _ties(J, best_value):
            continue
        for r_lams, r_l in reps:
            if _same_configuration(lams, l_eff, r_lams, r_l, k):
                break
        else:
            reps.append((lams, l_eff))
    return max(len(reps), 1)


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

def _coeff_inside(fn: StructuredExtremal, k: int) -> complex:
    """a_k of fn by a 256-point Cauchy integral on a circle inside the disc.

    On |z| = r the integral's round-off is about eps max|f(r z)| / r^k, and
    its aliasing error is below max_{|z|=1}|f| r^256; of r = 1/2, ..., 1/32
    it takes the radius of least round-off (Bornemann, "Accuracy and
    stability of computing high-order derivatives of analytic functions by
    Cauchy integrals", Found. Comput. Math. 11, 2011).  r = 1 is left out:
    there a unimodular outer lambda puts a zero of f on the grid, while
    inside the disc f is analytic, and by the maximum principle the
    round-off at r = 1/2 is at most 2^k times that at r = 1.
    """
    grids = [(r, sample_boundary(lambda z, r=r: fn(r * z), 256))
             for r in (0.5 ** j for j in range(1, 6))]
    r, samples = min(grids, key=lambda g: float(np.abs(g[1].values).max()) / g[0] ** k)
    return taylor_coeff(samples, k) / r ** k

def _build_best(cfg: SolveConfig, lams, l_eff: int) -> StructuredExtremal:
    """t g / g(0) for the product g of lams; at t = 0, g / ||g|| turned so
    that its a_k >= 0."""
    p = cfg.p
    lams = [z / abs(z) if abs(z) > 1.0 else z for z in lams]
    (g0,), (ak,), (nrm,) = _series_batch(p, np.array([lams]), l_eff)
    if cfg.t > 0:
        scale = cfg.t / g0
    else:
        scale = (np.conj(ak) / abs(ak) if abs(ak) > 0 else 1.0) / nrm
    return StructuredExtremal(scale=complex(scale), p=p, zero_count=l_eff, lambdas=tuple(lams))

def maximize_phik(cfg: SolveConfig) -> ExtremalSolution:
    """Best Re a_k over the structured family at f(0) = t, ||f|| <= 1."""
    k, p, t = cfg.k, cfg.p, cfg.t
    searched = _solve_zero_counts(cfg)
    per_l = {l: max((J for J, _ in feas), default=None) for l, feas in searched.items()}
    top = max((J for J in per_l.values() if J is not None), default=None)
    if top is None:
        raise SolverError(f"no feasible structure for k={k}, p={p}, t={t}")
    winner = min(l for l, J in per_l.items() if J is not None and _ties(J, top))
    J_win, lams_win = max(searched[winner], key=lambda e: e[0])

    best = _build_best(cfg, *_effective(lams_win, winner))
    try:
        inside = float(_coeff_inside(best, k).real)
    except EvaluationError as e:
        # f passes the largest double inside the disc (p below about 1e-6)
        raise SolverError(f"the Cauchy integral cannot check the value: {e}") from None
    if not (abs(inside - J_win) <= _AGREE_TOL * max(1.0, abs(J_win))):  # a NaN fails
        raise SolverError(f"series/Cauchy integral disagreement: {J_win} vs {inside}")
    if math.isinf(p):
        nrm_meas = norm_hinf(best)
    else:
        nrm_meas = norm_hp(best, p)
    t_meas = abs(complex(best(0.0)) - t)

    clusters = _count_clusters(
        [(J, *_effective(lams, l)) for l, feas in searched.items() for J, lams in feas], top, k
    )

    return ExtremalSolution(
        value=max(J_win, 0.0), best=best, l_used=best.zero_count,
        norm_residual=abs(nrm_meas - 1.0), t_residual=t_meas,
        cluster_count=clusters, per_l_values=per_l,
    )


def sandwich_check(k: int, p: float, t: float, starts: int = 64) -> SandwichReport:
    """Solver value against the closed-form band [phi1, k^{1/p-1} phi1].

    The report also carries the solve's winning zero count l_used (ties
    resolved to the smallest l).
    """
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    lower = phi1(p, t).value
    upper = k ** (1.0 / p - 1.0) * lower
    sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=starts))
    if not (lower - 1e-6 <= sol.value <= upper + 1e-6):
        raise SolverError(
            f"solved value {sol.value} escapes the band [{lower}, {upper}] "
            f"at k={k}, p={p}, t={t}"
        )
    return SandwichReport(lower=lower, upper=upper, solved=sol.value, l_used=sol.l_used)


def t0_scan(k: int, p: float, starts: int = 64) -> float:
    """Smallest t on the grid j / 256 above which the k = 2 value collapses
    onto phi1: where the solved value is within 1e-6 of it, at five probes
    above too."""
    if k != 2:
        raise ValueError("the threshold scan is defined for k = 2 only")
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")

    def gap(t: float) -> float:
        sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=starts))
        return abs(sol.value - phi1(p, t).value)

    lo, hi = 0, _T0_GRID  # gap(1) = 0 by the shared constant extremal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid / _T0_GRID) < _T0_TOL:
            hi = mid
        else:
            lo = mid
    t0 = hi / _T0_GRID
    for j in range(1, 6):
        probe = t0 + j * (1.0 - t0) / 6.0
        if gap(probe) >= _T0_TOL:
            raise SolverError(
                f"threshold inconsistency: gap at t={probe} above tolerance"
            )
    return t0
