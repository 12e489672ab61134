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

The scale C is eliminated: normalizing ||f|| = 1 and f(0) = t pins
C = t / g(0) on the feasible set, leaving the smooth objective
Re(conj(g0) a_k) / (|g0| ||g||) under the scalar constraint
|g0| / ||g|| = t.  Multistart simplex descent with an exact penalty
explores; a sequential quadratic polish enforces the constraint on the
leaders.  The returned solution is then re-measured through hardy_norm and
taylor_coeff as an independent consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .closed_form import phi1, solve_alpha, solve_beta
from .fn_repr import StructuredExtremal, sample_boundary, taylor_coeff
from .hardy_norm import norm_hinf, norm_hp

__all__ = [
    "SolverError",
    "SolveConfig",
    "ExtremalSolution",
    "SandwichReport",
    "maximize_phik",
    "sandwich_check",
    "t0_scan",
]

# Blaschke parameters closer to the unit circle than this are treated as
# degenerate (the factor is then a unimodular constant) when classifying a
# solution's effective zero count.
_UNIT_SNAP = 1e-6

_PENALTY = 10.0
_FEAS_TOL = 1e-9
_TIE_TOL = 1e-9
_CLUSTER_VALUE_TOL = 1e-6
_CLUSTER_DIST_TOL = 1e-3
# SLSQP's convergence tolerance in the polish
_POLISH_FTOL = 1e-10


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
        if self.k < 1:
            raise ValueError(f"k must be >= 1 (got {self.k})")
        if not (self.p > 0):
            raise ValueError(f"p must be positive (got {self.p})")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0, 1] (got {self.t})")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        ls = self.l_range
        if ls is None:
            ls = tuple(range(self.k + 1))
        else:
            ls = tuple(sorted(set(int(l) for l in ls)))
            if not ls:
                raise ValueError("l_range must be non-empty")
            if ls[0] < 0 or ls[-1] > self.k:
                raise ValueError(f"l_range {ls} outside 0..{self.k}")
        object.__setattr__(self, "l_range", ls)


@dataclass(frozen=True)
class ExtremalSolution:
    value: float
    best: StructuredExtremal
    l_used: int
    norm_residual: float
    t_residual: float
    cluster_count: int
    per_l_values: dict

    def __post_init__(self):
        if self.norm_residual >= 1e-7:
            raise SolverError(f"norm residual {self.norm_residual} exceeds 1e-7")
        if self.t_residual >= 1e-9:
            raise SolverError(f"t residual {self.t_residual} exceeds 1e-9")
        if self.value < 0:
            raise SolverError(f"negative extremal value {self.value}")


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    upper: float
    solved: float
    l_used: int


# ---------------------------------------------------------------------------
# exact series arithmetic
# ---------------------------------------------------------------------------

def _mul_trunc(a: list, b: list, k: int) -> list:
    out = [0j] * (k + 1)
    for i in range(min(len(a), k + 1)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(len(b), k + 1 - i)):
            out[i + j] += ai * b[j]
    return out

def _blaschke_series(lam: complex, k: int) -> list:
    if abs(abs(lam) - 1.0) <= 1e-14:
        return [lam]
    out = [0j] * (k + 1)
    out[0] = lam
    fac = lam.real * lam.real + lam.imag * lam.imag - 1.0
    pw = 1.0 + 0.0j
    w = lam.conjugate()
    for n in range(1, k + 1):
        out[n] = fac * pw
        pw *= w
    return out

def _binom_series(w: complex, e: float, k: int) -> list:
    # (1 - w z)^e = sum_n binom(e, n) (-w)^n z^n
    out = [0j] * (k + 1)
    term = 1.0 + 0.0j
    out[0] = term
    for n in range(1, k + 1):
        term *= (e - n + 1) / n * (-w)
        out[n] = term
    return out

def _series_data(p: float, lams, l: int):
    """(g0, a_k, ||g||) for the unscaled product with l Blaschke zeros."""
    k = len(lams)
    s = [1.0 + 0j] + [0j] * k
    for j in range(l):
        s = _mul_trunc(s, _blaschke_series(lams[j], k), k)
    if math.isinf(p):
        return s[0], s[k], 1.0
    c = [1.0 + 0j] + [0j] * k
    for m, lam in enumerate(lams):
        w = lam.conjugate()
        for n in range(m + 1, 0, -1):
            c[n] -= w * c[n - 1]
    nrm = math.fsum(x.real * x.real + x.imag * x.imag for x in c) ** (1.0 / p)
    e = 2.0 / p
    for lam in lams:
        s = _mul_trunc(s, _binom_series(lam.conjugate(), e, k), k)
    return s[0], s[k], nrm


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

def _lams_from_x(x, k: int, l: int, p: float, pinned: bool):
    lams = [0.0 + 0.0j] * k
    xs = x.tolist() if hasattr(x, "tolist") else list(x)
    idx = 0
    for j in _free_slots(k, l, p, pinned):
        r, th = xs[idx], xs[idx + 1]
        idx += 2
        m = math.sin(r) ** 2
        lams[j] = complex(m * math.cos(th), m * math.sin(th))
    return lams

def _x_from_lams(lams, k: int, l: int, p: float, pinned: bool) -> np.ndarray:
    xs = []
    for j in _free_slots(k, l, p, pinned):
        m = min(abs(lams[j]), 1.0)
        xs.extend([math.asin(math.sqrt(m)), np.angle(lams[j])])
    return np.array(xs)

def _evaluator(p: float, k: int, l: int, t: float, pinned: bool):
    """Returns x -> (objective, t_hat)."""
    # SLSQP evaluates the objective and the constraint (and their finite
    # difference stencils) at identical points; a one-slot memo removes the
    # duplicated series work.
    memo = [None]

    def parts(x):
        key = x.tobytes() if hasattr(x, "tobytes") else tuple(x)
        hit = memo[0]
        if hit is not None and hit[0] == key:
            return hit[1]
        lams = _lams_from_x(x, k, l, p, pinned)
        g0, ak, nrm = _series_data(p, lams, l)
        if pinned:
            out = abs(ak) / nrm, 0.0
        else:
            a0 = abs(g0)
            if a0 < 1e-150:
                out = 0.0, 0.0
            else:
                out = (g0.conjugate() * ak).real / (a0 * nrm), a0 / nrm
        memo[0] = (key, out)
        return out

    return parts

def _root_pattern(radius: float, k: int):
    # lam_j on the k-th roots of a negative real number: the product
    # prod (1 - conj(lam_j) z) telescopes to 1 + radius^k ... z^k
    return [
        radius * complex(math.cos(math.pi * (2 * m + 1) / k),
                         math.sin(math.pi * (2 * m + 1) / k))
        for m in range(k)
    ]

def _warm_starts(p: float, k: int, l: int, t: float, pinned: bool):
    """Closed-form k = 1 extremals lifted through z -> z^k."""
    outs = []
    if pinned:
        return outs
    # alpha: all k lambdas carry zeros; beta: the zero-free outer extremal
    for solve, lifts in ((solve_alpha, l == k), (solve_beta, l == 0 and not math.isinf(p))):
        if not lifts:
            continue
        try:
            root = solve(p, t)
        except ValueError:
            continue
        if 0 < root < 1:
            outs.append(_x_from_lams(_root_pattern(root ** (1.0 / k), k), k, l, p, pinned))
    return outs

def _solve_one_l(cfg: SolveConfig, l: int):
    """Multistart for a fixed zero count; returns feasible (J, lams) list."""
    p, t, k = cfg.p, cfg.t, cfg.k
    pinned = t == 0.0
    parts = _evaluator(p, k, l, t, pinned)
    dim = 2 * len(_free_slots(k, l, p, pinned))

    if dim == 0:
        J, t_hat = parts(np.empty(0))
        if abs(t_hat - t) <= _FEAS_TOL:
            return [(J, _lams_from_x(np.empty(0), k, l, p, pinned))]
        return []

    def penalized(x):
        J, t_hat = parts(x)
        return -J + _PENALTY * abs(t_hat - t)

    rng = np.random.default_rng([cfg.seed, k, l, 1])
    x0s = _warm_starts(p, k, l, t, pinned)
    n_random = max(cfg.starts - len(x0s), 1)
    for _ in range(n_random):
        r = rng.uniform(0.0, math.pi / 2.0, size=dim // 2)
        th = rng.uniform(0.0, 2.0 * math.pi, size=dim // 2)
        x0s.append(np.column_stack([r, th]).ravel())

    def explore(x0):
        res = minimize(
            penalized, x0, method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-8, "maxfev": 140 * dim},
        )
        return res.x, float(res.fun)

    explored = [explore(x0) for x0 in x0s]

    explored.sort(key=lambda e: e[1])
    leaders = [x for x, fv in explored[:8]]
    cut = explored[0][1] + 1e-4
    for x, fv in explored[8:]:
        if fv <= cut and len(leaders) < 16:
            leaders.append(x)

    # pinned, f(0) = 0 holds by construction and only J is polished
    constraints = () if pinned else [{"type": "eq", "fun": lambda x: parts(x)[1] - t}]
    feasible = []
    for x0 in leaders:
        res = minimize(
            lambda x: -parts(x)[0], x0, method="SLSQP", constraints=constraints,
            options={"ftol": _POLISH_FTOL, "maxiter": 200},
        )
        xs = x0 if pinned and not res.success else res.x
        J, t_hat = parts(xs)
        if abs(t_hat - t) <= _FEAS_TOL:
            feasible.append((float(J), _lams_from_x(xs, k, l, p, pinned)))
    return feasible


# ---------------------------------------------------------------------------
# classification of candidates
# ---------------------------------------------------------------------------

def _effective(lams, l: int):
    """Push boundary-degenerate Blaschke parameters into the outer-only tail.

    A factor with |lam| = 1 is the constant lam; dropping it from the zero
    prefix while keeping its outer factor changes f by a constant phase
    only, which the rescaling by C absorbs.
    """
    interior = [lam for lam in lams[:l] if abs(lam) < 1.0 - _UNIT_SNAP]
    moved = [lam for lam in lams[:l] if abs(lam) >= 1.0 - _UNIT_SNAP]
    return interior + moved + list(lams[l:]), len(interior)

def _sorted_key(lams):
    # order on a grid coarser than optimizer noise (~1e-8) so that the
    # canonical ordering of a converged configuration does not depend on
    # the sign of that noise; ties fall through to the next component
    return sorted(lams, key=lambda z: (round(z.real, 6), round(z.imag, 6)))

def _param_dist(a_lams, a_l, b_lams, b_l, k: int) -> float:
    if a_l != b_l:
        return math.inf
    best = math.inf
    bp = _sorted_key(b_lams[:b_l])
    bs = _sorted_key(b_lams[b_l:])
    for m in range(k):
        rot = complex(math.cos(2 * math.pi * m / k), -math.sin(2 * math.pi * m / k))
        ap = _sorted_key([z * rot for z in a_lams[:a_l]])
        asf = _sorted_key([z * rot for z in a_lams[a_l:]])
        d = 0.0
        for x, y in zip(ap + asf, bp + bs):
            d = max(d, abs(x - y))
        best = min(best, d)
    return best

def _count_clusters(cands, best_value: float, k: int) -> int:
    reps = []
    for J, lams, l_eff in cands:
        if J < best_value - _CLUSTER_VALUE_TOL:
            continue
        for r_lams, r_l in reps:
            if _param_dist(lams, l_eff, r_lams, r_l, k) <= _CLUSTER_DIST_TOL:
                break
        else:
            reps.append((lams, l_eff))
    return max(len(reps), 1)


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

def _coeff_via_fft(fn: StructuredExtremal, k: int) -> complex:
    n = 4096
    prev = None
    while n <= 1 << 18:
        cur = taylor_coeff(sample_boundary(fn, n), k)
        if prev is not None and abs(cur - prev) <= 1e-10 * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise SolverError("Taylor coefficient cross-check did not stabilize")

def _build_best(cfg: SolveConfig, lams, l_eff: int):
    p, t, k = cfg.p, cfg.t, cfg.k
    lams = [z / abs(z) if abs(z) > 1.0 else z for z in lams]
    g0, ak, nrm = _series_data(p, lams, l_eff)
    if t > 0:
        scale = t / g0
    elif abs(ak) > 0:
        scale = np.conj(ak) / (abs(ak) * nrm)
    else:
        scale = 1.0 / nrm
    return StructuredExtremal(scale=complex(scale), p=p, zero_count=l_eff,
                              lambdas=tuple(lams))

def maximize_phik(cfg: SolveConfig) -> ExtremalSolution:
    """Best Re a_k over the structured family at f(0) = t, ||f|| <= 1."""
    k, p, t = cfg.k, cfg.p, cfg.t
    per_l: dict = {}

    if t == 1.0:
        # the only admissible function is the constant 1
        if 0 not in cfg.l_range:
            raise SolverError("t = 1 admits only the zero-free constant extremal")
        for l in cfg.l_range:
            per_l[l] = 0.0 if l == 0 else None
        best = StructuredExtremal(scale=1.0, p=p, zero_count=0,
                                  lambdas=(0.0,) * k)
        return ExtremalSolution(
            value=0.0, best=best, l_used=0, norm_residual=0.0, t_residual=0.0,
            cluster_count=1, per_l_values=per_l,
        )

    pool = []  # (J, lams, l_raw)
    for l in cfg.l_range:
        if t == 0.0 and l == 0:
            per_l[l] = None
            continue
        feas = _solve_one_l(cfg, l)
        if not feas:
            per_l[l] = None
            continue
        per_l[l] = max(J for J, _ in feas)
        pool.extend((J, lams, l) for J, lams in feas)

    if not pool:
        raise SolverError(f"no feasible structure for k={k}, p={p}, t={t}")

    top = max(J for J, _, _ in pool)
    winner = min((lr for J, _, lr in pool if J >= top - _TIE_TOL), default=None)
    J_win, lams_win = max(
        ((J, lams) for J, lams, lr in pool if lr == winner), key=lambda e: e[0]
    )

    lams_eff, l_eff = _effective(lams_win, winner)
    best = _build_best(cfg, lams_eff, l_eff)

    value = float(_coeff_via_fft(best, k).real)
    if abs(value - J_win) > 1e-8:
        raise SolverError(
            f"series/quadrature disagreement: {J_win} vs {value}"
        )
    if math.isinf(p):
        nrm_meas = norm_hinf(best)
    else:
        nrm_meas = norm_hp(best, p)
    t_meas = abs(complex(best(0.0)) - t)

    clusters = _count_clusters(
        [(J, *_effective(lams, lr)) for J, lams, lr in pool], top, k
    )

    return ExtremalSolution(
        value=max(value, 0.0), best=best, l_used=l_eff,
        norm_residual=abs(nrm_meas - 1.0), t_residual=t_meas,
        cluster_count=clusters, per_l_values=per_l,
    )


def sandwich_check(k: int, p: float, t: float, seed: int = 0,
                   starts: int = 64) -> SandwichReport:
    """Solver value against the closed-form band [phi1, k^{1/p-1} phi1].

    The report also carries the solve's winning zero count l_used (ties
    resolved to the smallest l).
    """
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")
    lower = phi1(p, t).value
    upper = k ** (1.0 / p - 1.0) * lower
    sol = maximize_phik(SolveConfig(k=k, p=p, t=t, seed=seed, starts=starts))
    if not (lower - 1e-6 <= sol.value <= upper + 1e-6):
        raise SolverError(
            f"solved value {sol.value} escapes the band [{lower}, {upper}] "
            f"at k={k}, p={p}, t={t}"
        )
    return SandwichReport(lower=lower, upper=upper, solved=sol.value, l_used=sol.l_used)


def t0_scan(k: int, p: float, seed: int = 0, starts: int = 64,
            grid: int = 256, tol: float = 1e-6) -> float:
    """Smallest grid t above which the k = 2 value collapses onto phi1."""
    if k != 2:
        raise ValueError("the threshold scan is defined for k = 2 only")
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1) (got {p})")

    def gap(t: float) -> float:
        sol = maximize_phik(SolveConfig(k=k, p=p, t=t, seed=seed, starts=starts))
        return abs(sol.value - phi1(p, t).value)

    lo, hi = 0, grid  # gap(1) = 0 by the shared constant extremal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid / grid) < tol:
            hi = mid
        else:
            lo = mid
    t0 = hi / grid
    for j in range(1, 6):
        probe = t0 + j * (1.0 - t0) / 6.0
        if gap(probe) >= tol:
            raise SolverError(
                f"threshold inconsistency: gap at t={probe} above tolerance"
            )
    return t0
