"""Invariant suites: bound checks, appendix sign patterns, theorem spot checks.

Each suite returns a list of CheckResult records; a suite passes when every
record does.  The suites are deterministic (fixed seeds), so a green run is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    BOTH,
    F_p,
    _tp_band_log,
    alpha1,
    alpha2,
    alpha_p,
    appendix_functions,
    phi1,
    psi1,
    t_p,
    t_star,
)
from .fn_repr import PolyCoeffs
from .hardy_norm import QuadConfig, norm_hp
from .solver import SolveConfig, maximize_phik
from .wiener import wiener_bound_check, wiener_coeffs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# wiener suite
# ---------------------------------------------------------------------------

_WIENER_KS = (2, 3, 5)
_WIENER_PS = (0.4, 0.7, 1.0, 2.0, 4.0, math.inf)


def _random_polys(rng, count: int, max_degree: int = 32):
    # drawn lazily: each polynomial, with the samples it keeps, is freed
    # before the next is drawn
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        yield PolyCoeffs(tuple(c))


def _wiener_defect(f: PolyCoeffs, k: int) -> PolyCoeffs:
    w = np.asarray(wiener_coeffs(f, k).coeffs)
    return PolyCoeffs(tuple(w - np.asarray(f.coeffs)))


def _periodic_polys(rng, k: int, count: int, max_degree: int = 32):
    # coefficients supported on multiples of k, so W_k f = f exactly
    polys = []
    for _ in range(count):
        top = max_degree // k
        deg = int(rng.integers(1, top + 1))
        c = np.zeros(deg * k + 1, dtype=complex)
        c[::k] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        polys.append(PolyCoeffs(tuple(c)))
    return polys


def run_wiener(seed: int = 0, n_polys: int = 200) -> list:
    """Averaging-operator bound on random polynomials.

    ratio <= bound * (1 + 1e-6) for every (f, k, p); in the 1 < p < infinity
    range a ratio within 1e-9 of the bound must come with ||W_k f - f|| small
    (the bound there is 1 and is attained only on the fixed points).
    """
    rng = np.random.default_rng(seed)
    cfg = QuadConfig(rel_tol=1e-7)

    worst = -math.inf
    worst_at = ""
    near_eq_checked = 0
    near_eq_bad = ""

    def check_near_equality(f, rep, where: str) -> None:
        # for 1 < p < inf the bound 1 is attained only on fixed points of W_k
        nonlocal near_eq_checked, near_eq_bad
        k, p = rep.k, rep.p
        if 1.0 < p < math.inf and rep.ratio >= rep.bound - 1e-9:
            near_eq_checked += 1
            dn = norm_hp(_wiener_defect(f, k), p, cfg)
            if dn >= 1e-6 and not near_eq_bad:
                near_eq_bad = f"{where}, k={k}, p={p}: ||Wf-f||={dn:.3e}"

    for i, f in enumerate(_random_polys(rng, n_polys)):
        for k in _WIENER_KS:
            for p in _WIENER_PS:
                rep = wiener_bound_check(f, k, p, cfg=cfg)
                slack = rep.ratio / rep.bound
                if slack > worst:
                    worst = slack
                    worst_at = f"poly {i}, k={k}, p={p}"
                check_near_equality(f, rep, f"poly {i}")

    results = [
        _result(
            "wiener/bound-random",
            worst <= 1.0 + 1e-6,
            f"max ratio/bound = {worst:.12f} at {worst_at}",
        )
    ]

    # engineered fixed points: coefficients on multiples of k force ratio = bound
    # exactly, so the near-equality implication below is tested non-vacuously
    for k in _WIENER_KS:
        fixed = _periodic_polys(rng, k, 4)
        low = math.inf
        for f in fixed:
            for p in (2.0, 4.0):
                rep = wiener_bound_check(f, k, p, cfg=cfg)
                low = min(low, rep.ratio / rep.bound)
                check_near_equality(f, rep, "fixed point")
        results.append(
            _result(
                f"wiener/fixed-points-k{k}",
                low >= 1.0 - 1e-9,
                f"min ratio/bound over W_k-invariant polys = {low:.12f}",
            )
        )

    results.append(
        _result(
            "wiener/near-equality",
            near_eq_checked > 0 and not near_eq_bad,
            near_eq_bad or f"{near_eq_checked} near-equality cases, all with ||Wf-f|| < 1e-6",
        )
    )
    return results


# ---------------------------------------------------------------------------
# appendix suite
# ---------------------------------------------------------------------------

def run_appendix(n_grid: int = 1000) -> list:
    """Sign pattern of the auxiliary functions on a p-grid inside (0,1).

    Checks, for every grid point: H(p) > 0, K(p) < 0, F_p(alpha_2) < 0,
    F_p(alpha_1) > 0, |F_p(alpha_p)| < 1e-12, alpha_1 < alpha_p < alpha_2,
    and the band 2^{-1/p} < t_p < 2^{-1/p} sqrt(p) (2-p)^{1/p-1/2}.
    The band is compared in log space so tiny p cannot underflow.
    """
    grid = [(i + 1) / (n_grid + 1) for i in range(n_grid)]

    min_h = math.inf
    max_k = -math.inf
    max_f2 = -math.inf
    min_f1 = math.inf
    max_res = 0.0
    order_bad = ""
    band_bad = ""
    for p in grid:
        a1 = alpha1(p)
        a2 = alpha2(p)
        ap = alpha_p(p)
        vals = appendix_functions(p, a2)
        min_h = min(min_h, vals.H)
        max_k = max(max_k, vals.K)
        max_f2 = max(max_f2, F_p(p, a2))
        min_f1 = min(min_f1, F_p(p, a1))
        max_res = max(max_res, abs(F_p(p, ap)))
        if not (a1 < ap < a2) and not order_bad:
            order_bad = f"p={p}: a1={a1:.6e}, ap={ap:.6e}, a2={a2:.6e}"
        # log t_p vs the log of both band edges
        log_tp = math.log(ap) - math.log1p(ap * ap) / p
        log_lo, log_hi = _tp_band_log(p)
        if not (log_lo < log_tp < log_hi) and not band_bad:
            band_bad = f"p={p}: log t_p={log_tp:.6f} outside ({log_lo:.6f}, {log_hi:.6f})"

    return [
        _result("appendix/H-positive", min_h > 0.0, f"min H = {min_h:.6e}"),
        _result("appendix/K-negative", max_k < 0.0, f"max K = {max_k:.6e}"),
        _result("appendix/Fp-at-alpha2", max_f2 < 0.0, f"max F_p(alpha_2) = {max_f2:.6e}"),
        _result("appendix/Fp-at-alpha1", min_f1 > 0.0, f"min F_p(alpha_1) = {min_f1:.6e}"),
        _result("appendix/Fp-root-residual", max_res < 1e-12, f"max |F_p(alpha_p)| = {max_res:.3e}"),
        _result("appendix/alpha-ordering", not order_bad, order_bad or "alpha_1 < alpha_p < alpha_2 on grid"),
        _result("appendix/tp-band", not band_bad, band_bad or "band holds on grid (log-space comparison)"),
    ]


# ---------------------------------------------------------------------------
# theorems suite
# ---------------------------------------------------------------------------

def _phi1_grid(p: float, ts):
    return [phi1(p, t).value for t in ts]


def run_theorems(seed: int = 0) -> list:
    results = []

    # explicit p = 2 and p = infinity formulas
    ts = [i / 1000 for i in range(1001)]
    err2 = max(abs(phi1(2.0, t).value - math.sqrt(1.0 - t * t)) for t in ts)
    erri = max(abs(phi1(math.inf, t).value - (1.0 - t * t)) for t in ts)
    results.append(_result("theorems/phi1-p2", err2 < 1e-12, f"max |phi1(2,t) - sqrt(1-t^2)| = {err2:.3e}"))
    results.append(_result("theorems/phi1-pinf", erri < 1e-12, f"max |phi1(inf,t) - (1-t^2)| = {erri:.3e}"))

    # continuity across the regime switch
    jump = 0.0
    for p in (0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0):
        sw = t_p(p) if p < 1.0 else 2.0 ** (-1.0 / p)
        for h in (1e-9, 1e-10):
            lo = phi1(p, sw - h).value
            hi = phi1(p, min(sw + h, 1.0)).value
            jump = max(jump, abs(hi - lo))
    results.append(_result("theorems/switch-continuity", jump < 1e-7, f"max jump across switch = {jump:.3e}"))

    # p >= 1: strictly decreasing in t
    mono_bad = ""
    for p in (1.0, 2.0, 4.0, math.inf):
        vals = _phi1_grid(p, ts)
        diffs = np.diff(vals)
        if not np.all(diffs <= 1e-12):
            mono_bad = f"p={p}: max increase {float(np.max(diffs)):.3e}"
            break
    results.append(_result("theorems/monotone-p-ge-1", not mono_bad, mono_bad or "phi1 decreasing on [0,1] for p in {1,2,4,inf}"))

    # p < 1: unimodal, peak value psi1 at t_star
    uni_bad = ""
    for p in (0.3, 0.5, 0.7, 0.9):
        vals = np.array(_phi1_grid(p, ts))
        peak = int(np.argmax(vals))
        rising = np.diff(vals[: peak + 1])
        falling = np.diff(vals[peak:])
        if not (np.all(rising >= -1e-12) and np.all(falling <= 1e-12)):
            uni_bad = f"p={p}: grid values not unimodal"
            break
        ts_ = t_star(p)
        if abs(ts[peak] - ts_) > 2e-3:
            uni_bad = f"p={p}: grid peak {ts[peak]} vs t_star {ts_:.6f}"
            break
        if abs(phi1(p, ts_).value - psi1(p)) > 1e-12:
            uni_bad = f"p={p}: phi1 at t_star != psi1"
            break
    results.append(_result("theorems/unimodal-p-lt-1", not uni_bad, uni_bad or "rise to t_star then fall, peak = psi1"))

    # at t_p both closed forms are admissible and agree
    both_bad = ""
    for p in (0.3, 0.5, 0.7):
        res = phi1(p, t_p(p))
        if res.regime != BOTH:
            both_bad = f"p={p}: regime {res.regime}"
            break
    results.append(_result("theorems/tp-regime", not both_bad, both_bad or "regime BOTH exactly at t_p"))

    # quick solver probes against the closed form (witness in both directions)
    probe_bad = ""
    worst_gap = 0.0
    for (k, p, t) in ((1, 2.0, 0.6), (1, 0.5, 0.3), (2, math.inf, 0.5)):
        sol = maximize_phik(SolveConfig(k=k, p=p, t=t, starts=24, seed=seed))
        ref = phi1(p, t).value
        gap = abs(sol.value - ref)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            probe_bad = f"k={k}, p={p}, t={t}: solver {sol.value:.9f} vs closed form {ref:.9f}"
            break
    results.append(_result("theorems/solver-probes", not probe_bad, probe_bad or f"max |solver - closed form| = {worst_gap:.3e}"))

    return results


_SUITES = {
    "wiener": run_wiener,
    "appendix": run_appendix,
    "theorems": run_theorems,
}


def run_suite(name: str) -> list:
    """Run one suite by name, or all of them in a fixed order."""
    if name == "all":
        out = []
        for key in ("wiener", "appendix", "theorems"):
            out.extend(_SUITES[key]())
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected wiener, appendix, theorems or all")
    return _SUITES[name]()
