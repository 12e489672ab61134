"""The three workloads: operations generated from a seed, and their checks.

A workload hands out rounds.  Every round has the same make-up (the same
number of operations of each kind, the same fixed failing operations), and
round r draws its inputs from the generator seeded with (seed, r), so no
input repeats across rounds except the fixed failing ones.  Each operation
is one call of a public hardyx function.  ``reference`` computes what the
check needs from ``oracles`` before the round is timed; ``check`` compares
a result with it afterwards and returns a message when they disagree.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

import oracles

INF = math.inf


@dataclass(frozen=True)
class Op:
    """One call ``hardyx.<fn>(*args, **kwargs)``; ``kind`` groups it for the README."""

    kind: str
    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)


def _shuffled(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _strata(rng, lo: float, hi: float, n: int, shuffle: bool = True, width: float = 0.96) -> np.ndarray:
    """One uniform draw in each of n equal strata of (lo, hi), shuffled.

    The draw covers the middle ``width`` of its stratum.  Stratifying keeps
    the mix of easy and hard inputs the same from seed to seed, which keeps
    the per-run figures steady.
    """
    draws = lo + (hi - lo) * (np.arange(n) + 0.5 + width * rng.uniform(-0.5, 0.5, n)) / n
    return rng.permutation(draws) if shuffle else draws


# ---------------------------------------------------------------------------
# curves: the closed forms phi1 and t_p
# ---------------------------------------------------------------------------

class Curves:
    """phi1 on t-grids at a few repeated p, t_p at distinct p, and a fixed fault."""

    name = "curves"
    KERNEL = ("interpreted", "tiny")  # parts of the speed kernel, see speed.py
    ROUND_S = 0.05  # wall time of one round, oracle included, at the reference speed
    TRACE_ROUNDS = 40
    GRID_P = 4  # values of p < 1 per round, each with a t-grid
    GRID_T = 24
    GRID_T_LARGE_P = 8
    TP_COUNT = 20
    # t_p and phi1 raise RuntimeError here although p is valid: the closed
    # forms cancel to 0 as alpha_1, alpha_p and alpha_2 merge at 1
    NEAR_ONE = (1 - 1e-4, 1 - 1e-5, 1 - 1e-12)

    def __init__(self):
        self._switch = {}  # oracle switch points by p, kept across rounds

    def round_inputs(self, hx, rng) -> list[Op]:
        ops = []
        for p in _strata(rng, 0.15, 0.95, self.GRID_P):
            for t in _strata(rng, 0.0, 1.0, self.GRID_T):
                ops.append(Op("phi1 p<1", "phi1", (float(p), float(t))))
            ops.append(Op("phi1 p<1", "phi1", (float(p), oracles.t_p(p))))
        for p in (1.0, 2.0, INF):
            for t in _strata(rng, 0.0, 1.0, self.GRID_T_LARGE_P):
                ops.append(Op("phi1 p>=1", "phi1", (p, float(t))))
        for p in _strata(rng, 0.05, 0.99, self.TP_COUNT):
            ops.append(Op("t_p", "t_p", (float(p),)))
        for p, t in zip(self.NEAR_ONE, (0.5, 0.3, 0.7)):
            ops.append(Op("t_p near 1", "t_p", (p,)))
            ops.append(Op("phi1 near 1", "phi1", (p, t)))
        return _shuffled(rng, ops)

    def warmup(self, hx) -> list[Op]:
        return [Op("phi1 p<1", "phi1", (0.5, 0.4)), Op("phi1 p>=1", "phi1", (2.0, 0.3)),
                Op("t_p", "t_p", (0.45,))]

    def reference(self, ops: list[Op]) -> list:
        out = []
        for op in ops:
            p = op.args[0]
            if p not in self._switch:
                self._switch[p] = oracles.switch_point(p)
            sw = self._switch[p]
            out.append(sw if op.fn == "t_p" else (oracles.phi1(p, op.args[1], sw), sw))
        return out

    def check(self, hx, op: Op, res, ref) -> str | None:
        if op.fn == "t_p":
            p = op.args[0]
            if abs(res - ref) > 1e-10:
                return f"t_p({p}) = {res!r}, oracle {ref!r}"
            lo, hi = oracles.tp_band(p)
            # the band is strict, but its lower edge meets t_p to within
            # rounding as p -> 1, so allow a few ulps
            if not lo - 1e-15 * abs(lo) < math.log(res) < hi + 1e-15 * abs(hi):
                return f"t_p({p}) = {res!r} outside the band ({math.exp(lo)!r}, {math.exp(hi)!r})"
            return None
        p, t = op.args
        value, sw = ref
        if abs(res.value - value) > 1e-10:
            return f"phi1({p}, {t!r}) = {res.value!r}, oracle {value!r}"
        if abs(t - sw) > 1e-9:
            want = hx.MOEBIUS_OUTER if t < sw else hx.OUTER
            if res.regime != want:
                return f"phi1({p}, {t!r}) regime {res.regime}, switch at {sw!r}"
        return None


# ---------------------------------------------------------------------------
# solve: the k-th coefficient search
# ---------------------------------------------------------------------------

class Solve:
    """maximize_phik at distinct seeded configurations, starts = 32."""

    name = "solve"
    KERNEL = ("interpreted", "tiny")
    ROUND_S = 35.0
    TRACE_ROUNDS = 1
    STARTS = 32
    T_ORDER = (3, 6, 1, 4, 0, 5, 2)
    # draws cover the middle 30% of their stratum: solve times depend on p
    # and t more than any other cost in the benchmark
    WIDTH = 0.3

    def round_inputs(self, hx, rng) -> list[Op]:
        cfgs = []
        # k = 2, p < 1: each p stratum meets the same t stratum in every
        # round, so the spread of solve times varies little with the seed.
        # Above t ~ 0.6 a solve takes half as long again, which would put
        # the median between two clusters of times.
        n, w = len(self.T_ORDER), self.WIDTH
        ps = _strata(rng, 0.2, 0.95, n, shuffle=False, width=w)
        ts = _strata(rng, 0.05, 0.6, n, shuffle=False, width=w)
        for p, i in zip(ps, self.T_ORDER):
            cfgs.append(("k=2 p<1", 2, float(p), float(ts[i])))
        for p, t in zip((1.0, 2.0, INF), _strata(rng, 0.1, 0.9, 3, shuffle=False, width=w)):
            cfgs.append(("k=2 p>=1", 2, p, float(t)))
        p = float(_strata(rng, 0.3, 0.7, 1, width=w)[0])
        cfgs.append(("k=1 at t_p", 1, p, oracles.t_p(p)))
        p, t = _strata(rng, 0.2, 0.9, 1, width=w)[0], _strata(rng, 0.05, 0.95, 1, width=w)[0]
        cfgs.append(("k=1 p<1", 1, float(p), float(t)))
        p, t = _strata(rng, 0.4, 0.6, 1, width=w)[0], _strata(rng, 0.3, 0.7, 1, width=w)[0]
        cfgs.append(("k=3", 3, float(p), float(t)))
        return [Op(kind, "maximize_phik", (hx.SolveConfig(k=k, p=p, t=t, starts=self.STARTS),))
                for kind, k, p, t in _shuffled(rng, cfgs)]

    def warmup(self, hx) -> list[Op]:
        # the cheapest solve with the workload's starts: set-up stays import-bound
        return [Op("k=1 p=inf", "maximize_phik", (hx.SolveConfig(k=1, p=INF, t=0.5, starts=self.STARTS),))]

    def reference(self, ops: list[Op]) -> list:
        out = []
        for op in ops:
            cfg = op.args[0]
            out.append(oracles.phi1(cfg.p, cfg.t, oracles.switch_point(cfg.p)))
        return out

    def check(self, hx, op: Op, sol, phi) -> str | None:
        cfg = op.args[0]
        k, p, t = cfg.k, cfg.p, cfg.t
        where = f"k={k}, p={p!r}, t={t!r}"
        if k == 1 or p >= 1:
            # Wiener's trick makes the k-th extremum equal phi1 for p >= 1
            if abs(sol.value - phi) > 1e-6:
                return f"{where}: value {sol.value!r}, phi1 {phi!r}"
        elif not phi - 1e-6 <= sol.value <= k ** (1 / p - 1) * phi + 1e-6:
            return f"{where}: value {sol.value!r} outside [{phi!r}, {k ** (1 / p - 1) * phi!r}]"
        b = sol.best
        nrm = oracles.structured_norm(b.scale, b.p, b.lambdas)
        if abs(nrm - 1.0) > 1e-7:
            return f"{where}: ||best|| = {nrm!r}"
        f0 = oracles.structured_origin(b.scale, b.zero_count, b.lambdas)
        if abs(f0 - t) > 1e-9:
            return f"{where}: best(0) = {f0!r}"
        ak = oracles.structured_coeff(b.scale, b.p, b.zero_count, b.lambdas, k).real
        if abs(ak - sol.value) > 1e-7:
            return f"{where}: Re a_k of best is {ak!r}, value {sol.value!r}"
        if op.kind == "k=1 at t_p" and sol.cluster_count < 2:
            return f"{where}: cluster_count {sol.cluster_count} at the switch point"
        return None


# ---------------------------------------------------------------------------
# quadrature: H^p norms and the averaging operator W_k
# ---------------------------------------------------------------------------

_ORACLE_VALUES = json.loads(pathlib.Path(__file__).with_name("oracle_values.json").read_text())


class Quadrature:
    """Bound checks on random polynomials, cusp norms and the sharpness family."""

    name = "quadrature"
    KERNEL = ("interpreted", "tiny", "grid")
    ROUND_S = 0.3
    TRACE_ROUNDS = 8
    POLYS = 4
    KS = (2, 3, 5)
    PS = (0.4, 0.7, 1.0, 2.0, 4.0, INF)
    # (j, range of p) for ||(1 + z^m)^j||_p: at jp <= 1/2 the dyadic pass
    # stalls and the panel pass finishes, above it the dyadic pass converges
    CUSPS = ((1, (0.3, 0.5)), (2, (0.4, 0.5)), (3, (0.4, 0.6)))
    SHARPNESS = ((0.5, 2), (0.3, 3))

    def round_inputs(self, hx, rng) -> list[Op]:
        cfg = hx.QuadConfig(rel_tol=1e-7)  # as verify.run_wiener
        ops = []
        for _ in range(self.POLYS):
            deg = int(rng.integers(1, 33))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = hx.PolyCoeffs(tuple(c))
            for k in self.KS:
                for p in self.PS:
                    ops.append(Op(f"bound p={p}", "wiener_bound_check", (f, k, p), {"cfg": cfg}))
        for j, (lo, hi) in self.CUSPS:
            m = int(rng.integers(1, 5))
            f = hx.PolyCoeffs(tuple(oracles.cusp_coeffs(j, m)))
            ops.append(Op("cusp norm", "norm_hp", (f, float(rng.uniform(lo, hi)))))
        for p, k in self.SHARPNESS:
            for eps in rng.choice(oracles.SHARPNESS_EPS, size=2, replace=False):
                ops.append(Op("sharpness", "sharpness_ratio", (p, k, float(eps))))
        return _shuffled(rng, ops)

    def warmup(self, hx) -> list[Op]:
        f = hx.PolyCoeffs((1.0, 0.5j, -0.25, 0.125))
        return [Op("bound", "wiener_bound_check", (f, 2, 0.7), {"cfg": hx.QuadConfig(rel_tol=1e-7)}),
                Op("cusp norm", "norm_hp", (hx.PolyCoeffs((1.0, 2.0, 1.0)), 0.6)),
                Op("sharpness", "sharpness_ratio", (0.5, 2, 1e-3))]

    def reference(self, ops: list[Op]) -> list:
        out = []
        for op in ops:
            if op.fn == "wiener_bound_check":
                f, k, p = op.args
                c = np.asarray(f.coeffs)
                wc = np.where(np.arange(len(c)) % k == 0, c, 0)
                out.append(oracles.parseval(wc) / oracles.parseval(c) if p == 2.0 else None)
            elif op.fn == "norm_hp":
                f, p = op.args
                out.append(oracles.cusp_norm(_cusp_j(f), p))
            else:
                p, k, eps = op.args
                out.append(_ORACLE_VALUES["sharpness_half_two"][repr(eps)] if (p, k) == (0.5, 2) else None)
        return out

    def check(self, hx, op: Op, res, ref) -> str | None:
        if op.fn == "wiener_bound_check":
            f, k, p = op.args
            where = f"W_{k} bound at p={p} on a degree-{f.degree} polynomial"
            if not res.ratio <= res.bound * (1 + 1e-6):
                return f"{where}: ratio {res.ratio!r} above bound {res.bound!r}"
            if ref is not None and abs(res.ratio - ref) > 1e-9 * ref:
                return f"{where}: ratio {res.ratio!r}, Parseval {ref!r}"
            return None
        if op.fn == "norm_hp":
            f, p = op.args
            if abs(res - ref) > 1e-8 * ref:
                return f"norm of {f.coeffs} at p={p}: {res!r}, Gamma formula {ref!r}"
            return None
        p, k, eps = op.args
        if ref is not None and abs(res - ref) > 1e-9:
            return f"sharpness_ratio({p}, {k}, {eps}) = {res!r}, oracle {ref!r}"
        if not res < k ** (1 - p):
            return f"sharpness_ratio({p}, {k}, {eps}) = {res!r} not below {k ** (1 - p)!r}"
        return None

    def check_round(self, ops: list[Op], results: list) -> str | None:
        """The sharpness ratio of each (p, k) rises as eps falls."""
        for p, k in self.SHARPNESS:
            seen = sorted((op.args[2], res) for op, res in zip(ops, results)
                          if op.fn == "sharpness_ratio" and op.args[:2] == (p, k) and res is not None)
            for (e_small, r_small), (e_big, r_big) in zip(seen, seen[1:]):
                if not r_small > r_big:
                    return (f"sharpness_ratio({p}, {k}, .) does not rise as eps falls: "
                            f"{r_small!r} at {e_small}, {r_big!r} at {e_big}")
        return None


def _cusp_j(f) -> int:
    """j for the coefficients of (1 + z^m)^j: the number of nonzero terms less one."""
    return sum(1 for c in f.coeffs if c != 0) - 1


WORKLOADS = {w.name: w for w in (Solve(), Curves(), Quadrature())}
