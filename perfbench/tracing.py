"""Spans around the calls one hardyx module makes into another.

The wrappers are installed from here, on the module attributes that the
calling module looks up at run time, so no file of hardyx changes.  Inputs
are never wrapped: the program takes the same code path as in an untraced
run.  Spans are kept in memory and written out when the run ends.

A span is (id, name, site, start, end, parent, op, thread, info).  ``name``
is "<layer>.<function>"; scipy's ``minimize`` gets the layer "scipy", so
that the solver's own time is what it does outside the optimizer.  ``site``
is the module whose attribute was wrapped, ``parent`` the innermost open
span on the same thread (or the operation's root span, for the solver's
pool threads), and ``info`` what the per-layer metrics need: points
evaluated, integrand calls, or the optimizer's nfev, nit and success.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("closed_form", "fn_repr", "hardy_norm", "wiener", "solver")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._op = None
        self._undo = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def operation(self, op_id: int, name: str):
        """The root span of one benchmark operation."""
        sid = next(self._ids)
        self._root, self._op = sid, op_id
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, "bench", t0, t1, None, op_id, threading.get_ident(), None))
            self._root = self._op = None

    def _wrap(self, name: str, site: str, fn, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            op = tracer._op
            stack.append(sid)
            extra = [None]
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs) if info is None else info(fn, args, kwargs, extra)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, site, t0, t1, parent, op,
                                     threading.get_ident(), extra[0]))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, site: str, info=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, site, original, info))

    def install(self, hx):
        """Wrap the cross-module calls of hardyx (and the two fn_repr evaluators)."""
        solver, wiener, hardy_norm, fn_repr = hx.solver, hx.wiener, hx.hardy_norm, hx.fn_repr
        self.patch(solver, "minimize", "scipy.minimize", "solver", _minimize_info)
        self.patch(solver, "sample_boundary", "fn_repr.sample_boundary", "solver", _sample_info)
        self.patch(solver, "taylor_coeff", "fn_repr.taylor_coeff", "solver")
        for attr in ("norm_hp", "norm_hinf"):
            self.patch(solver, attr, f"hardy_norm.{attr}", "solver")
            self.patch(wiener, attr, f"hardy_norm.{attr}", "wiener")
        for attr in ("solve_alpha", "solve_beta"):
            self.patch(solver, attr, f"closed_form.{attr}", "solver")
        self.patch(wiener, "circle_mean", "hardy_norm.circle_mean", "wiener", _circle_mean_info)
        self.patch(hardy_norm, "circle_mean", "hardy_norm.circle_mean", "hardy_norm", _circle_mean_info)
        self.patch(fn_repr.PolyCoeffs, "__call__", "fn_repr.PolyCoeffs.__call__", "fn_repr", _points_info)
        self.patch(fn_repr, "eval_structured", "fn_repr.eval_structured", "fn_repr", _points_info)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _minimize_info(fn, args, kwargs, extra):
    res = fn(*args, **kwargs)
    extra[0] = (kwargs.get("method"), int(res.nfev), int(getattr(res, "nit", 0)), bool(res.success))
    return res


def _sample_info(fn, args, kwargs, extra):
    extra[0] = int(args[1] if len(args) > 1 else kwargs["n"])
    return fn(*args, **kwargs)


def _points_info(fn, args, kwargs, extra):
    # PolyCoeffs.__call__(self, z) and eval_structured(fn, z) both take z second
    extra[0] = int(getattr(args[1] if len(args) > 1 else kwargs["z"], "size", 1))
    return fn(*args, **kwargs)


def _circle_mean_info(fn, args, kwargs, extra):
    g = args[0]
    calls = [0]

    def counted(theta):
        calls[0] += 1
        return g(theta)

    try:
        return fn(counted, *args[1:], **kwargs)
    finally:
        extra[0] = calls[0]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Every per-layer metric, with totals and counts given per round."""
    children = {}
    for s in spans:
        children.setdefault(s[5], []).append(s)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s[1].split(".")[0]
        if layer in self_s:
            t0, t1 = s[3], s[4]
            kids = [(max(c[3], t0), min(c[4], t1)) for c in children.get(s[0], ())]
            self_s[layer] += (t1 - t0) - _union((a, b) for a, b in kids if b > a)

    def dur(name):
        return [s[4] - s[3] for s in spans if s[1] == name]

    minimize = [s for s in spans if s[1] == "scipy.minimize"]
    nm = [s for s in minimize if s[8][0] == "Nelder-Mead"]
    sq = [s for s in minimize if s[8][0] == "SLSQP"]
    crosscheck = [s for s in spans if s[2] == "solver" and s[1].split(".")[0] in ("fn_repr", "hardy_norm")]
    circle = [s for s in spans if s[1] == "hardy_norm.circle_mean"]
    per = 1.0 / rounds
    return {
        "closed_form.phi1_us": 1e6 * _median(dur("closed_form.phi1")),
        "closed_form.t_p_us": 1e6 * _median(dur("closed_form.t_p")),
        "closed_form.self_s": per * self_s["closed_form"],
        "solver.explore_s": per * _union((s[3], s[4]) for s in nm),
        "solver.polish_s": per * _union((s[3], s[4]) for s in sq),
        "solver.crosscheck_s": per * _union((s[3], s[4]) for s in crosscheck),
        "solver.self_s": per * self_s["solver"],
        "solver.nm_runs": per * len(nm),
        "solver.nm_nfev": per * sum(s[8][1] for s in nm),
        "solver.slsqp_nfev": per * sum(s[8][1] for s in sq),
        "solver.slsqp_nit": per * sum(s[8][2] for s in sq),
        "solver.slsqp_success_ratio": sum(s[8][3] for s in sq) / len(sq) if sq else 0.0,
        "solver.crosscheck_points": per * sum(s[8] for s in crosscheck if s[1] == "fn_repr.sample_boundary"),
        "hardy_norm.norm_hp_us": 1e6 * _median(dur("hardy_norm.norm_hp")),
        "hardy_norm.norm_hinf_us": 1e6 * _median(dur("hardy_norm.norm_hinf")),
        "hardy_norm.circle_mean_calls": per * len(circle),
        "hardy_norm.panel_evals": per * sum(s[8] for s in circle),
        "hardy_norm.self_s": per * self_s["hardy_norm"],
        "fn_repr.poly_eval_points": per * sum(s[8] for s in spans if s[1] == "fn_repr.PolyCoeffs.__call__"),
        "fn_repr.structured_eval_points": per * sum(s[8] for s in spans if s[1] == "fn_repr.eval_structured"),
        "fn_repr.self_s": per * self_s["fn_repr"],
        "wiener.bound_check_us": 1e6 * _median(dur("wiener.wiener_bound_check")),
        "wiener.sharpness_ms": 1e3 * _median(dur("wiener.sharpness_ratio")),
        "wiener.self_s": per * self_s["wiener"],
    }
