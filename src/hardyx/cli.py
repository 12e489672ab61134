"""Command-line surface: closed forms, the solver, figure data, checks.

Exit codes: 0 success, 1 failed verification suite, 2 domain violation,
3 solver or quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .closed_form import _tp_band_log, phi1, t_p
from .solver import SolveConfig, maximize_phik
from .verify import run_suite
from .wiener import sharpness_ratio

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_p(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    p = float(text)
    if not p > 0:
        raise ValueError(f"p must be positive (got {text})")
    return p


def _parse_t(text: str, p: float, allow_tp: bool) -> float:
    if allow_tp and text.strip().lower() == "tp":
        if not (0 < p < 1):
            raise ValueError("the tp keyword needs 0 < p < 1")
        return t_p(p)
    t = float(text)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1] (got {text})")
    return t


def _emit(args, command: str, inputs: dict, results: dict, diagnostics: dict, lines) -> int:
    """Print the --json record, or the human lines; every number must be finite."""
    record = {
        "schema_version": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
    }
    # a NaN or an infinity raises ValueError here, with or without --json
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    if args.json:
        print(text)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phi1(args) -> int:
    p = _parse_p(args.p)
    t = _parse_t(args.t, p, allow_tp=True)
    t0 = time.perf_counter()
    res = phi1(p, t)
    elapsed = time.perf_counter() - t0

    results = {"value": res.value, "regime": res.regime}
    if res.alpha is not None:
        results["alpha"] = res.alpha
    if res.beta is not None:
        results["beta"] = res.beta
    lines = [f"phi1 = {_fmt(res.value)}", f"regime = {res.regime}"]
    if res.alpha is not None:
        lines.append(f"alpha = {_fmt(res.alpha)}")
    if res.beta is not None:
        lines.append(f"beta = {_fmt(res.beta)}")
    return _emit(
        args, "phi1", {"p": "inf" if math.isinf(p) else p, "t": t}, results,
        {"elapsed_s": elapsed}, lines,
    )


def cmd_solve(args) -> int:
    p = _parse_p(args.p)
    t = _parse_t(args.t, p, allow_tp=False)
    l_range = tuple(args.l) if args.l else None
    cfg = SolveConfig(
        k=args.k, p=p, t=t, l_range=l_range, starts=args.starts, seed=args.seed
    )
    t0 = time.perf_counter()
    sol = maximize_phik(cfg)
    elapsed = time.perf_counter() - t0

    per_l = {str(l): v for l, v in sorted(sol.per_l_values.items())}
    inputs = {
        "k": args.k,
        "p": "inf" if math.isinf(p) else p,
        "t": t,
        "l_range": list(cfg.l_range),
        "starts": args.starts,
        "seed": args.seed,
    }
    results = {
        "value": sol.value,
        "l_used": sol.l_used,
        "cluster_count": sol.cluster_count,
        "per_l": per_l,
        "scale": [sol.best.scale.real, sol.best.scale.imag],
        "lambdas": [[z.real, z.imag] for z in sol.best.lambdas],
    }
    diagnostics = {
        "norm_residual": sol.norm_residual,
        "t_residual": sol.t_residual,
        "elapsed_s": elapsed,
    }
    lines = [
        f"value = {_fmt(sol.value)}",
        f"l_used = {sol.l_used}",
        f"cluster_count = {sol.cluster_count}",
        f"norm_residual = {sol.norm_residual:.3e}",
        f"t_residual = {sol.t_residual:.3e}",
        "per-l values:",
    ]
    for l, v in sorted(sol.per_l_values.items()):
        lines.append(f"  l={l}: " + (_fmt(v) if v is not None else "(infeasible)"))
    lines.append("lambdas:")
    for z in sol.best.lambdas:
        lines.append(f"  {_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i")
    return _emit(args, "solve", inputs, results, diagnostics, lines)


_FIG1_PS = (0.5, 1.0, 2.0, math.inf)
_FIG1_STEPS = 512
_FIG2_POINTS = 256


def figure1_rows():
    """(p, t, phi1) over p in {1/2, 1, 2, inf} and t = i/512, i = 0..512."""
    for p in _FIG1_PS:
        for i in range(_FIG1_STEPS + 1):
            t = i / _FIG1_STEPS
            yield p, t, phi1(p, t).value


def figure2_rows():
    """(p, t_p, lower, upper) over p = i/257, i = 1..256.

    The band is 2^{-1/p} < t_p < 2^{-1/p} sqrt(p) (2-p)^{1/p-1/2}.
    """
    for i in range(1, _FIG2_POINTS + 1):
        p = i / (_FIG2_POINTS + 1)
        log_lo, log_hi = _tp_band_log(p)
        yield p, t_p(p), math.exp(log_lo), math.exp(log_hi)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def cmd_figure1(args) -> int:
    _write_csv(args.out, "p,t,phi1", figure1_rows())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_figure2(args) -> int:
    _write_csv(args.out, "p,t_p,lower,upper", figure2_rows())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"{tag}  {c.name:<{width}}  {c.detail}")
        if not c.passed:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_wiener(args) -> int:
    p = _parse_p(args.p)
    eps_list = list(args.eps_list)
    ratios = []
    t0 = time.perf_counter()
    for eps in eps_list:
        ratios.append(sharpness_ratio(p, args.k, eps))
    elapsed = time.perf_counter() - t0
    # formed only once sharpness_ratio has checked p, k and eps: k = 0 with
    # p > 1 would otherwise raise ZeroDivisionError here
    limit = args.k ** (1.0 - p)

    lines = [f"{'eps':>12}  {'ratio':>20}"]
    for eps, r in zip(eps_list, ratios):
        lines.append(f"{eps:>12.3e}  {_fmt(r):>20}")
    lines.append(f"limit k^(1-p) = {_fmt(limit)}")
    return _emit(
        args, "wiener", {"p": p, "k": args.k, "eps_list": eps_list},
        {"eps": eps_list, "ratio": ratios, "limit": limit}, {"elapsed_s": elapsed}, lines,
    )


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyx",
        description="Coefficient extremal problems on Hardy spaces of the disc",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_phi1 = sub.add_parser("phi1", help="closed-form first-coefficient maximum")
    p_phi1.add_argument("--p", required=True, help="exponent; 'inf' for the sup norm")
    p_phi1.add_argument("--t", required=True, help="origin value in [0,1]; 'tp' for the switch point")
    p_phi1.add_argument("--json", action="store_true")
    p_phi1.set_defaults(func=cmd_phi1)

    p_solve = sub.add_parser("solve", help="multistart solve for the k-th coefficient maximum")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--p", required=True)
    p_solve.add_argument("--t", required=True)
    p_solve.add_argument("--l", type=int, nargs="+", help="zero counts to try (default 0..k)")
    p_solve.add_argument("--starts", type=int, default=64)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_f1 = sub.add_parser("figure1", help="CSV of t -> phi1(p, t) curves")
    p_f1.add_argument("--out", required=True)
    p_f1.set_defaults(func=cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="CSV of p -> t_p with its enclosing band")
    p_f2.add_argument("--out", required=True)
    p_f2.set_defaults(func=cmd_figure2)

    p_ver = sub.add_parser("verify", help="run invariant suites")
    p_ver.add_argument(
        "--suite",
        choices=("wiener", "appendix", "theorems", "all"),
        default="all",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_w = sub.add_parser("wiener", help="sharpness table for the averaging bound")
    p_w.add_argument("--p", required=True)
    p_w.add_argument("--k", type=int, required=True)
    p_w.add_argument("--eps-list", type=float, nargs="+", required=True)
    p_w.add_argument("--json", action="store_true")
    p_w.set_defaults(func=cmd_wiener)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (RuntimeError, OSError) as exc:
        # SolverError and QuadratureError are RuntimeErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
