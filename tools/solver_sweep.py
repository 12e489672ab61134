"""Solve a fixed-seed sweep over the solver's domain; print one JSON line per solve.

    python3 tools/solver_sweep.py > sweep.jsonl
    python3 tools/solver_sweep.py --compare before.jsonl after.jsonl

The sweep draws from ``numpy.random.default_rng(SEED)``: 80 solves with p
log-uniform in [1e-3, 0.03], then 150 with p log-uniform in [1e-3, 8] and
every tenth at p = inf.  Each has k uniform in {1, 2, 3}, t uniform in
[0, 1], starts = 4 and seed 0.  A line holds the configuration, then the
solve's ``value`` or the type of the error it raised, under ``error``.

``--compare`` reads two such outputs, solve by solve, and prints every
solve that succeeds in one and not the other, every error type that
changed and every value that moved by more than 1e-9, then how many of
each part's solves succeed on each side, and how many of those that
succeed on both return the same value to the bit.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hardyx  # noqa: E402

SEED = 2020
PARTS = (("tiny p", 80, 0.03, None), ("domain", 150, 8.0, 10))
STARTS = 4
VALUE_TOL = 1e-9


def configs() -> list[dict]:
    rng = np.random.default_rng(SEED)
    out = []
    for part, n, p_max, inf_every in PARTS:
        for i in range(n):
            k = int(rng.integers(1, 4))
            p = float(math.exp(rng.uniform(math.log(1e-3), math.log(p_max))))
            t = float(rng.uniform(0.0, 1.0))
            if inf_every and i % inf_every == inf_every - 1:
                p = math.inf
            out.append({"part": part, "k": k, "p": p, "t": t, "starts": STARTS, "seed": 0})
    return out


def solve(config: dict) -> dict:
    cfg = hardyx.SolveConfig(**{key: v for key, v in config.items() if key != "part"})
    try:
        return {"value": hardyx.maximize_phik(cfg).value}
    except Exception as e:  # the sweep records every failure, typed or not
        return {"error": type(e).__name__}


def compare(before: list[dict], after: list[dict]) -> None:
    counts = {}
    for a, b in zip(before, after, strict=True):
        where = {key: a[key] for key in ("part", "k", "p", "t")}
        if where != {key: b[key] for key in where}:
            sys.exit(f"solver_sweep: the two outputs list different solves at {where}")
        ok = counts.setdefault(a["part"], [0, 0, 0, 0, 0])
        ok[0] += 1
        ok[1] += "value" in a
        ok[2] += "value" in b
        if "value" in a and "value" in b:
            ok[3] += 1
            ok[4] += b["value"] == a["value"]  # JSON keeps every double exactly
            if abs(b["value"] - a["value"]) > VALUE_TOL:
                print(f"moved {where}: {a['value']!r} -> {b['value']!r}")
        elif a.get("error") != b.get("error"):
            gained = "gained" if "value" in b else "lost" if "value" in a else "error"
            print(f"{gained} {where}: {a.get('value', a.get('error'))} -> "
                  f"{b.get('value', b.get('error'))}")
    for part, (n, ok_a, ok_b, both, same) in counts.items():
        print(f"{part}: {ok_a} -> {ok_b} of {n} succeed, {same} of the {both} on both sides "
              f"identical to the bit")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("BEFORE", "AFTER"),
                    help="compare two outputs of the sweep instead of solving")
    args = ap.parse_args(argv)
    if args.compare:
        before, after = ([json.loads(line) for line in path.read_text().splitlines()]
                         for path in args.compare)
        compare(before, after)
        return 0
    for config in configs():
        print(json.dumps({**config, **solve(config)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
