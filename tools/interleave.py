"""Time two commits' hardyx in one process, each operation on both back to back.

    python3 tools/interleave.py --base HEAD~1 --head HEAD --workload solve \\
        --seeds 1,2,3,4 --reps 3

Each commit's ``src/hardyx`` is exported with ``git archive`` into one
temporary directory, as the packages ``hardyx_base`` and ``hardyx_head``
(the package imports itself only relatively).  The operations come from
the head's perfbench/workloads.py: rep r of seed s is round r + 1 of
perfbench/run.py's generator ``default_rng([s, r + 1])``, drawn once for
each side through that side's package, so no input repeats across reps.
After each side's warm-up, every operation runs on both sides back to
back, the base first in even reps and the head first in odd ones, so a
change in the machine's speed falls on both alike.

It prints each side's total seconds and failed operations, the ratio of
the totals (base over head: above 1 where the head is faster), and the
median of the per-operation ratios.  This is evidence about one layer
beside a BENCH pair of tools/bench_pairs.py, not a claim: it has no
process start, no set-up and no speed scaling.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import _git, export  # noqa: E402

SIDES = ("base", "head")


def _seconds(hx, op) -> tuple[float, bool]:
    t0 = time.perf_counter()
    try:
        getattr(hx, op.fn)(*op.args, **op.kwargs)
        ok = True
    except Exception:  # a failed operation is counted, as perfbench counts it
        ok = False
    return time.perf_counter() - t0, ok


def interleave(hxs: dict, workload, seeds: list[int], reps: int) -> dict:
    """Per side, the list of (seconds, ok) of every operation, in one order."""
    for hx in hxs.values():
        for op in workload.warmup(hx):
            getattr(hx, op.fn)(*op.args, **op.kwargs)
    times = {side: [] for side in SIDES}
    for rep in range(reps):
        order = SIDES if rep % 2 == 0 else SIDES[::-1]
        for seed in seeds:
            ops = {side: workload.round_inputs(hx, np.random.default_rng([seed, rep + 1]))
                   for side, hx in hxs.items()}
            for i in range(len(ops["head"])):
                for side in order:
                    times[side].append(_seconds(hxs[side], ops[side][i]))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", required=True, help="the commit of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated perfbench seeds")
    ap.add_argument("--reps", type=int, default=1)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    commits = {side: _git("rev-parse", f"{rev}^{{commit}}")
               for side, rev in (("base", args.base), ("head", args.head))}
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        pkgs = pathlib.Path(tmp, "pkgs")
        pkgs.mkdir()
        for side, commit in commits.items():
            export(commit, pathlib.Path(tmp, side))
            pathlib.Path(tmp, side, "src", "hardyx").rename(pkgs / f"hardyx_{side}")
        sys.path[:0] = [str(pkgs), str(pathlib.Path(tmp, "head", "perfbench"))]
        hxs = {side: importlib.import_module(f"hardyx_{side}") for side in SIDES}
        workloads = importlib.import_module("workloads")
        if args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        times = interleave(hxs, workloads.WORKLOADS[args.workload], seeds, args.reps)

    total = {side: sum(t for t, _ in times[side]) for side in SIDES}
    n = len(times["head"])
    print(f"{args.workload} seeds {args.seeds}, {args.reps} reps: {n} operations a side")
    for side in SIDES:
        failed = sum(not ok for _, ok in times[side])
        print(f"{side} {commits[side][:12]}: {total[side]:.4f} s, {failed} failed")
    per_op = [b / h for (b, _), (h, _) in zip(times["base"], times["head"]) if h > 0]
    print(f"base/head: total {total['base'] / total['head']:.4f}, "
          f"median per operation {statistics.median(per_op):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
