"""Check that the benchmark repeats: two sets of runs on one commit must agree.

    python3 perfbench/steady.py --runs 5
    python3 perfbench/steady.py --workloads curves --runs 5 --first-seed 11

For each workload it makes two sets of ``--runs`` untraced runs, each run
with its own seed, and prints every end-to-end metric's median and
quartiles per set.  It then checks, against the bounds in BENCHMARK.json:

* each set's spread (q3 - q1) / median is within the bound, setup_s aside;
* the second set's median is not worse than the first's by more than the
  bound;
* the share of failed operations is exactly the same in every run;
* every run reports correct: true.

Then it makes two traced runs with the first seed: every count metric must
repeat exactly, and the tracing overhead is the traced run's ops_per_s
against the untraced median of the same workload.  A summary goes to
perfbench/out/steady.json.  The exit code is 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    report, bad = {}, []
    for w in args.workloads.split(","):
        seeds = [args.first_seed + i for i in range(2 * args.runs)]
        runs = []
        for s in seeds:
            res, _ = run_once(w, s, args.seconds, 0)
            runs.append(res)
            print(f"{w} seed {s}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}", flush=True)
        sets = [runs[:args.runs], runs[args.runs:]]
        entry = {"seeds": seeds, "metrics": {}}
        for name, spec in bounds.items():
            a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
            sa, sb = summarize(a), summarize(b)
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if spec["better"] == "higher":
                worse = -worse
            entry["metrics"][name] = {"first": sa, "second": sb, "all": summarize(a + b),
                                      "second_worse_by": worse, "bound": spec["bound"]}
            if name != "setup_s" and max(sa["spread"], sb["spread"]) > spec["bound"]:
                bad.append(f"{w} {name}: spread {sa['spread']:.3f} / {sb['spread']:.3f} "
                           f"above bound {spec['bound']}")
            if worse > spec["bound"]:
                bad.append(f"{w} {name}: second median worse by {worse:.3f}, bound {spec['bound']}")
        shares = {(r["failed"], r["attempted"]) for r in runs}
        if len({Fraction(f, n) for f, n in shares}) != 1:
            bad.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for r in runs):
            bad.append(f"{w}: a run reported correct: false")

        traced = []
        for _ in range(2):
            res, out = run_once(w, args.first_seed, args.seconds, 1)
            traced.append((res, float(re.search(r"traced: .* ops_per_s (\S+)", out).group(1))))
        c1, c2 = ({k: r["metrics"][k]["value"] for k in counts} for r, _ in traced)
        if c1 != c2:
            bad.append(f"{w}: traced counts differ: "
                       + ", ".join(f"{k} {c1[k]} vs {c2[k]}" for k in counts if c1[k] != c2[k]))
        untraced = entry["metrics"]["ops_per_s"]["all"]["median"]
        entry["trace_overhead"] = [1.0 - ops / untraced for _, ops in traced]
        entry["per_layer"] = traced[0][0]["metrics"]
        report[w] = entry

        print(f"\n{w}: median [q1, q3] spread, first set | second set")
        for name, m in entry["metrics"].items():
            sa, sb = m["first"], m["second"]
            print(f"  {name:12s} {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] {sa['spread']:.3f}"
                  f" | {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] {sb['spread']:.3f}"
                  f"  second worse by {m['second_worse_by']:+.3f} (bound {m['bound']})")
        print(f"  tracing overhead on ops_per_s: "
              + ", ".join(f"{x:+.3f}" for x in entry["trace_overhead"]) + "\n", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"report": report, "problems": bad}, indent=1))
    for msg in bad:
        print(f"NOT STEADY: {msg}")
    print("steady" if not bad else f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
