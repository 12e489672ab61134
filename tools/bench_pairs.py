"""Run perfbench/run.py for two commits in alternating pairs; write BENCH_<n>.json.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --block solve:1:10 --block solve:7:3 --block curves:1:3 \\
        --out-base BENCH_1.json --out-head BENCH_2.json

Each commit's files are exported with ``git archive`` into a fresh
temporary directory, and each run is ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` from the root of that export, as a new
process, with T the ``run_seconds`` of BENCHMARK.json.  A block ``W:S:N``
makes N pairs at seed S; pair i runs the base first when i is even and the
head first when it is odd, so a drift in the machine's speed falls on both
sides alike.

Both files hold the commit and its ``src`` tree, and per block the
workload, seed, seconds, each run's metrics, failed share and check
outcome, and the median and quartiles of every metric, taken by
perfbench/steady.py's ``summarize``.  The head's
file adds, per metric, the ratio of the medians and the pairs in which the
head is better, with the direction ("better") of BENCHMARK.json; and per
end-to-end metric how much worse the head's median is than the base's,
relative to the base, whether that is within the metric's ``bound``, and
a verdict by the paired rule of the choosing-metrics method (``compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from steady import summarize as quartiles  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path) -> None:
    """The committed files of rev, and nothing else, under dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    # steady.py's runner runs the checkout's run.py; this one runs the export's
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        q = quartiles([r["metrics"][name] for r in runs])
        out[name] = {"median": q["median"], "q1": q["q1"], "q3": q["q3"],
                     "iqr": q["q3"] - q["q1"]}
    return out


def compare(base: list[dict], head: list[dict], metrics: list[dict]) -> dict:
    """Per metric of BENCHMARK.json's ``end_to_end`` list: head median over
    base median, and the pairs the head wins.

    ``worse_by`` is how much worse the head's median is than the base's,
    relative to the base, in the metric's direction ("better"; negative
    where the head is better), and ``within_bound`` whether it is at most
    the metric's ``bound``.  ``verdict`` is the first that holds of:
    "gain", where the head wins at least 9 of 10 pairs and its median beats
    the base's by more than the base's IQR; "worse than bound", where
    ``worse_by`` exceeds the bound; "unresolved", where the base's IQR
    exceeds the bound relative to its median and some head run does not
    beat every base run; and "within bound".
    """
    sb, sh = summarize(base), summarize(head)
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        b_vals = [sign * b["metrics"][name] for b in base]
        h_vals = [sign * h["metrics"][name] for h in head]
        wins = sum(h > b for b, h in zip(b_vals, h_vals))
        gain = sign * (sh[name]["median"] - sb[name]["median"])
        worse_by = -gain / sb[name]["median"]
        beats_iqr = gain > sb[name]["iqr"]
        if wins >= 0.9 * len(base) and beats_iqr:
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse than bound"
        elif (sb[name]["iqr"] > metric["bound"] * abs(sb[name]["median"])
              and not min(h_vals) > max(b_vals)):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "ratio": sh[name]["median"] / sb[name]["median"],
            "head_better_pairs": wins,
            "pairs": len(base),
            "beats_base_iqr": beats_iqr,
            "worse_by": worse_by,
            "within_bound": worse_by <= metric["bound"],
            "verdict": verdict,
        }
    return out


def _block(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", required=True, help="the commit of the change")
    ap.add_argument("--block", action="append", type=_block, required=True,
                    help="WORKLOAD:SEED:PAIRS, repeatable")
    ap.add_argument("--out-base", type=pathlib.Path, required=True)
    ap.add_argument("--out-head", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {}
    for role, rev in (("base", args.base), ("head", args.head)):
        commit = _git("rev-parse", f"{rev}^{{commit}}")
        sides[role] = {"commit": commit, "src_tree": _git("rev-parse", f"{commit}:src"),
                       "blocks": []}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {role: pathlib.Path(tmp, role) for role in sides}
        for role, tree in trees.items():
            export(sides[role]["commit"], tree)
        for workload, seed, pairs in args.block:
            runs = {"base": [], "head": []}
            for i in range(pairs):
                for role in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    runs[role].append(run_once(trees[role], workload, seed, seconds))
                b, h = runs["base"][-1]["metrics"], runs["head"][-1]["metrics"]
                print(f"{workload} seed {seed} pair {i + 1}/{pairs}: ops_per_s "
                      f"{b['ops_per_s']:.4g} -> {h['ops_per_s']:.4g}", file=sys.stderr, flush=True)
            for role in sides:
                block = {"workload": workload, "seed": seed, "seconds": seconds,
                         "pairs": pairs, "runs": runs[role], "summary": summarize(runs[role])}
                if role == "head":
                    block["against_base"] = compare(runs["base"], runs["head"], bench["end_to_end"])
                sides[role]["blocks"].append(block)

    for role, path in (("base", args.out_base), ("head", args.out_head)):
        record = {"role": role, "paired_with": sides["head" if role == "base" else "base"]["commit"],
                  **sides[role]}
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
