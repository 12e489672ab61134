"""Solve fixed sets of solver configurations and compare two runs of a set.

    python3 tools/solver_check.py --write    # rewrite tests/data/solver_reference.json
    python3 tools/solver_check.py --check    # solve the reference's entries again and compare
    python3 tools/solver_check.py --sweep > sweep.jsonl
    python3 tools/solver_check.py --sweep --starts 64 > sweep64.jsonl
    python3 tools/solver_check.py --compare before.jsonl after.jsonl

Every set keeps one record per solve: ``sources``, where the configuration
comes from; ``config``; then, from one ``maximize_phik`` call, ``value``,
``l_used``, ``cluster_count`` and ``per_l_values``, or the type of the
error the call raised, under ``error``.

The reference is every configuration that tests/test_solver.py and
criteria 7-9 of tests/test_acceptance.py solve, collected by running those
tests with ``hardyx.solver.maximize_phik`` wrapped; the 13 configurations
of the first timed round of perfbench's ``solve`` workload at seeds 1 and
2, read through perfbench/workloads.py; and the solves of NOTED below.

The sweep draws from ``numpy.random.default_rng(SEED)``: 80 solves with p
log-uniform in [1e-3, 0.03] (source "tiny p"), then 150 with p
log-uniform in [1e-3, 8] and every tenth at p = inf (source "domain"),
then 40 more like "domain" but at t = 0 (source "pinned"), where f(0) = 0
fixes lam_0 = 0 and the polish runs unconstrained, then 20 at t = 1 with
every fifth at p = inf (source "constant"), where f = 1 is the only
admissible function.  Each has k uniform in {1, 2, 3}, t uniform in
[0, 1] outside "pinned" and "constant", the default ``l_range``,
starts = 4 (``--starts`` sets another count) and seed 0.  The parts draw in that order, each k, p and t in
turn (a part at a fixed t draws no t), so adding a part after the others
leaves their solves as they were, and so does another ``--starts``.
``--sweep`` prints one record a line.  ``--compare`` takes two sweeps at
different starts as it takes two runs at the same starts, which measures
how a value depends on the number of starts.

``--check`` compares each reference entry with a fresh solve of its
configuration, ``--compare`` two outputs of ``--sweep`` record by record.
Both fail when a solve is gained or lost, an error type changes, a
``value`` moves by more than 1e-9 or an ``l_used`` changes.  They print
each failure and, without failing on them, each ``cluster_count``
difference, each ``per_l_values`` difference (a zero count that turned
feasible or infeasible, or moved by more than 1e-9) and, on a ``BITS``
line, each ``value`` that moved, but by at most 1e-9, with the entry's
note where it has one.  Then, per part (the file, perfbench round or
sweep part of a record's first source), how many solves succeed on each
side; of those that succeed on both, how many return the same value to
the bit, how many values rose and how many fell by more than 1e-9, and
the largest fall relative to the value before.  A change that moves
digits lists every printed difference with its explanation.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hardyx  # noqa: E402

REFERENCE = ROOT / "tests" / "data" / "solver_reference.json"
TESTS = [
    "tests/test_solver.py",
    "tests/test_acceptance.py::test_criterion_07_solver_vs_closed_form",
    "tests/test_acceptance.py::test_criterion_08_nonuniqueness_at_switch",
    "tests/test_acceptance.py::test_criterion_09_exploration_k2_small_p",
]
PERFBENCH_SEEDS = (1, 2)
SEED = 2020
# (source, solves, largest p, every how many p = inf, the fixed t or None)
PARTS = (("tiny p", 80, 0.03, None, None), ("domain", 150, 8.0, 10, None),
         ("pinned", 40, 8.0, 10, 0.0), ("constant", 20, 8.0, 5, 1.0))
STARTS = 4
VALUE_TOL = 1e-9

# Entries whose figures the parent's own arithmetic does not fix: each note
# gives the evidence, taken at the commit that wrote the reference, and the
# solve joins the set if the tests do not make it.  "ulp runs" scale every
# norm that hardyx.solver._series_batch returns by 1 + j 2^-52, j in
# {1, -1, 2, -2, 4}.
NOTED = [
    {"source": "perfbench solve seed 1 round 2: k=2 p<1",
     "config": {"k": 2, "p": 0.25191334389282305, "t": 0.3254741592410315,
                "l_range": [0, 1, 2], "starts": 32, "seed": 0},
     "note": "cluster_count reads 1 at seeds 0, 1 and 2 with 32 and 64 starts and in all 5 "
             "ulp runs, and value moves by 4.7e-13 between these solves; before clusters "
             "were matched as sets it read 1 or 2 with the starts, the second cluster one "
             "leader, an l = 0 configuration 1.6e-11 below the best"},
    {"source": "tests/test_solver.py::test_t_zero_hits_the_peak_value",
     "config": {"k": 2, "p": 0.5, "t": 0.0, "l_range": [0, 1, 2], "starts": 64, "seed": 0},
     "note": "cluster_count is 16 here and in all 5 ulp runs: f(0) = 0 leaves the "
             "maximizers a continuum, so nearly every leader is a cluster of its own"},
    {"source": "tests/test_solver.py::test_polish_ends_at_kkt_points[0.0]",
     "config": {"k": 2, "p": 0.5, "t": 0.0, "l_range": [0, 1, 2], "starts": 32, "seed": 0},
     "note": "cluster_count is 16 here, at seeds 1 and 2 and in all 5 ulp runs, as the "
             "continuum at starts = 64 explains"},
]


def _config(cfg) -> dict:
    return {"k": int(cfg.k), "p": float(cfg.p), "t": float(cfg.t),
            "l_range": [int(l) for l in cfg.l_range], "starts": int(cfg.starts),
            "seed": int(cfg.seed)}


def _test_configs() -> list[tuple[str, dict]]:
    """(test id, config) of every solve the tests make, first call first."""
    import pytest

    solver = hardyx.solver
    original = solver.maximize_phik
    seen: list[tuple[str, dict]] = []
    current = ["?"]

    def recorded(cfg):
        seen.append((current[0], _config(cfg)))
        return original(cfg)

    class Recorder:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            current[0] = item.nodeid

    # the test modules import the name at collection, after this patch
    solver.maximize_phik = recorded
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            *[str(ROOT / t) for t in TESTS]], plugins=[Recorder()])
    finally:
        solver.maximize_phik = original
    if code != 0:
        sys.exit(f"solver_check: the tests failed (exit {code}); nothing written")
    return seen


def _perfbench_configs() -> list[tuple[str, dict]]:
    from workloads import WORKLOADS

    out = []
    for seed in PERFBENCH_SEEDS:
        # round r of run.py draws from default_rng([seed, r + 1]); this is r = 0
        for op in WORKLOADS["solve"].round_inputs(hardyx, np.random.default_rng([seed, 1])):
            out.append((f"perfbench solve seed {seed} round 1: {op.kind}", _config(op.args[0])))
    return out


def sweep_configs(starts: int = STARTS) -> list[tuple[str, dict]]:
    """(part, config) of every solve of the sweep, in the order drawn, each
    with the given starts."""
    rng = np.random.default_rng(SEED)
    out = []
    for part, n, p_max, inf_every, fixed_t in PARTS:
        for i in range(n):
            k = int(rng.integers(1, 4))
            p = float(math.exp(rng.uniform(math.log(1e-3), math.log(p_max))))
            t = float(rng.uniform(0.0, 1.0)) if fixed_t is None else fixed_t
            if inf_every and i % inf_every == inf_every - 1:
                p = math.inf
            out.append((part, _config(hardyx.SolveConfig(k=k, p=p, t=t, starts=starts))))
    return out


def solve(config: dict) -> dict:
    """The figures a record keeps for one configuration."""
    try:
        sol = hardyx.maximize_phik(hardyx.SolveConfig(**config))
    except Exception as e:  # a failure is a result to record, typed or not
        return {"error": type(e).__name__}
    return {"value": sol.value, "l_used": sol.l_used, "cluster_count": sol.cluster_count,
            "per_l_values": {str(l): v for l, v in sol.per_l_values.items()}}


def _key(config: dict) -> tuple:
    return (config["k"], config["p"], config["t"], tuple(config["l_range"]),
            config["starts"], config["seed"])


def write(path: pathlib.Path) -> int:
    entries, index = [], {}
    notes = {_key(n["config"]): n for n in NOTED}
    listed = [(n["source"], n["config"]) for n in NOTED]
    for source, config in _test_configs() + _perfbench_configs() + listed:
        key = _key(config)
        if key in index:
            sources = entries[index[key]]["sources"]
            if source not in sources:
                sources.append(source)
            continue
        index[key] = len(entries)
        entry = {"sources": [source], "config": config, **solve(config)}
        if key in notes:
            entry["note"] = notes[key]["note"]
        entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(json.dumps(e) for e in entries)
    path.write_text(f"[\n{rows}\n]\n")
    print(f"wrote {len(entries)} entries to {path}")
    return 0


def compare(entry: dict, got: dict) -> tuple[list[str], list[str]]:
    """(failures, differences) of a solve against the record it repeats."""
    if "error" in entry or "error" in got:
        if entry.get("error") == got.get("error"):
            return [], []
        change = "gained" if "value" in got else "lost" if "value" in entry else "error"
        return [f"{change} {entry.get('error', entry.get('value'))} -> "
                f"{got.get('error', got.get('value'))}"], []
    fails, diffs = [], []
    gap = abs(got["value"] - entry["value"])
    if gap > VALUE_TOL:
        fails.append(f"moved {entry['value']!r} -> {got['value']!r} (gap {gap:.3g})")
    if got["l_used"] != entry["l_used"]:
        fails.append(f"l_used {entry['l_used']} -> {got['l_used']}")
    if got["cluster_count"] != entry["cluster_count"]:
        diffs.append(f"cluster_count {entry['cluster_count']} -> {got['cluster_count']}")
    for l, ref in entry["per_l_values"].items():
        new = got["per_l_values"].get(l)
        if (ref is None) != (new is None) or (ref is not None and not abs(new - ref) <= VALUE_TOL):
            diffs.append(f"per_l_values[{l}] {ref!r} -> {new!r}")
    return fails, diffs


def report(pairs) -> bool:
    """Print what moved in each (record, repeat) pair, then the counts; True when none fails."""
    ok, worst, parts = True, 0.0, {}
    for entry, got in pairs:
        fails, diffs = compare(entry, got)
        bits = []
        count = parts.setdefault(entry["sources"][0].split(":")[0], collections.Counter())
        count["solves"] += 1
        count["before"] += "value" in entry
        count["after"] += "value" in got
        if "value" in entry and "value" in got:
            count["both"] += 1
            count["same"] += got["value"] == entry["value"]  # JSON keeps every double exactly
            gap = abs(got["value"] - entry["value"])
            worst = max(worst, gap)
            if 0 < gap <= VALUE_TOL:
                bits.append(f"value {entry['value']!r} -> {got['value']!r} (gap {gap:.3g})")
            count["rose"] += got["value"] - entry["value"] > VALUE_TOL
            if entry["value"] - got["value"] > VALUE_TOL:
                # a value is >= 0, so one that falls was positive
                count["fell"] += 1
                count["largest fall"] = max(count["largest fall"], 1 - got["value"] / entry["value"])
        if fails or diffs or bits:
            where = " ".join(f"{key}={v!r}" for key, v in entry["config"].items())
            for kind, lines in (("FAIL", fails), ("DIFF", diffs), ("BITS", bits)):
                for line in lines:
                    print(f"{kind} {where}: {line}")
            if "note" in entry:
                print(f"     note: {entry['note']}")
            print(f"     from {entry['sources'][0]}")
        ok = ok and not fails
    for part, c in parts.items():
        print(f"{part}: {c['before']} -> {c['after']} of {c['solves']} succeed, {c['same']} of "
              f"the {c['both']} on both sides identical to the bit, {c['rose']} rose and "
              f"{c['fell']} fell by more than {VALUE_TOL:g}, largest relative fall "
              f"{c['largest fall']:.3g}")
    print(f"{sum(c['solves'] for c in parts.values())} entries, largest value gap {worst:.3g}: "
          f"{'pass' if ok else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the reference from this tree")
    mode.add_argument("--check", action="store_true", help="compare this tree with the reference")
    mode.add_argument("--sweep", action="store_true", help="solve the sweep, one record a line")
    mode.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("BEFORE", "AFTER"),
                      help="compare two outputs of --sweep")
    ap.add_argument("--reference", type=pathlib.Path, default=REFERENCE)
    ap.add_argument("--starts", type=int, default=STARTS,
                    help=f"the starts of every sweep solve (default {STARTS})")
    args = ap.parse_args(argv)
    if args.write:
        return write(args.reference)
    if args.sweep:
        for part, config in sweep_configs(args.starts):
            print(json.dumps({"sources": [part], "config": config, **solve(config)}), flush=True)
        return 0
    if args.check:
        entries = json.loads(args.reference.read_text())
        pairs = ((entry, solve(entry["config"])) for entry in entries)
    else:
        before, after = ([json.loads(line) for line in path.read_text().splitlines()]
                         for path in args.compare)
        def solves(records):  # each record's configuration, apart from its starts
            return [dict(e["config"], starts=None) for e in records]

        if solves(before) != solves(after):
            sys.exit("solver_check: the two outputs list different solves")
        pairs = zip(before, after)
    return 0 if report(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
