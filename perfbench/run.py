"""Benchmark hardyx end to end on one workload, or trace its layers.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: hardyx is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, and the spans go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from speed import Scaler, kernel_seconds, reference_seconds
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
CLI_REPS = 3
# the layer whose public function each operation calls
LAYER_OF = {"phi1": "closed_form", "t_p": "closed_form", "maximize_phik": "solver",
            "wiener_bound_check": "wiener", "sharpness_ratio": "wiener", "norm_hp": "hardy_norm"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_hardyx():
    """hardyx from this checkout's src, and nowhere else."""
    if not (SRC / "hardyx" / "__init__.py").is_file():
        sys.exit(f"run.py: no hardyx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardyx

    if pathlib.Path(hardyx.__file__).resolve().parent != SRC / "hardyx":
        sys.exit(f"run.py: imported hardyx from {hardyx.__file__}, not from {SRC}")
    return hardyx


def _call(hx, op):
    return getattr(hx, op.fn)(*op.args, **op.kwargs)


def _rng(seed: int, r: int):
    return np.random.default_rng([seed, r])


def setup_probe(workload, seed: int) -> None:
    """What a fresh process pays before its first timed operation."""
    hx = _import_hardyx()
    workload.round_inputs(hx, _rng(seed, 0))
    for op in workload.warmup(hx):
        _call(hx, op)
    print("ready", flush=True)
    # the speed of this process, which the parent cannot see from its own
    print(kernel_seconds(workload.KERNEL), flush=True)


def _fresh_process_seconds(argv: list[str], until_line: str | None = None) -> tuple[float, str]:
    """Wall time of a fresh interpreter to its exit, or to a line it prints.

    With ``until_line``, also returns the line printed after that one.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    following = ""
    try:
        if until_line is None:
            _, err = proc.communicate(timeout=120)
            elapsed = time.perf_counter() - t0
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            following = proc.stdout.readline()
            _, err = proc.communicate(timeout=120)
            if line.strip() != until_line:
                raise RuntimeError(f"{argv} printed {line!r}: {err}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {err}")
    return elapsed, following


class SetupProbes:
    """Set-up time of fresh processes, spread over the run.

    Consecutive probes share the machine's speed of the moment, so they
    are taken at even intervals over the measured phase instead of in one
    burst.  Each probe is scaled by the speed kernel it timed itself once
    set up: it may run on another CPU than this process, at another speed.
    """

    def __init__(self, workload, seed: int, seconds: float):
        self._argv = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                      "--seed", str(seed), "--setup-probe"]
        self._reference = reference_seconds(workload.KERNEL)
        self._every = seconds / SETUP_REPS
        self._next = time.perf_counter()
        self.raw, self.scaled = [], []

    def _probe(self):
        t, kernel = _fresh_process_seconds(self._argv, "ready")
        self.raw.append(t)
        self.scaled.append(t * self._reference / float(kernel))
        self._next = time.perf_counter() + self._every

    def tick(self):
        if len(self.raw) < SETUP_REPS and time.perf_counter() >= self._next:
            self._probe()

    def finish(self) -> tuple[float, float]:
        """Median set-up time, raw and at the reference speed."""
        while len(self.raw) < SETUP_REPS:
            self._probe()
        return statistics.median(self.raw), statistics.median(self.scaled)


def cli_metrics() -> dict:
    phi1 = [sys.executable, "-m", "hardyx", "phi1", "--p", "0.5", "--t", "0.3"]
    count = subprocess.run([sys.executable, "-c", "import sys, hardyx; print(len(sys.modules))"],
                           env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=True)
    return {
        "cli.phi1_process_s": statistics.median(_fresh_process_seconds(phi1)[0] for _ in range(CLI_REPS)),
        "cli.import_modules": float(count.stdout.split()[-1]),
    }


def measure(hx, workload, seed: int, rounds: int, tracer=None, probes=None):
    """Run whole rounds and check every result against its reference.

    Returns the scaler holding each operation's time (scaled to the
    reference speed) and outcome, the raw timed seconds, counts of
    attempted and failed operations, the failures by message and the
    messages of failed checks.
    """
    scaler = Scaler(workload.KERNEL)
    raw, attempted, failed, errors, problems = 0.0, 0, 0, {}, []
    for r in range(rounds):
        ops = workload.round_inputs(hx, _rng(seed, r + 1))
        refs = workload.reference(ops)
        scaler.tick()
        results = []
        for op, ref in zip(ops, refs):
            attempted += 1
            res, err = None, None
            span = (tracer.operation(attempted, f"{LAYER_OF[op.fn]}.{op.fn}")
                    if tracer is not None else contextlib.nullcontext())
            t0 = time.perf_counter()
            with span:
                try:
                    res = _call(hx, op)
                except Exception as e:  # a failed operation is counted, not fatal
                    err = e
            dt = time.perf_counter() - t0
            raw += dt
            scaler.record(dt, err is None)
            scaler.tick()
            if probes is not None:
                probes.tick()
            results.append(res)
            if err is not None:
                failed += 1
                key = f"{op.kind}: {type(err).__name__}: {str(err)[:60]}"
                errors[key] = errors.get(key, 0) + 1
                continue
            msg = workload.check(hx, op, res, ref)
            if msg:
                problems.append(msg)
        if hasattr(workload, "check_round"):
            msg = workload.check_round(ops, results)
            if msg:
                problems.append(msg)
    scaler.sample()
    return scaler, raw, attempted, failed, errors, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # the program runs at its defaults: the solver's own thread count
    os.environ.pop("HARDYX_THREADS", None)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    hx = _import_hardyx()
    for op in workload.warmup(hx):
        _call(hx, op)

    tracer = probes = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(hx)
        rounds = workload.TRACE_ROUNDS
    else:
        rounds = max(1, round(args.seconds / workload.ROUND_S))
        probes = SetupProbes(workload, args.seed, args.seconds)
    try:
        scaler, raw, attempted, failed, errors, problems = measure(
            hx, workload, args.seed, rounds, tracer, probes)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for key, n in sorted(errors.items()):
        print(f"failed x{n}: {key}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)
    ops_per_s = (attempted - failed) / math.fsum(t for t, _ in scaler.scaled)
    ok_times = [t for t, ok in scaler.scaled if ok]
    print(f"{args.workload}: {rounds} rounds, {attempted} operations, {failed} failed, "
          f"{len(problems)} checks failed; timed {raw:.3f} s raw, "
          f"{math.fsum(t for t, _ in scaler.scaled):.3f} s at reference speed")

    if tracer is None:
        setup, setup_scaled = probes.finish()
        print(f"setup {setup:.3f} s raw, {setup_scaled:.3f} s at reference speed")
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(ok_times), "ms"),
            "setup_s": (setup_scaled, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from tracing import layer_metrics

        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"traced: {len(tracer.spans)} spans, ops_per_s {ops_per_s:.6g}")
        units = {name["name"]: name["unit"] for name in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        values = layer_metrics(tracer.spans, rounds)
        values.update(cli_metrics())
        # times are reported at the reference speed, like the end-to-end ones
        scale = {"us": scaler.factor(), "ms": scaler.factor(), "s": scaler.factor()}
        metrics = {name: (values[name] * scale.get(u, 1.0), u) for name, u in units.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
