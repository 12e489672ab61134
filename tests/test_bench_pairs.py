import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"ops_per_s": v, "op_p50_ms": 1.0 / v}} for v in values]


def test_summary_and_pair_wins_follow_each_metrics_direction():
    base = _runs([2.0, 2.2, 2.4, 2.6, 2.8])
    head = _runs([2.5, 2.1, 3.0, 3.2, 3.4])
    summary = bench_pairs.summarize(base)["ops_per_s"]
    assert summary["median"] == 2.4
    assert summary["iqr"] == pytest.approx(summary["q3"] - summary["q1"])
    cmp = bench_pairs.compare(base, head, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    # pair 2 is the one the head loses, on both metrics
    assert cmp["ops_per_s"]["head_better_pairs"] == 4
    assert cmp["op_p50_ms"]["head_better_pairs"] == 4
    assert cmp["ops_per_s"]["ratio"] == pytest.approx(3.0 / 2.4)
    assert cmp["ops_per_s"]["beats_base_iqr"] == (3.0 - 2.4 > summary["iqr"])
