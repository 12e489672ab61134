import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


_METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def _runs(values):
    return [{"metrics": {"ops_per_s": v, "op_p50_ms": 1.0 / v}} for v in values]


def test_summary_and_pair_wins_follow_each_metrics_direction():
    base = _runs([2.0, 2.2, 2.4, 2.6, 2.8])
    head = _runs([2.5, 2.1, 3.0, 3.2, 3.4])
    summary = bench_pairs.summarize(base)["ops_per_s"]
    assert summary["median"] == 2.4
    assert summary["iqr"] == pytest.approx(summary["q3"] - summary["q1"])
    cmp = bench_pairs.compare(base, head, _METRICS)
    # pair 2 is the one the head loses, on both metrics
    assert cmp["ops_per_s"]["head_better_pairs"] == 4
    assert cmp["op_p50_ms"]["head_better_pairs"] == 4
    assert cmp["ops_per_s"]["ratio"] == pytest.approx(3.0 / 2.4)
    assert cmp["ops_per_s"]["beats_base_iqr"] == (3.0 - 2.4 > summary["iqr"])


def test_worse_by_is_relative_to_the_base_in_each_metrics_direction():
    base = _runs([4.0, 4.0, 4.0])
    # 10% fewer operations a second: within the bound on both metrics
    cmp = bench_pairs.compare(base, _runs([3.6, 3.6, 3.6]), _METRICS)
    assert cmp["ops_per_s"]["worse_by"] == pytest.approx(0.1)
    assert cmp["op_p50_ms"]["worse_by"] == pytest.approx(4.0 / 3.6 - 1.0)
    assert cmp["ops_per_s"]["within_bound"] and cmp["op_p50_ms"]["within_bound"]
    # 40% fewer: outside the bound on both
    cmp = bench_pairs.compare(base, _runs([2.4, 2.4, 2.4]), _METRICS)
    assert cmp["ops_per_s"]["worse_by"] == pytest.approx(0.4)
    assert cmp["op_p50_ms"]["worse_by"] == pytest.approx(4.0 / 2.4 - 1.0)
    assert not cmp["ops_per_s"]["within_bound"] and not cmp["op_p50_ms"]["within_bound"]
    # a better head is worse by a negative amount, within any bound
    cmp = bench_pairs.compare(base, _runs([5.0, 5.0, 5.0]), _METRICS)
    assert cmp["ops_per_s"]["worse_by"] == pytest.approx(-0.25)
    assert cmp["op_p50_ms"]["worse_by"] == pytest.approx(-0.2)
    assert cmp["ops_per_s"]["within_bound"] and cmp["op_p50_ms"]["within_bound"]
