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


def test_a_gain_needs_nine_pairs_in_ten_and_more_than_the_base_iqr():
    base_values = [9.0, 9.5, 10.0, 10.5, 11.0, 9.8, 10.2, 9.6, 10.4, 10.1]
    base = _runs(base_values)
    head = [1.5 * v for v in base_values]
    head[0] = 8.0  # the one pair the head loses
    cmp = bench_pairs.compare(base, _runs(head), _METRICS)
    for name in ("ops_per_s", "op_p50_ms"):
        assert cmp[name]["head_better_pairs"] == 9 and cmp[name]["beats_base_iqr"]
        assert cmp[name]["verdict"] == "gain"
    # two lost pairs: the better median is no gain
    head[1] = 9.0
    cmp = bench_pairs.compare(base, _runs(head), _METRICS)
    assert cmp["ops_per_s"]["head_better_pairs"] == 8
    assert cmp["ops_per_s"]["verdict"] == "within bound"
    # every pair won, but by less than the base's IQR
    cmp = bench_pairs.compare(base, _runs([v + 0.01 for v in base_values]), _METRICS)
    assert cmp["ops_per_s"]["head_better_pairs"] == 10 and not cmp["ops_per_s"]["beats_base_iqr"]
    assert cmp["ops_per_s"]["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    base_values = [float(v) for v in range(1, 11)]  # IQR 5.5 on a median of 5.5
    base = _runs(base_values)
    metric = _METRICS[:1]
    # 5% worse, within the bound, but the base's runs spread over 100%
    cmp = bench_pairs.compare(base, _runs([0.95 * v for v in base_values]), metric)
    assert cmp["ops_per_s"]["within_bound"] and cmp["ops_per_s"]["verdict"] == "unresolved"
    # every head run beats every base run, though not by the IQR
    cmp = bench_pairs.compare(base, _runs([10.1 + 0.1 * i for i in range(10)]), metric)
    assert not cmp["ops_per_s"]["beats_base_iqr"]
    assert cmp["ops_per_s"]["verdict"] == "within bound"
    # worse than the bound is said first, however wide the spread
    cmp = bench_pairs.compare(base, _runs([0.5 * v for v in base_values]), metric)
    assert cmp["ops_per_s"]["verdict"] == "worse than bound"
    # a narrow spread and a median within the bound
    cmp = bench_pairs.compare(_runs([4.0] * 3), _runs([3.6] * 3), metric)
    assert cmp["ops_per_s"]["verdict"] == "within bound"
