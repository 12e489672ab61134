import pytest

from hardyx import verify
from hardyx.verify import run_suite, run_theorems


def test_theorems_suite_passes():
    results = run_theorems()
    assert len(results) == 7
    assert all(r.name.startswith("theorems/") for r in results)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_all_runs_every_suite_in_order(monkeypatch):
    suites = {name: (lambda name=name: [f"{name}/1", f"{name}/2"]) for name in ("c", "a", "b")}
    monkeypatch.setattr(verify, "_SUITES", suites)
    assert run_suite("all") == ["c/1", "c/2", "a/1", "a/2", "b/1", "b/2"]
    assert run_suite("a") == ["a/1", "a/2"]
