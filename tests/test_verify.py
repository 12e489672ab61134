import pytest

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
