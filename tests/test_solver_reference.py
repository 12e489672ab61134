import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solver_reference.py"
_spec = importlib.util.spec_from_file_location("solver_reference", _PATH)
solver_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_reference)


def _entries(*sources):
    entries = json.loads(solver_reference.REFERENCE.read_text())
    return [next(e for e in entries if e["sources"][0] == s) for s in sources]


def test_check_passes_on_two_reference_solves(capsys):
    # one solve at p = inf and one at p < 1 with a zero count that cannot meet t
    entries = _entries("tests/test_solver.py::test_k1_matches_closed_form[inf-0.5]",
                       "tests/test_solver.py::test_k1_matches_closed_form[0.5-0.81]")
    assert entries[1]["per_l_values"]["1"] is None
    assert solver_reference.check(entries)
    assert capsys.readouterr().out.splitlines()[-1].endswith("pass")


def test_check_fails_on_value_and_zero_count_and_prints_the_rest():
    entry, = _entries("tests/test_solver.py::test_k1_matches_closed_form[2.0-0.6]")
    got = dict(entry, per_l_values=dict(entry["per_l_values"]))
    got["value"] += 0.5 * solver_reference.VALUE_TOL
    got["cluster_count"] += 1
    got["per_l_values"]["0"] = 0.1
    fails, diffs = solver_reference.compare(entry, got)
    assert fails == [] and len(diffs) == 2
    got["value"] += solver_reference.VALUE_TOL
    got["l_used"] = 0
    fails, _ = solver_reference.compare(entry, got)
    assert len(fails) == 2
    fails, _ = solver_reference.compare(entry, {"error": "SolverError"})
    assert fails == ["error None -> SolverError"]


def test_check_passes_on_every_reference_entry(capsys):
    # the gate itself: every recorded solve, solved again on this tree
    entries = json.loads(solver_reference.REFERENCE.read_text())
    assert solver_reference.check(entries), capsys.readouterr().out
