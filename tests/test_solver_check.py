import importlib.util
import json
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solver_check.py"
_spec = importlib.util.spec_from_file_location("solver_check", _PATH)
solver_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_check)


def _entries(*sources):
    entries = json.loads(solver_check.REFERENCE.read_text())
    return [next(e for e in entries if e["sources"][0] == s) for s in sources]


def _record(part, t, **result):
    config = {"k": 2, "p": 0.01, "t": t, "l_range": [0, 1, 2], "starts": 4, "seed": 0}
    return {"sources": [part], "config": config, **result}


def _solved(part, t, value, l_used=0):
    return _record(part, t, value=value, l_used=l_used, cluster_count=1,
                   per_l_values={"0": value, "1": None, "2": None})


def test_check_passes_on_two_reference_solves(capsys):
    # one solve at p = inf and one at p < 1 with a zero count that cannot meet t
    entries = _entries("tests/test_solver.py::test_k1_matches_closed_form[inf-0.5]",
                       "tests/test_solver.py::test_k1_matches_closed_form[0.5-0.81]")
    assert entries[1]["per_l_values"]["1"] is None
    assert solver_check.report((e, solver_check.solve(e["config"])) for e in entries)
    assert capsys.readouterr().out.splitlines()[-1].endswith("pass")


def test_check_fails_on_value_and_zero_count_and_prints_the_rest():
    entry, = _entries("tests/test_solver.py::test_k1_matches_closed_form[2.0-0.6]")
    got = dict(entry, per_l_values=dict(entry["per_l_values"]))
    got["value"] += 0.5 * solver_check.VALUE_TOL
    got["cluster_count"] += 1
    got["per_l_values"]["0"] = 0.1
    fails, diffs = solver_check.compare(entry, got)
    assert fails == [] and len(diffs) == 2
    got["value"] += solver_check.VALUE_TOL
    got["l_used"] = 0
    fails, _ = solver_check.compare(entry, got)
    assert len(fails) == 2
    fails, _ = solver_check.compare(entry, {"error": "SolverError"})
    assert fails == ["lost 0.8 -> SolverError"]


def test_check_passes_on_every_reference_entry(capsys):
    # the gate itself: every recorded solve, solved again on this tree
    entries = json.loads(solver_check.REFERENCE.read_text())
    assert solver_check.report((e, solver_check.solve(e["config"])) for e in entries), \
        capsys.readouterr().out


def test_sweep_draws_its_fixed_configurations():
    drawn = solver_check.sweep_configs()
    assert drawn == solver_check.sweep_configs()
    tiny = [c for part, c in drawn if part == "tiny p"]
    domain = [c for part, c in drawn if part == "domain"]
    pinned = [c for part, c in drawn if part == "pinned"]
    constant = [c for part, c in drawn if part == "constant"]
    assert [part for part, _ in drawn] == (["tiny p"] * 80 + ["domain"] * 150 + ["pinned"] * 40
                                           + ["constant"] * 20)
    assert all(1e-3 <= c["p"] <= 0.03 for c in tiny)
    for wide, every in ((domain, 10), (pinned, 10), (constant, 5)):
        assert sum(c["p"] == math.inf for c in wide) == len(wide) // every
        assert all(1e-3 <= c["p"] <= 8 for c in wide if c["p"] != math.inf)
    assert all(c["t"] == 0.0 for c in pinned)
    assert all(c["t"] == 1.0 for c in constant)
    assert len({c["k"] for c in pinned}) == len({c["k"] for c in constant}) == 3
    assert all(c["k"] in (1, 2, 3) and 0 <= c["t"] <= 1 and c["starts"] == 4
               and c["l_range"] == list(range(c["k"] + 1)) for _, c in drawn)


def test_compare_names_every_gain_loss_and_move(capsys):
    ts = (0.1, 0.2, 0.3, 0.4, 0.5)
    before = [_solved("tiny p", ts[0], 1.0), _record("tiny p", ts[1], error="SolverError"),
              _solved("tiny p", ts[2], 2.0), _solved("tiny p", ts[3], 3.0),
              _solved("tiny p", ts[4], 0.1)]
    after = [_solved("tiny p", ts[0], 1.0 + 1e-10), _solved("tiny p", ts[1], 5.0),
             _record("tiny p", ts[2], error="SolverError"), _solved("tiny p", ts[3], 2.5),
             _solved("tiny p", ts[4], 0.1)]
    assert not solver_check.report(zip(before, after))
    out = capsys.readouterr().out.splitlines()
    fails = [line.split(": ", 1)[1] for line in out if line.startswith("FAIL")]
    assert [line.split()[0] for line in fails] == ["gained", "lost", "moved"]
    # the move of 1e-10 is below the printed bound but not identical to the bit
    assert out[-2] == ("tiny p: 4 -> 4 of 5 succeed, 1 of the 3 on both sides identical to the "
                       "bit, 0 rose and 1 fell by more than 1e-09, largest relative fall 0.167")
    assert out[-1].endswith("FAIL")


def test_compare_gives_each_part_its_rises_and_falls(capsys):
    # per part: rises and falls beyond VALUE_TOL, and the largest fall over the
    # value before; a gained solve and a move within VALUE_TOL are neither
    tol = solver_check.VALUE_TOL
    pairs = [(_solved("tiny p", 0.1, 2.0), _solved("tiny p", 0.1, 1.5)),
             (_solved("tiny p", 0.2, 10.0), _solved("tiny p", 0.2, 9.0)),
             (_solved("tiny p", 0.3, 1.0), _solved("tiny p", 0.3, 1.0 + 2 * tol)),
             (_solved("tiny p", 0.4, 1.0), _solved("tiny p", 0.4, 1.0 - 0.5 * tol)),
             (_record("tiny p", 0.5, error="SolverError"), _solved("tiny p", 0.5, 3.0)),
             (_solved("domain", 0.1, 4.0), _solved("domain", 0.1, 5.0)),
             (_solved("pinned", 0.1, 0.0), _solved("pinned", 0.1, 0.0))]
    assert not solver_check.report(pairs)
    out = capsys.readouterr().out.splitlines()
    assert out[-4:-1] == [
        "tiny p: 4 -> 5 of 5 succeed, 0 of the 4 on both sides identical to the bit, "
        "1 rose and 2 fell by more than 1e-09, largest relative fall 0.25",
        "domain: 1 -> 1 of 1 succeed, 0 of the 1 on both sides identical to the bit, "
        "1 rose and 0 fell by more than 1e-09, largest relative fall 0",
        "pinned: 1 -> 1 of 1 succeed, 1 of the 1 on both sides identical to the bit, "
        "0 rose and 0 fell by more than 1e-09, largest relative fall 0"]


def test_compare_fails_on_a_changed_zero_count(capsys):
    # the same value from another zero count is a different extremal
    before, after = _solved("domain", 0.5, 1.0, l_used=0), _solved("domain", 0.5, 1.0, l_used=1)
    assert not solver_check.report([(before, after)])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL k=2 p=0.01 t=0.5 ") and out[0].endswith(": l_used 0 -> 1")
    assert out[-2] == ("domain: 1 -> 1 of 1 succeed, 1 of the 1 on both sides identical to the "
                       "bit, 0 rose and 0 fell by more than 1e-09, largest relative fall 0")


def test_compare_prints_a_bits_line_for_each_move_within_the_bound(capsys):
    # a value that moved by at most VALUE_TOL passes, but is named; one that
    # did not move is not
    tol = solver_check.VALUE_TOL
    pairs = [(_solved("tiny p", 0.1, 1.0), _solved("tiny p", 0.1, 1.0 + 0.5 * tol)),
             (_solved("tiny p", 0.2, 2.0), _solved("tiny p", 0.2, 2.0)),
             (_solved("tiny p", 0.3, 3.0), _solved("tiny p", 0.3, 3.0 - 0.25 * tol))]
    assert solver_check.report(pairs)
    out = capsys.readouterr().out.splitlines()
    bits = [line for line in out if line.startswith("BITS")]
    assert len(bits) == 2 and not any(line.startswith(("FAIL", "DIFF")) for line in out)
    assert bits[0].startswith("BITS k=2 p=0.01 t=0.1 ")
    assert bits[0].endswith(f": value 1.0 -> {1.0 + 0.5 * tol!r} (gap {0.5 * tol:.3g})")
    assert bits[1].startswith("BITS k=2 p=0.01 t=0.3 ")
    assert out[-1].endswith("pass")


def test_sweep_starts_changes_only_the_starts():
    # --starts N draws the same solves, each with N starts
    drawn, more = solver_check.sweep_configs(), solver_check.sweep_configs(64)
    assert all(c["starts"] == solver_check.STARTS for _, c in drawn)
    assert all(c["starts"] == 64 for _, c in more)
    assert [(part, dict(c, starts=None)) for part, c in drawn] == \
           [(part, dict(c, starts=None)) for part, c in more]


def test_compare_takes_sweeps_at_different_starts(tmp_path, capsys):
    # 4 starts against 64: the same solves pair up; other solves do not
    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    few = [_solved("tiny p", 0.1, 2.0), _solved("tiny p", 0.2, 3.0)]
    many = [_solved("tiny p", 0.1, 2.5), _solved("tiny p", 0.2, 3.0)]
    for r in many:
        r["config"]["starts"] = 64
    assert solver_check.main(["--compare", write("few", few), write("many", many)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("tiny p: 2 -> 2 of 2 succeed, 1 of the 2") and " 1 rose " in out[-2]
    many[1]["config"]["t"] = 0.3
    with pytest.raises(SystemExit, match="different solves"):
        solver_check.main(["--compare", write("few", few), write("other", many)])
