import importlib.util
import math
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solver_sweep.py"
_spec = importlib.util.spec_from_file_location("solver_sweep", _PATH)
solver_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_sweep)


def test_sweep_draws_its_fixed_configurations():
    configs = solver_sweep.configs()
    assert configs == solver_sweep.configs()
    tiny = [c for c in configs if c["part"] == "tiny p"]
    domain = [c for c in configs if c["part"] == "domain"]
    assert len(tiny) == 80 and len(domain) == 150
    assert all(1e-3 <= c["p"] <= 0.03 for c in tiny)
    assert sum(c["p"] == math.inf for c in domain) == 15
    assert all(1e-3 <= c["p"] <= 8 for c in domain if c["p"] != math.inf)
    assert all(c["k"] in (1, 2, 3) and 0 <= c["t"] <= 1 and c["starts"] == 4 for c in configs)


def test_compare_names_every_gain_loss_and_move(capsys):
    where = [{"part": "tiny p", "k": 2, "p": 0.01, "t": t} for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
    before = [{**where[0], "value": 1.0}, {**where[1], "error": "SolverError"},
              {**where[2], "value": 2.0}, {**where[3], "value": 3.0}, {**where[4], "value": 0.1}]
    after = [{**where[0], "value": 1.0 + 1e-10}, {**where[1], "value": 5.0},
             {**where[2], "error": "SolverError"}, {**where[3], "value": 2.5},
             {**where[4], "value": 0.1}]
    solver_sweep.compare(before, after)
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:-1]] == ["gained", "lost", "moved"]
    # the move of 1e-10 is below the printed bound but not identical to the bit
    assert out[-1] == "tiny p: 4 -> 4 of 5 succeed, 1 of the 3 on both sides identical to the bit"
