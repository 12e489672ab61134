import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import hardyx
from hardyx import cli, verify
from hardyx.cli import (
    EXIT_DOMAIN,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_phi1_human_output(capsys):
    rc, out, _ = run(capsys, "phi1", "--p", "2", "--t", "0.6")
    assert rc == EXIT_OK
    got = {}
    for line in out.splitlines():
        key, _, val = line.partition(" = ")
        got[key] = val
    assert float(got["phi1"]) == pytest.approx(0.8, abs=1e-12)
    assert got["regime"] == "MOEBIUS_OUTER"
    assert float(got["alpha"]) == pytest.approx(0.75, abs=1e-12)


def test_phi1_json_round_trip(capsys):
    rc, out, _ = run(capsys, "phi1", "--p", "0.5", "--t", "tp", "--json")
    assert rc == EXIT_OK
    rec = json.loads(out)
    assert rec["schema_version"] == 1
    assert rec["command"] == "phi1"
    assert rec["results"]["regime"] == "BOTH"
    assert rec["results"]["alpha"] == pytest.approx(0.4795096879389884, abs=1e-10)


def test_module_entry_point_runs_as_a_fresh_process():
    # python -m hardyx goes through __main__.py, which main() alone skips
    src = str(pathlib.Path(hardyx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "hardyx", "phi1", "--p", "2", "--t", "0.6", "--json"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == EXIT_OK, out.stderr
    assert json.loads(out.stdout)["results"]["value"] == pytest.approx(0.8, abs=1e-12)


def test_phi1_sup_norm_records_inf_as_string(capsys):
    rc, out, _ = run(capsys, "phi1", "--p", "inf", "--t", "0.5", "--json")
    assert rc == EXIT_OK
    rec = json.loads(out)
    assert rec["inputs"]["p"] == "inf"
    assert rec["results"]["value"] == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("p", ["2", "inf"])
def test_phi1_at_t_one_prints_beta_plus_zero(capsys, p):
    rc, out, _ = run(capsys, "phi1", "--p", p, "--t", "1")
    assert rc == EXIT_OK
    assert out.splitlines() == ["phi1 = 0", "regime = OUTER", "beta = 0"]


def test_phi1_at_p_inf_one_double_below_one_is_positive(capsys):
    rc, out, _ = run(capsys, "phi1", "--p", "inf", "--t", "0.9999999999999999", "--json")
    assert rc == EXIT_OK
    assert json.loads(out)["results"]["value"] > 0


def test_phi1_just_below_p_1(capsys):
    # alpha_p merges with alpha_1 and alpha_2 at 1; its u-form still solves
    rc, out, _ = run(capsys, "phi1", "--p", "0.9999", "--t", "0.3", "--json")
    assert rc == EXIT_OK
    rec = json.loads(out)
    assert rec["results"]["regime"] == "MOEBIUS_OUTER"
    assert rec["results"]["value"] == pytest.approx(1.0, abs=1e-4)  # its value at p = 1


@pytest.mark.parametrize(
    "argv",
    [
        ("phi1", "--p", "0", "--t", "0.5"),
        ("phi1", "--p", "2", "--t", "1.5"),
        ("phi1", "--p", "2", "--t", "tp"),  # switch point needs p < 1
        ("wiener", "--p", "1", "--k", "2", "--eps-list", "0.1"),
        ("wiener", "--p", "0.5", "--k", "1", "--eps-list", "0.1"),
        ("solve", "--k", "0", "--p", "2", "--t", "0.5"),
        ("wiener", "--p", "0.5", "--k", "2", "--eps-list", "0"),
    ],
)
def test_domain_errors_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == EXIT_DOMAIN
    assert "error:" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("as_json", [False, True])
def test_non_finite_result_exits_2(capsys, monkeypatch, bad, as_json):
    # the record is dumped on every call, and a NaN or an inf ends it
    true_phi1 = cli.phi1
    monkeypatch.setattr(
        cli, "phi1", lambda p, t: dataclasses.replace(true_phi1(p, t), value=bad)
    )
    rc, out, err = run(capsys, "phi1", "--p", "2", "--t", "0.6", *(["--json"] if as_json else []))
    assert rc == EXIT_DOMAIN
    assert out == ""
    assert "error:" in err


def test_solve_json_record(capsys):
    rc, out, _ = run(
        capsys, "solve", "--k", "1", "--p", "2", "--t", "0.6",
        "--starts", "8", "--json",
    )
    assert rc == EXIT_OK
    rec = json.loads(out)
    assert rec["results"]["value"] == pytest.approx(0.8, abs=1e-7)
    assert rec["results"]["l_used"] == 1
    assert rec["results"]["per_l"]["0"] is None
    lam = rec["results"]["lambdas"][0]
    assert lam[0] == pytest.approx(-0.75, abs=1e-5)
    assert rec["diagnostics"]["norm_residual"] < 1e-7


def test_solver_error_exits_3(capsys):
    # t = 1 admits only the zero-free constant, which --l 1 excludes
    rc, _, err = run(capsys, "solve", "--k", "1", "--p", "2", "--t", "1", "--l", "1")
    assert rc == EXIT_NO_CONVERGENCE
    assert "no feasible structure" in err


def test_wiener_table_values(capsys):
    rc, out, _ = run(
        capsys, "wiener", "--p", "0.5", "--k", "2", "--eps-list", "0.1", "0.01",
    )
    assert rc == EXIT_OK
    assert "limit k^(1-p) = 1.4142135623730951" in out
    assert "1.1751050921447" in out  # ratio at eps = 0.01


def test_figure1_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(capsys, "figure1", "--out", str(out_a))[0] == EXIT_OK
    assert run(capsys, "figure1", "--out", str(out_b))[0] == EXIT_OK
    data = out_a.read_bytes()
    assert data == out_b.read_bytes()  # byte-stable across runs

    lines = data.decode().splitlines()
    assert lines[0] == "p,t,phi1"
    assert len(lines) == 1 + 4 * 513
    assert "2,0,1" in lines
    assert "inf,1,0" in lines
    peak = [ln for ln in lines if ln.startswith("0.5,0.5625,")]
    assert len(peak) == 1
    assert float(peak[0].split(",")[2]) == pytest.approx(1.299038105676658, abs=1e-12)


def test_figure2_csv(tmp_path, capsys):
    out = tmp_path / "f2.csv"
    assert run(capsys, "figure2", "--out", str(out))[0] == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "p,t_p,lower,upper"
    assert len(lines) == 1 + 256
    for ln in lines[1:]:
        _, tp, lo, hi = (float(x) for x in ln.split(","))
        assert lo < tp <= hi * (1 + 1e-12)


def test_verify_suite_exit_code(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "appendix")
    assert rc == EXIT_OK
    assert "PASS" in out
    assert "checks passed" in out


def test_failing_check_prints_fail_and_exits_1(capsys, monkeypatch):
    broken = [verify.CheckResult("appendix/broken", False, "forced failure"),
              verify.CheckResult("appendix/fine", True, "ok")]
    monkeypatch.setitem(verify._SUITES, "appendix", lambda: broken)
    rc, out, _ = run(capsys, "verify", "--suite", "appendix")
    assert rc == EXIT_VERIFY_FAILED == 1
    assert out.splitlines() == [
        "FAIL  appendix/broken  forced failure",
        "PASS  appendix/fine    ok",
        "1/2 checks passed",
    ]


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_unwritable_output_path(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "out.csv"
    rc, _, err = run(capsys, "figure1", "--out", str(missing))
    assert rc == EXIT_NO_CONVERGENCE
    assert "error:" in err
