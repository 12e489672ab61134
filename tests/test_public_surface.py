"""Every exported name resolves, `hardyx` exports exactly its submodules'
names, perfbench's hooks into `hardyx` resolve, every name the demos import
exists, and demos 01-04 run.

Demo 05 is not run: it rewrites the committed figure CSVs, which
criterion 10 already compares with the CLI's output.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import hardyx

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(hardyx.__path__) if m.name != "__main__"
)
# the library modules, whose names hardyx republishes; cli is the entry point
REPUBLISHED = [m for m in SUBMODULES if m != "cli"]


@pytest.mark.parametrize("modname", ["hardyx"] + [f"hardyx.{m}" for m in SUBMODULES])
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{modname}.__all__ lists missing names {missing}"


def test_hardyx_all_is_the_submodules_all():
    # a name listed twice would let a later wildcard import shadow an earlier one
    modules = [importlib.import_module(f"hardyx.{m}") for m in REPUBLISHED]
    expected = [name for mod in modules for name in mod.__all__]
    assert hardyx.__all__ == expected
    assert len(set(expected)) == len(expected)
    namespace = {}
    exec("from hardyx import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hardyx.__all__)


def _attributes(owners):
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_perfbench_hooks_resolve(monkeypatch):
    # perfbench/run.py installs tracing.Tracer on hardyx and calls hardyx.<op.fn>
    # for the workloads' operations; a name either needs must stay
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    owners = [getattr(hardyx, m) for m in REPUBLISHED] + [hardyx.PolyCoeffs]
    before = _attributes(owners)
    tracer = tracing.Tracer()
    try:
        tracer.install(hardyx)
        installed = _attributes(owners)
        patched = [key for key, value in installed.items() if value is not before.get(key)]
    finally:
        tracer.uninstall()
    assert patched
    after = _attributes(owners)
    assert [key for key in patched if after[key] is not before[key]] == []

    for workload in workloads.WORKLOADS.values():
        ops = workload.round_inputs(hardyx, np.random.default_rng([1, 1]))
        ops += workload.warmup(hardyx)
        missing = {op.fn for op in ops if not callable(getattr(hardyx, op.fn, None))}
        assert not missing, f"{workload.name} calls missing hardyx names {sorted(missing)}"


def _hardyx_imports(tree):
    """(module, name) for each name imported from hardyx; name None for plain imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "hardyx" or node.module.startswith("hardyx."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "hardyx" or alias.name.startswith("hardyx."):
                    yield alias.name, None


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = []
    for modname, name in _hardyx_imports(tree):
        mod = importlib.import_module(modname)
        if name is not None and name != "*" and not hasattr(mod, name):
            missing.append(f"{modname}.{name}")
    assert not missing, f"{demo.name} imports missing names {missing}"


@pytest.mark.parametrize("demo", [d for d in DEMOS if not d.name.startswith("05_")],
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    # a fresh process, so that a demo passing a removed parameter fails here,
    # under the RuntimeWarning filter that pyproject.toml sets for the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
