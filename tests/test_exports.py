"""Every exported name resolves, and the CLI imports only what it runs."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dkinv
from dkinv import canonical, linalg
from dkinv.inversion import FundamentalSolution

from conftest import bench_shape_realization, config_dict, write_config

MODULES = ["dkinv"] + [f"dkinv.{m.name}"
                       for m in pkgutil.iter_modules(dkinv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py, executed from its source text (no bytecode is
    written next to it)."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_bench_traced_names_resolve():
    # The benchmark traces these names with getattr or the class __dict__;
    # renaming one breaks its --trace runs, so it fails here first.
    missing = []
    for metric, modname, attr in _bench_module("tracing").TRACED:
        module = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            found = cls is not None and name in vars(cls)
        else:
            found = hasattr(module, name)
        if not found:
            missing.append(metric)
    assert missing == []


def test_bench_route_check_runs():
    # The benchmark's route check asks for hamiltonian_factor by the name
    # "quadrature", the profile route.
    r = bench_shape_realization()
    gamma = canonical.hamiltonian_factor(r, 0.5, route="quadrature")
    assert gamma.shape == (r.p, 2 * r.p)
    assert np.array_equal(gamma, canonical.hamiltonian_factor(r, 0.5))


def test_bench_composition_check_runs():
    # The invert-table workload's reference check multiplies the dense
    # t_op.matrix and s_op.matrix at N = 128; S_N assembles its matrix from
    # the block generators for it.
    checks = _bench_module("checks")
    assert checks.composition(bench_shape_realization(), 128) == []


def _run_python(*args: str) -> str:
    """stdout of a fresh interpreter that finds this checkout's dkinv."""
    src = str(Path(dkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, env=env)
    return done.stdout


def test_cli_import_loads_no_quadrature_modules():
    # The CLI imports numpy alone (test_no_command_loads_scipy);
    # scipy.integrate and scipy.interpolate belong to the test oracles.
    code = ("import sys, dkinv.cli; print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'interpolate'], ['scipy', 'optimize'])))")
    assert _run_python("-c", code).split() == []


_COMMANDS_SCIPY_FREE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import dkinv
runs = [["import dkinv", None, scipy_modules()]]
from dkinv import cli
runs.append(["import dkinv.cli", None, scipy_modules()])
config, out, report = sys.argv[1:]
for argv in (["invert", "--grid", "16", "--out", out],
             ["recover", "--samples", "20", "--out", out],
             ["weyl", "--lambda", "0.3,0.6", "--density", "0.0,0.5"],
             ["verify", "--level", "quick", "--report", report]):
    code = cli.main([argv[0], "--config", config] + argv[1:])
    runs.append([argv[0], code, scipy_modules()])
print(json.dumps(runs))
"""


def test_no_command_loads_scipy(tmp_path):
    # The package runs on numpy alone, verify's Nystrom checks included;
    # scipy is a test dependency only.
    config = write_config(tmp_path, config_dict(bench_shape_realization()))
    stdout = _run_python("-c", _COMMANDS_SCIPY_FREE, config,
                         str(tmp_path / "out.csv"), str(tmp_path / "report.json"))
    runs = json.loads(stdout.splitlines()[-1])
    assert [(step, code, loaded) for step, code, loaded in runs] == [
        ("import dkinv", None, []), ("import dkinv.cli", None, []),
        ("invert", 0, []), ("recover", 0, []), ("weyl", 0, []),
        ("verify", 0, [])]


_COMMANDS_FORMATTER_LAZY = """
import json, sys
def guarded():
    return [m for m in ("dkinv.csvtext", "fractions", "decimal")
            if m in sys.modules]
from dkinv import cli
runs = [["import dkinv.cli", None, guarded()]]
config, out, report = sys.argv[1:]
for argv in (["weyl", "--lambda", "0.3,0.6", "--density", "0.0,0.5"],
             ["verify", "--level", "quick", "--report", report],
             ["invert", "--grid", "16", "--out", out],
             ["recover", "--samples", "20", "--out", out]):
    code = cli.main([argv[0], "--config", config] + argv[1:])
    runs.append([argv[0], code, guarded()])
print(json.dumps(runs))
"""


def test_only_the_csv_commands_load_the_formatter(tmp_path):
    # The CSV formatter is imported by the commands that write CSV, and
    # never on the way to verify or weyl; it does its arithmetic in numpy,
    # so no command loads fractions or decimal.
    config = write_config(tmp_path, config_dict(bench_shape_realization()))
    stdout = _run_python("-c", _COMMANDS_FORMATTER_LAZY, config,
                         str(tmp_path / "out.csv"), str(tmp_path / "report.json"))
    runs = json.loads(stdout.splitlines()[-1])
    assert [(step, code, loaded) for step, code, loaded in runs] == [
        ("import dkinv.cli", None, []), ("weyl", 0, []), ("verify", 0, []),
        ("invert", 0, ["dkinv.csvtext"]), ("recover", 0, ["dkinv.csvtext"])]


def _requirement_names(requirements):
    return {re.split(r"[<>=!~ \[;]", req, maxsplit=1)[0] for req in requirements}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads(
        (root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = _requirement_names(project["dependencies"])
    assert runtime == {"numpy"}
    # The test extra covers every third-party module the suite imports
    # (scipy and mpmath are its references), so `pip install .[test]`
    # can run it.
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"dkinv", "conftest", "oracles"}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party <= runtime | _requirement_names(
        project["optional-dependencies"]["test"])


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dkinv.linalg"])
def test_only_linalg_holds_matrix_exponentials(name):
    # Every e^{sM} comes from linalg.exp_samples: no other module holds
    # mat_exp, the Pade kernel under it or scipy's expm, or names any of
    # them in its source.
    module = importlib.import_module(name)
    held = [key for key, value in vars(module).items()
            if value is linalg.mat_exp or value is linalg._expm
            or value is scipy.linalg.expm]
    assert held == []
    assert re.findall(r"\b(?:mat_exp|_?expm)\b",
                      inspect.getsource(module)) == []


@pytest.mark.parametrize("name", MODULES)
def test_only_fundamental_solution_walks_segments(name):
    # FundamentalSolution's methods are the one evaluator of U: no other
    # dkinv code looks up its segments, it calls left_rows, right_cols or
    # value instead.
    source = inspect.getsource(importlib.import_module(name))
    source = source.replace(inspect.getsource(FundamentalSolution), "")
    assert re.findall(r"\b_segment_lookup\b", source) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_dense_spectrum(name):
    # lambda_min(S_N) is certified by inertia on block Cholesky factors:
    # no module takes, or names, a dense eigvalsh.
    source = inspect.getsource(importlib.import_module(name))
    assert re.findall(r"\beigvalsh\b", source) == []
