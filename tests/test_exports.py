"""Every exported name resolves, and the CLI imports only what it runs."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

import dkinv
from dkinv import linalg
from dkinv.inversion import FundamentalSolution

from conftest import bench_shape_realization, config_dict, write_config

MODULES = ["dkinv"] + [f"dkinv.{m.name}"
                       for m in pkgutil.iter_modules(dkinv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _run_python(*args: str) -> str:
    """stdout of a fresh interpreter that finds this checkout's dkinv."""
    src = str(Path(dkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, env=env)
    return done.stdout


def test_cli_import_loads_no_quadrature_modules():
    # The CLI imports numpy alone (test_only_verify_loads_scipy);
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


def test_only_verify_loads_scipy(tmp_path):
    # invert, recover and weyl run on numpy alone; verify's Nystrom checks
    # are the one part of the package that imports scipy.
    config = write_config(tmp_path, config_dict(bench_shape_realization()))
    stdout = _run_python("-c", _COMMANDS_SCIPY_FREE, config,
                         str(tmp_path / "out.csv"), str(tmp_path / "report.json"))
    runs = json.loads(stdout.splitlines()[-1])
    assert [(step, code, loaded) for step, code, loaded in runs[:-1]] == [
        ("import dkinv", None, []), ("import dkinv.cli", None, []),
        ("invert", 0, []), ("recover", 0, []), ("weyl", 0, [])]
    step, code, loaded = runs[-1]
    assert (step, code) == ("verify", 0)
    assert "scipy.linalg" in loaded


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
    assert re.findall(r"\b_segments_at\b", source) == []
