"""Every exported name resolves, and the CLI imports only what it runs."""

import importlib
import inspect
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

MODULES = ["dkinv"] + [f"dkinv.{m.name}"
                       for m in pkgutil.iter_modules(dkinv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_loads_no_quadrature_modules():
    # The CLI needs only numpy and scipy.linalg; scipy.integrate and
    # scipy.interpolate belong to the test oracles.
    code = ("import sys, dkinv.cli; print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'interpolate'], ['scipy', 'optimize'])))")
    src = str(Path(dkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.split() == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dkinv.linalg"])
def test_only_linalg_holds_matrix_exponentials(name):
    # Every e^{sM} comes from linalg.exp_samples: no other module holds
    # mat_exp or scipy's expm, or names either in its source.
    module = importlib.import_module(name)
    held = [key for key, value in vars(module).items()
            if value is linalg.mat_exp or value is scipy.linalg.expm]
    assert held == []
    assert re.findall(r"\b(?:mat_exp|expm)\b", inspect.getsource(module)) == []


@pytest.mark.parametrize("name", MODULES)
def test_only_fundamental_solution_walks_segments(name):
    # FundamentalSolution's methods are the one evaluator of U: no other
    # dkinv code looks up its segments, it calls left_rows, right_cols or
    # value instead.
    source = inspect.getsource(importlib.import_module(name))
    source = source.replace(inspect.getsource(FundamentalSolution), "")
    assert re.findall(r"\b_segments_at\b", source) == []
