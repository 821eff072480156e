"""Every exported name resolves, and the CLI imports only what it runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dkinv

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
