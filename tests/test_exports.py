"""Every exported name resolves, so a deleted symbol cannot stay exported."""

import importlib
import pkgutil

import pytest

import dkinv

MODULES = ["dkinv"] + [f"dkinv.{m.name}"
                       for m in pkgutil.iter_modules(dkinv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
