"""Every public name the package exports resolves, and is exported once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import vrjp

# the package and each of its modules that declares __all__ (cli does not)
MODULES = [
    name
    for name in ["vrjp"]
    + [f"vrjp.{info.name}" for info in pkgutil.iter_modules(vrjp.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [x for x in exported if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    repeated = sorted({x for x in exported if exported.count(x) > 1})
    assert not repeated, f"{name}.__all__ repeats {repeated}"
