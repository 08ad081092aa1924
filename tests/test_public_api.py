"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deleted class left in an ``__all__`` (or in a package's re-export
list) breaks ``from repro.x import *`` and misleads readers; this is the
check ruff's F822 makes, runnable where ruff is not installed.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    name for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists names it does not define: {missing}"
