"""Every exported name resolves: a module's `__all__` and the package's own
imports may not name something that was renamed or deleted."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nvg

MODULES = sorted(info.name for info in pkgutil.iter_modules(nvg.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"nvg.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_are_public_names():
    # read from the source: each `from .mod import name` in nvg/__init__.py
    # must name something mod defines and lists in its __all__
    tree = ast.parse(Path(nvg.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert {mod for mod, _ in imports} >= {"hierarchy", "structcode"}
    stale = []
    for mod, name in imports:
        module = importlib.import_module(f"nvg.{mod}")
        if not hasattr(module, name) or name not in getattr(module, "__all__", [name]):
            stale.append(f"{mod}.{name}")
    assert stale == []
