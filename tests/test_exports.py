"""Every exported name resolves: a module's `__all__` and the package's own
imports may not name something that was renamed or deleted. And every name a
module imports is read: no linter is a dependency, so an `ast` pass stands in
for the unused-import check. Another `ast` pass keeps every test under
`pyproject.toml`'s `error::RuntimeWarning`: no test may ignore a warning."""

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


SOURCES = sorted(path for root in (Path(nvg.__file__).parent, Path(__file__).parent)
                 for path in root.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads; an import on a
    line marked `noqa: F401` and names listed in `__all__` count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                         if "noqa: F401" not in lines[alias.lineno - 1])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_kind_of_import():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "from e import f  # noqa: F401\nprint(np, c)\n")
    assert unused_imports(source) == ["b", "d", "os"]


PERFBENCH = Path(nvg.__file__).parents[2] / "perfbench"
# public with no reader yet: ROADMAP item 6's flow-step oracle is to call it
UNREAD_EXPORTS = {"training.evaluate"}


def read_names(source: str) -> set:
    """Every name a module loads, bare or as an attribute; definitions and
    `__all__` strings are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_export_has_a_reader_outside_the_tests():
    # a public name only the tests read is test code living in src/
    paths = [*Path(nvg.__file__).parent.glob("*.py"), *PERFBENCH.glob("*.py")]
    read = set().union(*(read_names(path.read_text()) for path in paths))
    unread = {f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(f"nvg.{name}"), "__all__", [])
              if export not in read}
    assert unread == UNREAD_EXPORTS


def test_read_names_skips_definitions_and_all():
    source = ('__all__ = ["f", "g"]\ndef f():\n    pass\nclass C:\n    pass\n'
              'x = 1\ng(m.h, x)\n')
    assert read_names(source) == {"g", "m", "h", "x"}


def silenced_warnings(source: str) -> list:
    """Lines of the calls that pass an `ignore` action to a warnings filter:
    `warnings.filterwarnings`, `warnings.simplefilter` or pytest's
    `filterwarnings` mark, positionally or as `action=`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else \
            getattr(node.func, "id", None)
        actions = node.args[:1] + [k.value for k in node.keywords if k.arg == "action"]
        if name in ("filterwarnings", "simplefilter") and any(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                and a.value.split(":")[0].strip() == "ignore" for a in actions):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_test_silences_a_warning():
    # a numpy RuntimeWarning on the way to a NumericError is a defect of the
    # library, to be fixed there, not filtered out in the test that sees it
    found = {path.name: silenced_warnings(path.read_text())
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_silenced_warning_check_sees_each_kind_of_filter():
    source = ('import warnings, pytest\n'
              'warnings.simplefilter("ignore")\n'
              'warnings.filterwarnings(action="ignore", category=RuntimeWarning)\n'
              '@pytest.mark.filterwarnings("ignore:overflow encountered")\n'
              'def f():\n'
              '    warnings.simplefilter("error", RuntimeWarning)\n'
              'simplefilter(" ignore ", RuntimeWarning)\n'
              'pytest.mark.filterwarnings("error::RuntimeWarning")\n')
    assert silenced_warnings(source) == [2, 3, 4, 7]
