"""Every exported name resolves: a module's `__all__` and the package's own
imports may not name something that was renamed or deleted. And every name a
module imports is read: no linter is a dependency, so an `ast` pass stands in
for the unused-import check. Another `ast` pass keeps every test under
`pyproject.toml`'s `error::RuntimeWarning`: no test may ignore a warning. A
third keeps each module's underscore names its own: no module in `nvg`
imports one from another. A fourth keeps `einsum` in `grid.py`, home of the
one squared-distance kernel and its non-finite rule, and a fifth keeps the
refiners' `apply` in `grid.add_stage`, the one decoder step, and the
tokenizer. Two more keep one size rule per limit: only `errors.check_alloc`
reads the allocation cap, and only `grid.last_stage_of` turns a grid shape
into a stage count with `bit_length`. And only `backbone`, home of the one
parameter table, reads `param_shapes` and makes a trainable `Tensor`. Last,
`training` reaches the sampler only through `pipeline`'s two step
functions."""

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


def private_imports(source: str) -> list:
    """Underscore names the source imports from a module, `from m import _x`."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(Path(nvg.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_import_check_sees_from_imports():
    source = ("import os as _os\nfrom .a import _b, c\nfrom d import _e as f\n"
              "from . import g\n")
    assert private_imports(source) == ["_b", "_e"]


# the offline scripts beside the library read it through its public names
SCRIPTS = [Path(nvg.__file__).parents[2] / name for name in ("perfbench", "quality")]
UNREAD_EXPORTS = set()


def read_names(source: str) -> set:
    """Every name a module loads, bare or as an attribute; definitions and
    `__all__` strings are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_export_has_a_reader_outside_the_tests():
    # a public name only the tests read is test code living in src/
    paths = [*Path(nvg.__file__).parent.glob("*.py"),
             *(path for root in SCRIPTS for path in root.glob("*.py"))]
    read = set().union(*(read_names(path.read_text()) for path in paths))
    unread = {f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(f"nvg.{name}"), "__all__", [])
              if export not in read}
    assert unread == UNREAD_EXPORTS


def test_read_names_skips_definitions_and_all():
    source = ('__all__ = ["f", "g"]\ndef f():\n    pass\nclass C:\n    pass\n'
              'x = 1\ng(m.h, x)\n')
    assert read_names(source) == {"g", "m", "h", "x"}


def test_only_the_distance_kernel_reads_einsum():
    # `grid.sq_dist_blocks` refuses non-finite distances; a private einsum
    # distance path in another module would skip that rule
    readers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
               if "einsum" in read_names(path.read_text())}
    assert readers == {"grid.py"}


def test_only_the_decoder_step_and_the_tokenizer_read_apply():
    # `grid.add_stage` adds a refined placement to a canvas and refuses a
    # non-finite sum; a second copy of that step would skip the rule
    readers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
               if "apply" in read_names(path.read_text())}
    assert readers == {"grid.py", "quantize.py"}


def test_only_the_cap_check_reads_the_allocation_cap():
    # `errors.check_alloc` is the cap's one comparison; a module that read the
    # cap itself would hold a second copy of the rule and its message
    readers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
               if "MAX_ALLOC_BYTES" in read_names(path.read_text())}
    assert readers == {"errors.py"}


def test_only_the_grid_shape_rule_reads_bit_length():
    # `grid.last_stage_of` refuses a shape whose area is not a power of two;
    # a private log2 of h*w elsewhere would skip that rule
    readers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
               if "bit_length" in read_names(path.read_text())}
    assert readers == {"grid.py"}


def test_only_the_backbone_reads_the_parameter_table():
    # `Generator` checks every table of arrays against `param_shapes` before
    # it makes a tensor; a second comparison elsewhere would be a second rule
    readers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
               if "param_shapes" in read_names(path.read_text())}
    assert readers == {"backbone.py"}


def imported_names(source: str) -> set:
    """Every name the source imports, bare or from a module."""
    return {alias.name.split(".")[-1] for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_evaluate_samples_through_the_pipelines_step_functions():
    # `evaluate` runs `pipeline.content_logits` and `pipeline.flow_stage`, as
    # `generate` does; a direct `flow_sample` call would be a second sampler
    # wiring, and step counters belong to `generate` alone
    source = (Path(nvg.__file__).parent / "training.py").read_text()
    assert imported_names(source) & {"flow_sample", "GenerationStats"} == set()
    assert imported_names(source) >= {"content_logits", "flow_stage"}


def trainable_tensors(source: str) -> list:
    """Lines of the calls that make a trainable `Tensor`: `requires_grad`
    given as anything but False, by keyword or as the second argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "Tensor":
            continue
        flags = node.args[1:2] + [k.value for k in node.keywords if k.arg == "requires_grad"]
        if any(not (isinstance(f, ast.Constant) and f.value is False) for f in flags):
            lines.append(node.lineno)
    return lines


def test_only_the_parameter_table_makes_parameters():
    # `backbone` makes every parameter from a table its constructor checked
    # against `ModelConfig.param_shapes`; a trainable tensor made elsewhere
    # would be one that check and the allocation cap do not count
    makers = {path.name for path in Path(nvg.__file__).parent.glob("*.py")
              if trainable_tensors(path.read_text())}
    assert makers == {"backbone.py"}


def test_trainable_tensor_check_sees_each_form():
    source = ("Tensor(x)\nTensor(x, requires_grad=False)\nTensor(x, requires_grad=True)\n"
              "ad.Tensor(x, True)\nTensor(x, requires_grad=flag)\nnp.zeros(x, True)\n")
    assert trainable_tensors(source) == [3, 4, 5]


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
