"""Span tracer that wraps library functions from outside the library.

A traced call records one span (name, start, end, parent, rows) in memory.
`parent` is the index of the enclosing traced span (-1 at the top).

Functions are wrapped where callers look them up. `from .backbone import
rope_tables` copies the function into the importing module's namespace, so a
module-level function is replaced in every loaded module of the package that
binds the same object, not only in the module that defines it. Methods are
replaced on their class. Every replacement is undone when the tracer exits.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function.

    name: the reported layer name, e.g. "structure_model.velocity".
    path: where it is defined, relative to the package, e.g.
        "structure_model.StructureModel.velocity".
    rows: optional (args, kwargs) -> batch rows of one call.
    """

    name: str
    path: str
    rows: Callable | None = None


@dataclass
class LayerTotals:
    calls: int = 0
    rows: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, package: str, targets):
        self.package = package
        self.targets = tuple(targets)
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []   # (holder, attribute, original)

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _install(self, target: Target) -> None:
        module_name, *qual = target.path.split(".")
        module = sys.modules[f"{self.package}.{module_name}"]
        if len(qual) == 2:
            holder = getattr(module, qual[0])
            original = holder.__dict__[qual[1]]
            self._replace(holder, qual[1], original, target)
            return
        (attr,) = qual
        original = getattr(module, attr)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, target)

    def _replace(self, holder, attr: str, original, target: Target) -> None:
        self._patched.append((holder, attr, original))
        setattr(holder, attr, self._wrap(original, target))

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, rows = target.name, target.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            n_rows = rows(args, kwargs) if rows is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, n_rows)

        return traced

    def totals(self) -> dict:
        """Per-layer calls, rows, busy time and self time (busy time minus
        the time covered by child spans)."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {t.name: LayerTotals() for t in self.targets}
        for index, (name, start, end, _, n_rows) in enumerate(self.spans):
            layer = out[name]
            layer.calls += 1
            layer.rows += n_rows
            layer.busy_s += end - start
            layer.self_s += end - start - child_s[index]
        return out
