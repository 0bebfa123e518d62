"""Outside-in tracer: wraps the toolkit's public functions from the outside.

`install()` replaces every public function of the ``matched_transforms``
modules at every module attribute that binds it.  A function imported
under another module's name (``discovery.gevp_min`` is the same object as
``numkernel.gevp_min``) gets the same wrapper at both bindings, so calls
through either are seen.  Private helpers (leading underscore) are left
alone: some, like ``rng._rotl``, run thousands of times per call and the
wrapper would swamp what they measure.

Spans live in memory as ``(name, start, end, parent, task, counts)`` and
are written as JSON lines by `Tracer.write`.  A span's name is the
defining module's short name plus the function name (``numkernel.gevp_min``)
whichever binding was called.  `aggregate` turns spans into inclusive
seconds, self seconds (minus wrapped children), call counts and the
computed counts that a few wrappers attach (deflation rows, GEVP
dimension, closure size, file bytes).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types

PACKAGE = "matched_transforms"
MODULES = (
    "rng", "numkernel", "groups", "transforms", "diagnostics",
    "discovery", "matrixio", "cli",
)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Computed counts attached to a span: f(args, kwargs, result) -> dict.
# They are sizes of the work handed to a layer, not measured bytes.
def _deflation_rows(args, kwargs, result):
    span = kwargs.get("deflation_span", args[2] if len(args) > 2 else ())
    return {"deflation_rows": len(span)}


def _gevp_dim(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"dim": int(len(m))}


def _discovery_counts(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "rejected": result.rejected_count,
        "accepted": len(result.generators),
    }


def _closure_counts(args, kwargs, result):
    return {"elements": result.count, "overflows": int(result.overflowed)}


def _read_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else kwargs["path"])}


COUNTERS = {
    "discovery.dc_gevp_step": _deflation_rows,
    "numkernel.gevp_min": _gevp_dim,
    "discovery.discover_sequential": _discovery_counts,
    "groups.closure_enumerate": _closure_counts,
    "matrixio.read_matrix_file": _read_bytes,
    "matrixio.write_matrix_file": _read_bytes,
}


class Tracer:
    """Span recorder for one process (single-threaded callers only)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.task = None

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.task, None]
            if counter is not None:
                spans[index][5] = counter(args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> int:
        """Wrap every public package function at each binding; returns the
        number of bindings replaced."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers: dict = {}
        replaced = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if (getattr(value, "__wrapped_by_perfbench__", False)
                        or not home.startswith(PACKAGE + ".")
                        or value.__name__.startswith("_")):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                if value not in wrappers:
                    wrappers[value] = self.wrap(name, value)
                setattr(module, attr, wrappers[value])
                replaced += 1
        return replaced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def aggregate(spans: list, tasks=None) -> dict:
    """Per-name totals: calls, inclusive s (outermost occurrence only, so
    recursion is not counted twice), self_s, and summed counts.

    `tasks`, if given, keeps only spans whose task id is in it.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    out: dict = {}
    for i, (name, start, end, parent, task, counts) in enumerate(spans):
        if tasks is not None and task not in tasks:
            continue
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out

