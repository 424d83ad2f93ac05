"""Span tracer that wraps a module's public functions from outside the program.

Wrapping replaces the module attribute, and calls made inside a module look
functions up in its globals, so nested calls such as
``fit_forest -> fit_tree -> best_split`` are caught as well as calls from
other modules. Spans stay in memory until :meth:`Tracer.write`.

Per-row and per-node helpers are left unwrapped: one span per candle or per
tree node would cost more than the work it measures. Their counts are derived
from the program's outputs instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

UNWRAPPED = frozenset({
    "trees.predict_tree", "trees.node_to_dict", "trees.node_from_dict",
    "logistic.sigmoid",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "returned_none")

    def __init__(self, name, start, end, parent, run_id, returned_none=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.returned_none = returned_none


class Tracer:
    """Records one span per call of a wrapped function.

    ``run_id`` tags every span with the command that caused it; set it before
    each command. ``enabled`` switches recording off without unwrapping, so
    untraced and traced iterations can alternate in one process.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.returned_none = result is None
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, module, layer: str) -> None:
        """Wrap every public function defined in ``module`` as ``<layer>.<name>``.

        The CLI's ``cmd_<x>`` handlers are named ``cli.<x>``.
        """
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr.removeprefix('cmd_')}"
            if name in UNWRAPPED:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent,
                                     "run_id": s.run_id}) + "\n")


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its child spans.

    Children of one span cannot overlap in a single-threaded program, but
    the union of their intervals is taken anyway so the result never goes
    below zero.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start - covered) / 1e9)
    return out


def summarize(spans, keep=lambda span: True) -> dict:
    """Per span name: total and self seconds, calls, and calls that returned None.

    Also per layer (the part of a name before the first dot): seconds in
    spans with no ancestor of the same layer, so nested calls count once.
    Only spans for which ``keep`` is true are counted.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    for i, s in enumerate(spans):
        if not keep(s):
            continue
        seconds = (s.end - s.start) / 1e9
        entry = by_name.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "none": 0})
        entry["s"] += seconds
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        entry["none"] += s.returned_none
        layer = s.name.split(".", 1)[0]
        parent = s.parent
        while parent >= 0 and spans[parent].name.split(".", 1)[0] != layer:
            parent = spans[parent].parent
        if parent < 0:
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    return {"names": by_name, "layers": by_layer}
