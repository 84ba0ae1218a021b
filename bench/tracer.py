"""In-memory span tracer that wraps imeac's layer functions from outside.

Each layer is a list of wrap targets, ``module.attribute`` names that
the calling module looks up at call time (``imeac.cct.simulate`` is the
``simulate`` that ``probe_clearing_time`` calls).  While installed, the
wrapper records one span per call: layer name, start, end, parent span
and op id, plus the counts the layer's counter function derives from
the call's arguments and result.  Spans stay in memory and are written
out once, at the end of the run.

A target that no longer exists (a later refactor renamed or removed
it) is skipped and its layer reported as unmeasured, never a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

Counter = Callable[[inspect.BoundArguments, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrap point: a dotted ``module.attr`` path plus an optional counter."""

    path: str
    counter: Counter | None = None


class Tracer:
    """Collects spans while installed; harmless (uninstalled) otherwise."""

    def __init__(self, layers: dict[str, list[Target]]):
        self.layers = layers
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = -1

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Patch every wrap target that exists; remember the missing ones."""
        missing = []
        for layer, targets in self.layers.items():
            for target in targets:
                module_name, attr = target.path.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    missing.append(target.path)
                    continue
                setattr(module, attr, self._wrap(layer, original, target.counter))
                self._patched.append((module, attr, original))
        self.unmeasured = sorted(set(self.unmeasured) | set(missing))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_measured(self, layer: str) -> bool:
        return any(t.path not in self.unmeasured for t in self.layers[layer])

    def _wrap(self, layer: str, fn, counter: Counter | None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, time.perf_counter(), 0.0, parent, self._op)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound, result)
            return result

        return wrapper

    # -- op spans -----------------------------------------------------
    def op(self, op_id: int, api: str, fn: Callable[[], object]):
        """Run fn, a call of the public function api, as op op_id's root span."""
        self._op = op_id
        span = Span("op", time.perf_counter(), 0.0, None, op_id, {"api": api})
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn()
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return result, span

    # -- derived views ------------------------------------------------
    def durations(self, length: Callable[[float, float], float]) -> list[float]:
        """Every span's duration as length(start, end) measures it."""
        return [length(s.start, s.end) for s in self.spans]

    def self_times(self, durations: list[float]) -> list[float]:
        """Span duration minus the time its direct children cover.

        Spans nest strictly (one thread), so direct children never
        overlap and their durations add.
        """
        own = list(durations)
        for s, duration in zip(self.spans, durations):
            if s.parent is not None:
                own[s.parent] -= duration
        return own

    def to_json(self) -> dict:
        return {
            "unmeasured_targets": self.unmeasured,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    **({"counts": s.counts} if s.counts else {}),
                }
                for s in self.spans
            ],
        }
