"""Spans around the benchmark's calls into the six ``gqd`` modules.

A span records one call into a layer's public function: its name
(``<layer>.<function>``), start and end, the span that caused it and the
operation it belongs to. Spans stay in memory until the run writes them
out. With tracing off, :class:`NullTracer` calls straight through.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

LAYERS = ("cli", "discord", "measurement", "qcore", "dynamics", "checks")
# Time inside an operation that no layer span covers: the benchmark's own
# input handling and output checks.
BENCH_LAYER = "bench"


@dataclass
class Span:
    op: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id: str):
        yield

    @contextlib.contextmanager
    def patched(self, module, names, layer: str):
        yield


class Tracer(NullTracer):
    """Tracing on: one :class:`Span` per call, nested by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = ""

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Group the spans of one operation under a root span ``op``."""
        self._op = op_id
        with self.span("bench.op"):
            yield
        self._op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self, module, names, layer: str):
        """Wrap ``module.<name>`` for each name while the block runs.

        Used where the package calls another layer's public function, such
        as ``gqd.cli`` calling ``gqd_numeric``: the wrapper sits in the
        caller's namespace, so the package code itself is unchanged.
        """
        saved = {n: getattr(module, n) for n in names}

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                return self.call(f"{layer_of(fn, layer)}.{name}", fn, *args, **kwargs)
            return wrapper

        for n, fn in saved.items():
            setattr(module, n, wrap(n, fn))
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def durations_in(self, op: str, name: str) -> list[float]:
        """Durations of the spans called ``name`` within operation ``op``."""
        return [s.end - s.start for s in self.spans if s.op == op and s.name == name]

    def self_times(self, op_prefix: str = "") -> dict[str, float]:
        """Seconds per layer that no child span covers, over matching ops."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
        for s in self.spans:
            if s.op.startswith(op_prefix):
                out[s.layer] += (s.end - s.start) - child_time[s.span_id]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "op": s.op, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def layer_of(fn, default: str) -> str:
    """The ``gqd`` module a function is defined in, e.g. ``discord``."""
    module = getattr(fn, "__module__", "") or ""
    name = module.rsplit(".", 1)[-1]
    return name if name in LAYERS else default
