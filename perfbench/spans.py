"""Span recording for the traced benchmark run.

A span is (name, start, end, parent). Spans stay in memory while the run
lasts and are written to one JSON file when it ends. Spans are opened
either by the benchmark around its own calls into the package, or by a
shim that temporarily replaces a module attribute the reconstruction chain
calls through (``qubotrack.pipeline.build_doublets``,
``qubotrack.solvers._restrict``, ...). Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn: Callable, name: str,
             count: Callable[["Tracer", object], None] | None = None) -> Callable:
        """Timing shim around ``fn``. ``count`` inspects the result; it runs
        in a ``trace.count`` span so its cost stays out of every layer."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                with self.span("trace.count"):
                    count(self, result)
            return result
        return traced

    def span_count(self) -> int:
        return len(self.names)

    def self_times(self, since: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name, over the spans
        opened at or after index ``since``."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(since, n):
            p = self.parents[i]
            if p >= since:
                child[p] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(since, n):
            name = self.names[i]
            totals[name] = totals.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in range(len(self.names))
                if self.names[i] == name]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            json.dump({
                "meta": meta,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[self.names[i], round(self.starts[i] - t0, 9),
                           round(self.ends[i] - t0, 9), self.parents[i]]
                          for i in range(len(self.names))],
            }, f)
            f.write("\n")


@contextmanager
def patched(replacements: list[tuple[object, str, Callable]]):
    """Set module attributes for the duration of the block, then restore them."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
