"""Spans around calls into ctcdec, recorded by the benchmark itself.

A span has a name (`<layer>.<call>`, where the layer is a ctcdec module),
a start and end in nanoseconds, the span that was open when it started,
and the utterance or record id it belongs to. Spans are held in memory
and written out once the run ends. A layer's self time is its spans'
length minus the part covered by their child spans.

With tracing off, `NullTracer.span` hands back one shared no-op context
manager, so the untraced run times the same code with next to no cost.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Iterator

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str, item: str | None = None):
        return _NULL

    def iterate(self, name: str, iterator: Iterator) -> Iterator:
        return iterator


class _Span:
    __slots__ = ("tracer", "index", "name", "item", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, item: str | None):
        self.tracer = tracer
        self.name = name
        self.item = item
        self.index = -1
        self.parent = -1
        self.start = self.end = 0

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        self.parent = tracer._stack[-1].index if tracer._stack else -1
        if self.item is None and tracer._stack:
            self.item = tracer._stack[-1].item
        tracer.spans.append(self)
        tracer._stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []

    def span(self, name: str, item: str | None = None) -> _Span:
        return _Span(self, name, item)

    def iterate(self, name: str, iterator: Iterator) -> Iterator:
        """Yield from `iterator`, one span per `next()`; the span's item is the record key."""
        while True:
            with self.span(name) as span:
                try:
                    value = next(iterator)
                except StopIteration:
                    return
                span.item = getattr(value, "key", None) or span.item
            yield value

    def self_times(self) -> list[int]:
        """Per span: its length minus the length of its direct children, in ns."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_ns in zip(self.spans[since:], own[since:]):
            row = out[s.name]
            row["count"] += 1
            row["total_s"] += (s.end - s.start) / 1e9
            row["self_s"] += self_ns / 1e9
        return dict(out)

    def layer_self_times(self, since: int = 0) -> dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        out: dict[str, float] = defaultdict(float)
        for name, row in self.totals(since).items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.index,
                "parent": s.parent,
                "name": s.name,
                "item": s.item,
                "start_ns": s.start,
                "end_ns": s.end,
            }
            for s in self.spans
        ]
