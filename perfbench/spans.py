"""In-memory spans recorded by the benchmark around its calls into idealis.

A span has a name, a start, an end, a parent span and an operation id;
every span opened inside an operation shares that operation's id. Spans
are kept in a list and written out once, when the run ends. A layer's
self time is its span time minus the part of it that child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        # (name, start, end, span_id, parent_id, op_id); ids start at 1
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self._stack: list[tuple[int, int]] = []       # (span_id, op_id)
        self._next_id = 1
        self._next_op = 1

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        span_id = self._next_id
        self._next_id += 1
        parent, op = self._stack[-1] if self._stack else (0, 0)
        if new_op:
            op = self._next_op
            self._next_op += 1
        self._stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, span_id, parent, op))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children = defaultdict(list)
        for name, start, end, _, parent, _ in self.spans:
            children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, span_id, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": span_id, "parent": parent,
                                     "op": op}) + "\n")


class NoTracer:
    """Tracing off: every span is one shared no-op context."""

    _null = nullcontext()

    def span(self, name: str, new_op: bool = False):
        return self._null
