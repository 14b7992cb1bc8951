"""In-memory span recorder for the traced run.

A span is (name, start, end, parent index, trace id). Spans stay in a list
until the run ends and are then written out as JSON lines. A span's self
time is its duration minus the time its direct children cover; children
never overlap because one thread records them, nested by ``with``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, trace_id]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id=None):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, trace_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Name -> summed duration (children included)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, tid) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "trace_id": tid}) + "\n")


class NullTracer:
    """Same interface, records nothing: the timed runs use this."""

    @contextmanager
    def span(self, name: str, trace_id=None):
        yield
