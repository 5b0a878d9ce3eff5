"""In-memory spans recorded around calls into tbtdec's public functions.

A span is (name, start, end, parent index, frame id).  Spans stay in memory
while the traced loop runs and are written out once at the end, so tracing
costs two ``perf_counter`` calls and a list append per span.  Self time of a
span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


def null_span(name: str, frame=None):
    """Drop-in for ``Tracer.span`` that records nothing (the untraced loop)."""
    return _NULL


class _Span:
    __slots__ = ("tracer", "name", "frame", "index", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, frame):
        self.tracer = tracer
        self.name = name
        self.frame = frame

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1] if stack else -1
        if self.frame is None and self.parent >= 0:
            self.frame = tracer._frames[self.parent]
        self.index = len(tracer.records)
        tracer.records.append(None)
        tracer._frames.append(self.frame)
        stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.records[self.index] = (self.name, self.start, end, self.parent, self.frame)
        return False


class Tracer:
    """Collects spans; children inherit the frame id of their parent."""

    def __init__(self):
        self.records: list[tuple] = []
        self._frames: list = []
        self._stack: list[int] = []

    def span(self, name: str, frame=None) -> _Span:
        return _Span(self, name, frame)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time (s) and call count per span name."""
        child = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.records):
            totals[name] += end - start - child[i]
            calls[name] += 1
        return totals, calls

    def covered(self, roots: set[str], structural: set[str]) -> tuple[float, float]:
        """Wall of the ``roots`` spans, and the part of it non-structural spans cover.

        A span is counted when its parent is a root or a structural span
        (such as a per-frame span) that is not itself layer work.
        """
        wall = 0.0
        covered = 0.0
        holders = {i for i, r in enumerate(self.records) if r[0] in roots or r[0] in structural}
        for name, start, end, parent, _ in self.records:
            if name in roots:
                wall += end - start
            elif name not in structural and parent in holders:
                covered += end - start
        return wall, covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, frame in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "frame": frame}) + "\n")
