"""Spans around the benchmark's calls into the program, kept in memory.

A span records its name, start, end, the span that contains it and the
query it belongs to.  ``Tracer.call`` wraps one call; ``NullTracer`` has the
same interface and records nothing, so the untraced run executes the same
benchmark code minus the bookkeeping.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def begin_query(self, qid: int) -> None:
        pass

    def end_query(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # (query, span id, parent id or None, name, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._query = -1
        self._root = -1

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._query, sid, parent, name, perf_counter(), None))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = perf_counter()
        self._stack.pop()
        q, _, parent, name, start, _ = self.spans[sid]
        self.spans[sid] = (q, sid, parent, name, start, end)

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def begin_query(self, qid: int) -> None:
        self._query = qid
        self._root = self._open("query")

    def end_query(self) -> None:
        self._close(self._root)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished child span measured elsewhere (another process)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._query, len(self.spans), parent, name, start, end))

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for _, sid, _, name, start, end in self.spans:
            out[name].append(end - start - covered[sid])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for q, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"query": q, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
