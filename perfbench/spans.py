"""In-memory spans recorded around the benchmark's calls into the package.

A span is (id, name, start, end, parent, run_id).  Names are
'<module>.<function>' for calls into a package module and 'task.<name>'
for the task that made them, so a module's self time is its spans'
durations minus the parts their child spans cover.  With tracing off the
tracer only calls through, so the untraced timing run pays nothing.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id))

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n


def write(path: Path, recorded, counts) -> None:
    keys = ("id", "name", "start", "end", "parent", "run_id")
    doc = {"spans": [dict(zip(keys, s)) for s in recorded], "counts": dict(counts)}
    path.write_text(json.dumps(doc))


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time (duration minus child durations) and call count."""
    # span ids are unique within a run id only
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for _, _, start, end, parent, run_id in spans:
        if parent is not None:
            child_time[run_id, parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for sid, name, start, end, _, run_id in spans:
        busy[name] += (end - start) - child_time[run_id, sid]
        calls[name] += 1
    return dict(busy), dict(calls)


def durations(spans, name: str) -> list[float]:
    return [end - start for _, n, start, end, _, _ in spans if n == name]
