"""In-memory span recorder for the traced pass.

A span is (name, op id, start, end, parent, lane, counts).  Spans are
opened from the benchmark's own files around calls into one layer each;
nothing inside ``src/repro`` is instrumented.  A disabled tracer hands
out throw-away count dicts and records nothing, so the untraced pass
runs the same statements without the bookkeeping.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Time the enclosed statements; yields the span's count dict."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        index = self.add(name, perf_counter(), None,
                         self._stack[-1] if self._stack else None, op)
        self.spans[index]["counts"] = counts
        self._stack.append(index)
        try:
            yield counts
        finally:
            self._stack.pop()
            self.spans[index]["end"] = perf_counter()

    def add(self, name, start, end, parent, op=None, lane=0,
            **counts) -> int:
        """Record a span measured elsewhere (concurrent server jobs)."""
        self.spans.append({"name": name, "op": op, "start": start,
                           "end": end, "parent": parent, "lane": lane,
                           "counts": counts})
        return len(self.spans) - 1

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover
        (children may overlap each other, so take their union)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for index, s in enumerate(self.spans):
            covered, edge = 0.0, s["start"]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, edge), min(end, s["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out.append(s["end"] - s["start"] - covered)
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (chrome://tracing, Perfetto)."""
        if not self.spans:
            return
        origin = min(s["start"] for s in self.spans)
        events = [{"name": s["name"], "ph": "X", "pid": 1,
                   "tid": s["lane"],
                   "ts": (s["start"] - origin) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"op": s["op"], "parent": s["parent"],
                            **s["counts"]}}
                  for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
