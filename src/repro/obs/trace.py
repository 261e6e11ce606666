"""Lightweight structured span tracing.

A :class:`Tracer` records a tree of timed spans - compiler phases,
cache lookups, machine run segments - with nanosecond-free overhead
when no tracer is installed: the module-level :func:`span` helper is a
no-op unless :func:`use_tracer` has installed one, so library code can
be instrumented unconditionally.

Spans are plain records (name, category, start, end, depth, parent)
and export losslessly to Chrome ``trace_event`` JSON
(:func:`repro.obs.export.chrome_trace`, loadable in ``about:tracing``
or Perfetto) and to a flat metrics dict.

Usage::

    tracer = Tracer()
    with use_tracer(tracer):
        result = compile_circuit(circuit, options)   # phases self-span
    print(tracer.render_tree())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished (or still-open) timed span."""

    name: str
    cat: str
    start: float
    end: float | None = None
    depth: int = 0
    parent: int = -1            # index into Tracer.spans, -1 for roots
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


class Tracer:
    """Records a nesting tree of spans, in start order."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: list[Span] = []
        self._stack: list[int] = []     # indices of open spans

    @contextmanager
    def span(self, name: str, cat: str = "", **args):
        """Open a child span of the innermost open span."""
        idx = len(self.spans)
        s = Span(name=name, cat=cat, start=self._clock(),
                 depth=len(self._stack),
                 parent=self._stack[-1] if self._stack else -1,
                 args=dict(args))
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._stack.pop()

    @property
    def clock(self):
        """The tracer's time source, for spans measured elsewhere."""
        return self._clock

    def record(self, name: str, start: float, end: float, cat: str = "",
               **args) -> None:
        """Add a finished root span measured elsewhere (e.g. a build on
        a background thread, with :attr:`clock`), in start order."""
        spans = self.spans
        pos = len(spans)
        while pos and spans[pos - 1].start > start:
            pos -= 1
        for s in spans[pos:]:
            if s.parent >= pos:
                s.parent += 1
        self._stack[:] = [i + (i >= pos) for i in self._stack]
        spans.insert(pos, Span(name=name, cat=cat, start=start, end=end,
                               args=dict(args)))

    # ------------------------------------------------------------------
    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == index]

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def render_tree(self) -> str:
        """Indented text rendering, for terminals and reports."""
        lines = []
        for s in self.spans:
            extra = ""
            if s.args:
                extra = "  " + " ".join(f"{k}={v}" for k, v in
                                        sorted(s.args.items()))
            lines.append(f"{'  ' * s.depth}{s.name:<{32 - 2 * s.depth}s} "
                         f"{s.duration * 1e3:9.2f} ms{extra}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The installed tracer.  Library code calls the module-level span();
# when nothing is installed it costs one global load and a None check.
# ---------------------------------------------------------------------------
_current: Tracer | None = None


def current_tracer() -> Tracer | None:
    return _current


@contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` as the ambient tracer for the duration."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous


@contextmanager
def span(name: str, cat: str = "", **args):
    """Span against the ambient tracer; no-op when none is installed."""
    tracer = _current
    if tracer is None:
        yield None
        return
    with tracer.span(name, cat, **args) as s:
        yield s
