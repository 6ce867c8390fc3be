"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent span and the id of the op it
belongs to. Counters are keyed by ``<layer>.<count>`` and are bumped at the
same call sites as the spans. Nothing is written until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans and counts; ``op`` tags every span opened while set."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, busy time and self time per span name.

        Self time is the span's duration minus the time its direct child
        spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for index, span in enumerate(self.spans):
            entry = out[span.name]
            duration = span.end - span.start
            entry.calls += 1
            entry.busy_s += duration
            entry.self_s += duration - child_time[index]
        return dict(out)


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    active = False
    op = None
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, k: float = 1) -> None:
        pass


NULL_TRACER = NullTracer()
