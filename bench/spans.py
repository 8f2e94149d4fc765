"""In-memory spans with self time, and their Chrome trace-event form.

A span records a name, a start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began, and free-form attributes.
Calls too frequent to record one span each (``cond_column`` runs once per
column of a pairwise table) are aggregated instead: a count and a total
time per name, with the time also charged to the enclosing span so that
its self time excludes it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tid: int = 0
    attrs: dict = field(default_factory=dict)
    child_agg_s: float = 0.0  # aggregated calls that ran inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0


class Tracer:
    """Collects spans and aggregates; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                    tid=threading.get_ident(), attrs=dict(attrs))
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().remove(index)

    def add(self, name: str, seconds: float) -> None:
        """Count one aggregated call of ``seconds`` inside the open span."""
        agg = self.aggregates.setdefault(name, Aggregate())
        agg.calls += 1
        agg.total_s += seconds
        stack = self._stack()
        if stack:
            self.spans[stack[-1]].child_agg_s += seconds


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its child spans and aggregated calls."""
    out = [s.duration - s.child_agg_s for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def chrome_trace(tracer: Tracer, metadata: dict | None = None) -> dict:
    """Complete ("X") events in microseconds from the first span's start."""
    origin = min((s.start for s in tracer.spans), default=0.0)
    events = []
    for i, (s, self_s) in enumerate(zip(tracer.spans, self_times(tracer.spans))):
        args = {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))}
        args["self_us"] = self_s * 1e6
        args["span"] = i
        if s.parent is not None:
            args["parent"] = s.parent
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.tid,
            "args": args,
        })
    aggregates = {k: {"calls": a.calls, "total_s": a.total_s} for k, a in tracer.aggregates.items()}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"aggregates": aggregates, **(metadata or {})},
    }


def write_chrome_trace(path, tracer: Tracer, metadata: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, metadata), fh)
