"""In-memory spans recorded by the benchmark around its calls into priorscan.

A span has a name ``<layer>.<call>``, an optional tag (for example
``narrow`` or ``cold``), start and end times, its parent span and the id
of the operation it belongs to. Spans stay in memory and are written out
once, when the run ends. Work counts (points read, angles solved) are
recorded at the same boundaries. With tracing off, :meth:`Tracer.span`
returns a shared no-op context manager, so untraced runs pay one method
call per boundary.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

_NULL = contextlib.nullcontext()


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int | None
    name: str
    tag: str | None
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "tag", "op_id", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, tag: str | None, op_id: int | None):
        self.tracer = tracer
        self.name = name
        self.tag = tag
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        self.span_id = t.next_id
        t.next_id += 1
        self.parent = t.stack[-1].span_id if t.stack else None
        if self.op_id is None and t.stack:
            self.op_id = t.stack[-1].op_id
        t.stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans.append(Span(self.span_id, self.parent, self.op_id, self.name, self.tag, self.start, end))
        return False


class Tracer:
    """Collects spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[_Open] = []
        self.counts: dict[str, float] = {}
        self.next_id = 0
        self.ops = 0

    def span(self, name: str, tag: str | None = None, op_id: int | None = None):
        if not self.enabled:
            return _NULL
        return _Open(self, name, tag, op_id)

    def add(self, name: str, value: float) -> None:
        """Accumulate a work count recorded at a layer boundary."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [s.duration for s in self.spans if s.name == name and (tag is None or s.tag == tag)]

    def busy_by_layer(self) -> dict[str, float]:
        """Wall time per layer, counting a span only when its parent belongs
        to another layer, so nested spans of one layer are not counted twice."""
        by_id = {s.span_id: s for s in self.spans}
        busy: dict[str, float] = {}
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is None or parent.layer != s.layer:
                busy[s.layer] = busy.get(s.layer, 0.0) + s.duration
        return busy

    def self_time(self, layer: str) -> float:
        """Total duration of ``layer`` spans minus the time their children cover."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        return sum(s.duration - children.get(s.span_id, 0.0) for s in self.spans if s.layer == layer)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]}
        path.write_text(json.dumps(payload) + "\n")
