"""In-memory span recorder for the traced benchmark runs.

A span marks one call from the benchmark into a layer of engagekit. Spans
nest: a span's self time is its duration minus the time covered by its
direct children, so the self times of all spans under a root add up to the
root's duration. Every span also records how the autograd tape grew while it
was open (`tape_size` is `engagekit.tensor.tape_size`), which gives tape-node
counts per model scope without instrumenting the program itself.

Spans stay in memory; `summary` reduces them when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int            # index of the enclosing span, -1 for a root
    op: int                # id of the root operation this span belongs to
    start: float
    tape_start: int
    end: float = 0.0
    tape_end: int = 0
    child_s: float = 0.0   # summed duration of direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def count(self, key: str, value) -> None:
        self.tracer.spans[self.index].counts[key] = value

    def __exit__(self, *exc):
        tracer = self.tracer
        span = tracer.spans[self.index]
        span.end = time.perf_counter()
        span.tape_end = tracer.tape_size()
        tracer.stack.pop()
        if span.parent >= 0:
            tracer.spans[span.parent].child_s += span.duration
        return False


class _Null:
    """Stands in for a span when tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key: str, value) -> None:
        pass


_NULL = _Null()


class Tracer:
    def __init__(self, enabled: bool, tape_size=lambda: 0):
        self.enabled = enabled
        self.tape_size = tape_size
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self._ops = 0

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent].op
        self.spans.append(Span(name, parent, op, time.perf_counter(), self.tape_size()))
        index = len(self.spans) - 1
        self.stack.append(index)
        return _Open(self, index)

    def summary(self) -> dict:
        """Per span name: calls, seconds, tape growth and counts; plus the totals over root spans named `workload.*` (the
        measured operations, as opposed to set-up)."""
        if self.stack:
            raise RuntimeError(f"unclosed spans: {[self.spans[i].name for i in self.stack]}")
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                       "tape_grown": 0, "tape_at_start": 0,
                                       "counts": defaultdict(float)})
        measured_ops = {s.op for s in self.spans
                        if s.parent < 0 and s.name.startswith("workload.")}
        layer_self = defaultdict(float)
        root_s = 0.0
        for s in self.spans:
            row = by_name[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["tape_grown"] += s.tape_end - s.tape_start
            row["tape_at_start"] += s.tape_start
            for key, value in s.counts.items():
                row["counts"][key] += value
            if s.op in measured_ops:
                if s.parent < 0:
                    root_s += s.duration
                layer_self[s.name.split(".", 1)[0]] += s.self_time
        return {"spans": dict(by_name), "layer_self_s": dict(layer_self),
                "root_s": root_s, "ops": len(measured_ops)}
