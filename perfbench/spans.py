"""In-memory span recorder for the traced run.

Spans are taken from outside the package: ``wrap`` replaces a function at
the module or class attribute where its callers look it up, so the source
stays untouched.  Each span keeps its parent span and the id of the trace
(one benchmark iteration) it belongs to; self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)`` returns exact work counts for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.trace, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def totals(self) -> dict[int, dict[str, dict]]:
        """Per trace, per span name: total s, self s, calls and summed counts."""
        out: dict[int, dict[str, dict]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.trace, {}).setdefault(
                span.name, {"s": 0.0, "self_s": 0.0, "calls": 0}
            )
            entry["s"] += span.duration
            entry["self_s"] += self_s
            entry["calls"] += 1
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self, path: Path) -> None:
        rows = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self.self_times())]
        Path(path).write_text(json.dumps(rows) + "\n")
