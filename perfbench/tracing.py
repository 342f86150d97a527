"""In-memory spans recorded around the benchmark's calls into each layer.

A span is one timed call: its name, start and end (``perf_counter``
seconds), the index of the span open around it (its parent) and the
operation id it belongs to.  Spans are only appended to a list while the
run goes on; :meth:`Tracer.dump` writes them out once, at the end.

A disabled tracer hands out one shared no-op context manager, so the
timed (untraced) runs pay a method call per layer boundary and nothing
else.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 op: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op,
        }


_NOOP = contextlib.nullcontext()


class Tracer:
    """Records nested spans; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            return _NOOP
        return self._record(name, op)

    @contextlib.contextmanager
    def _record(self, name: str, op: Optional[int]) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, time.perf_counter(), parent, op)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            op: Optional[int] = None) -> None:
        """Record an already-timed span under the currently open one
        (pipelined frames overlap, so they cannot nest as ``with``)."""
        if not self.enabled:
            return
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, start, parent, op)
        span.end = end
        self.spans.append(span)

    def durations(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus
        the part of it that its child spans cover (overlapping children
        are merged first)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(children.get(index, ()))
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.seconds - covered
            )
        return totals

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        document = dict(extra)
        document["self_seconds"] = self.self_seconds()
        document["spans"] = [span.to_dict() for span in self.spans]
        with open(path, "w") as handle:
            json.dump(document, handle)


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
