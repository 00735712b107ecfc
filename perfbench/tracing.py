"""In-memory spans recorded around the service's public calls.

The traced run replaces public methods on the live objects (instance
attributes only, nothing under ``src/`` changes) with wrappers that record a
span per call: name, start, end, parent span and thread.  Spans stay in
memory while the run measures and are written out when it ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: str = ""
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs) -> tuple[Any, Span]:
        """Run ``fn`` inside a span; returns its result and the span."""
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.current_thread().name,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        return result, span

    def wrap(self, obj: Any, attr: str, name: str, attrs_of=None) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``attrs_of(args, result)`` may return a dict stored on the span (for
        example the batch occupancy and serve mode of a forward call).
        """
        original = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            result, span = self.call(name, original, *args, **kwargs)
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        setattr(obj, attr, wrapper)

    def named(self, name: str) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's.

        Children nest inside their parent on the parent's thread, so their
        durations never overlap each other and can simply be subtracted.
        """
        with self._lock:
            spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = {}
        for index, span in enumerate(spans):
            own = span.duration - child_time[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with self._lock:
            spans = list(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                            "attrs": span.attrs,
                        }
                    )
                    + "\n"
                )

    def cost_per_span(self, calls: int = 20000) -> float:
        """Measured seconds one wrapped call adds over a direct call."""
        probe = SpanRecorder()

        def noop() -> None:
            return None

        began = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - began
        began = time.perf_counter()
        for _ in range(calls):
            probe.call("probe", noop)
        traced = time.perf_counter() - began
        return max(traced - direct, 0.0) / calls
