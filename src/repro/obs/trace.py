"""Hierarchical trace spans with a ring-buffer recorder.

The observability layer's timing substrate: a :class:`Tracer` hands out
:class:`Span` context managers stamped with ``time.perf_counter_ns``
at entry and exit. Spans nest — the tracer keeps a stack of open spans,
so every finished span knows its parent and the recorder can rebuild
the call tree for EXPLAIN ANALYZE or the pretty-tree exporter.

Finished spans land in a bounded ring buffer (a ``deque`` with
``maxlen``): tracing a long run never grows memory without bound, the
newest spans win.

When tracing is off, components hold either ``None`` (checked inline on
the hottest paths — the evaluator's step loop) or :data:`NULL_TRACER`,
a shared no-op whose ``span()`` returns a reusable do-nothing context
manager. Both cost roughly one branch per call site.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed, attributed interval; usable as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "start_ns", "end_ns")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start_ns = 0
        self.end_ns: Optional[int] = None

    # -- context manager ----------------------------------------------------
    # The tracer's bookkeeping is inlined here rather than delegated:
    # these two methods run once per traced evaluator step, and the
    # extra call each would cost is a measurable share of the E15
    # full-instrumentation overhead.
    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = perf_counter_ns()
        tracer = self.tracer
        stack = tracer._stack
        while stack and stack[-1] is not self:  # tolerate leaked children
            stack.pop()
        if stack:
            stack.pop()
        finished = tracer._finished
        if len(finished) == tracer.capacity:
            tracer.dropped += 1
        finished.append(self)
        return False

    # -- attributes ---------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else perf_counter_ns()
        return end - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration_ns}ns {self.attrs}>"


class Tracer:
    """Records well-nested spans into a bounded ring buffer."""

    enabled = True

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._finished: "deque[Span]" = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_id = 0
        #: spans dropped because the ring buffer wrapped
        self.dropped = 0

    # -- span lifecycle -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; enter it (``with``) to start the clock."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span recorded immediately (a point event)."""
        span = Span(self, name, attrs)
        span.__enter__()
        span.__exit__(None, None, None)
        return span

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op if none)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def annotate_once(self, **attrs: Any) -> None:
        """Like :meth:`annotate`, but first write wins — used where an
        outer dispatch must not be overwritten by nested evaluation
        (e.g. predicate sub-paths re-entering the step dispatcher)."""
        stack = self._stack
        if stack:
            existing = stack[-1].attrs
            for key, value in attrs.items():
                if key not in existing:
                    existing[key] = value

    # -- inspection ---------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def finished(self) -> List[Span]:
        """Finished spans, oldest first."""
        return list(self._finished)

    def clear(self) -> None:
        self._finished.clear()
        self._stack.clear()
        self.dropped = 0

    # -- exporters ----------------------------------------------------------
    def roots(self) -> List[Span]:
        """Finished spans whose parent is absent from the buffer."""
        present = {span.span_id for span in self._finished}
        return [
            span
            for span in self._finished
            if span.parent_id is None or span.parent_id not in present
        ]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of *span* among the finished spans, by id."""
        return [s for s in self._finished if s.parent_id == span.span_id]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Every finished span as a JSON array (oldest first).

        Attribute values that are not JSON-native (e.g. raw AST nodes
        attached on hot paths to avoid eager stringification) are
        rendered through ``str``.
        """
        return json.dumps(
            [s.as_dict() for s in self._finished], indent=indent, default=str
        )

    def format_tree(self, time_unit: str = "us") -> str:
        """Pretty call-tree rendering of the finished spans."""
        divisor = {"ns": 1, "us": 1_000, "ms": 1_000_000}[time_unit]
        lines: List[str] = []

        def walk(span: Span, prefix: str) -> None:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            duration = span.duration_ns / divisor
            lines.append(
                f"{prefix}{span.name}  {duration:.1f}{time_unit}"
                + (f"  [{attrs}]" if attrs else "")
            )
            for child in self.children_of(span):
                walk(child, prefix + "  ")

        for root in self.roots():
            walk(root, "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Tracer spans={len(self._finished)}/{self.capacity} "
            f"open={len(self._stack)} dropped={self.dropped}>"
        )


class _NullSpan:
    """Reusable do-nothing span; one shared instance serves all sites."""

    __slots__ = ()
    name = "null"
    attrs: Dict[str, Any] = {}
    duration_ns = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-cost stand-in when tracing is disabled.

    Every method is a no-op returning shared singletons, so attaching
    :data:`NULL_TRACER` instead of ``None`` keeps call sites branch-free
    at the price of one dynamic call.
    """

    enabled = False
    dropped = 0
    current = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        return None

    def annotate_once(self, **attrs: Any) -> None:
        return None

    def finished(self) -> List[Span]:
        return []

    def roots(self) -> List[Span]:
        return []

    def clear(self) -> None:
        return None

    def to_json(self, indent: Optional[int] = None) -> str:
        return "[]"

    def format_tree(self, time_unit: str = "us") -> str:
        return ""

    def __repr__(self) -> str:
        return "<NullTracer>"


#: the shared disabled tracer
NULL_TRACER = NullTracer()
