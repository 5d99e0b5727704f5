"""In-memory span recording for the traced run.

Spans are recorded by the benchmark's own wrappers around public entry
points of the program; nothing inside ``src/`` is instrumented. Each
span carries a name (``<layer>.<what>``, the layer being the package
under ``src/repro/``), start and end in ``perf_counter_ns``, its parent
span and a request id shared by every span of one operation.

Parentage lives in a :class:`contextvars.ContextVar`, so asyncio tasks
(which copy the context when they are created) nest under the span that
was current where they were spawned.

A layer's self time is its span's run time minus the part of it that
child spans cover. Run time is the span's interval, or for an async
root span the slices in which its task actually ran (see
:class:`SlicedAwaitable`): the interval of a suspended request also
contains other requests' work, which is not its own.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[int, int]

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "slices", "attrs")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        #: run slices of an async root; None means "ran for its whole
        #: interval"
        self.slices: Optional[List[Interval]] = None
        self.attrs: Dict[str, float] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "slices": self.slices,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects spans; one recorder per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_request = 0

    def _open(self, name: str) -> Span:
        parent = _current.get()
        if parent is None:
            request = self._next_request
            self._next_request += 1
            parent_id = None
        else:
            request = parent.request
            parent_id = parent.sid
        span = Span(len(self.spans), name, perf_counter_ns(), parent_id, request)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span under the current one."""
        span = self._open(name)
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            _current.reset(token)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A synchronous callable recorded as span *name* per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine function recorded as span *name* per await."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            with self.span(name):
                return await fn(*args, **kwargs)

        return traced

    def dump(self, path: str, limit: int = 200_000) -> int:
        """Write the first *limit* spans as gzipped JSON lines; returns
        how many were written."""
        spans = self.spans[:limit]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict()))
                handle.write("\n")
        return len(spans)


class SliceLog:
    """Where :class:`SlicedAwaitable` appends the run slices of a task."""

    __slots__ = ("slices",)

    def __init__(self) -> None:
        self.slices: List[Interval] = []


class SlicedAwaitable:
    """Drive a coroutine while timing each step it runs.

    ``asyncio.ensure_future(SlicedAwaitable(coro, log))`` runs *coro*
    as a task; every ``send``/``throw`` into it is one slice during
    which the task held the event loop, appended to ``log.slices``.
    """

    def __init__(self, coro, log: SliceLog):
        self._coro = coro
        self._log = log

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        began = perf_counter_ns()
        try:
            return self._coro.send(value)
        finally:
            self._log.slices.append((began, perf_counter_ns()))

    def throw(self, *exc_info):
        began = perf_counter_ns()
        try:
            return self._coro.throw(*exc_info)
        finally:
            self._log.slices.append((began, perf_counter_ns()))

    def close(self):
        return self._coro.close()


# ----------------------------------------------------------------------
# Interval arithmetic and self time
# ----------------------------------------------------------------------
def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint cover of *intervals* (empty ones dropped)."""
    merged: List[Interval] = []
    for low, high in sorted(i for i in intervals if i[1] > i[0]):
        if merged and low <= merged[-1][1]:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return merged


def intersect(first: Sequence[Interval], second: Sequence[Interval]) -> List[Interval]:
    """Intersection of two unions (both sorted and disjoint)."""
    out: List[Interval] = []
    i = j = 0
    while i < len(first) and j < len(second):
        low = max(first[i][0], second[j][0])
        high = min(first[i][1], second[j][1])
        if high > low:
            out.append((low, high))
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return out


def run_intervals(span: Span) -> List[Interval]:
    """When the span's own task was running inside its interval."""
    if span.slices is None:
        return [(span.start, span.end)]
    clipped = [
        (max(low, span.start), min(high, span.end)) for low, high in span.slices
    ]
    return union(clipped)


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """span id → run time not covered by any child span."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: Dict[int, int] = {}
    for span in spans:
        run = run_intervals(span)
        own = sum(high - low for low, high in run)
        kids = children.get(span.sid)
        if kids:
            own -= sum(high - low for low, high in intersect(run, union(kids)))
        out[span.sid] = own
    return out


def layer_self_ns(spans: Sequence[Span]) -> Dict[str, int]:
    """layer → summed self time of its spans."""
    own = self_times(spans)
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        out[span.layer] += own[span.sid]
    return dict(out)
