"""Wrap points of the traced run.

Only public entry points are wrapped, from outside the program: a
delegating :class:`StoreProxy` around the ``NodeStore`` an evaluator
reads through, and :class:`Patches`, which swaps an attribute (of an
instance, a class or a module) for a recording wrapper and restores it
when the traced phase ends.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from .spans import SpanRecorder

_MISSING = object()


class StoreProxy:
    """A ``NodeStore`` stand-in that records every method call into the
    wrapped store as a ``store.<method>`` span.

    Plain attributes (``stats``, ``columnar``, ``labeling`` ...) read
    through unchanged, and assignments (an evaluator forwarding its
    deadline) land on the wrapped store. A store's SQL pushdown helper
    is proxied too, so whole-step SQL shows up as store time.
    """

    def __init__(self, store: Any, recorder: SpanRecorder, prefix: str = "store"):
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_wrapped", {})

    def __getattr__(self, name: str) -> Any:
        wrapped = self._wrapped.get(name)
        if wrapped is not None:
            return wrapped
        value = getattr(self._store, name)
        if name == "axis_pushdown" and value is not None:
            wrapped = StoreProxy(value, self._recorder, f"{self._prefix}.pushdown")
        elif callable(value) and not isinstance(value, type):
            wrapped = self._recording(value, f"{self._prefix}.{name}")
        else:
            return value
        self._wrapped[name] = wrapped
        return wrapped

    def _recording(self, method, name):
        span = self._recorder.span

        def call(*args, **kwargs):
            with span(name):
                return method(*args, **kwargs)

        return call

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._store, name, value)


class Patches:
    """Attribute swaps undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        previous = owner.__dict__.get(name, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def wrap(self, recorder: SpanRecorder, owner: Any, name: str, span_name: str) -> None:
        """Record calls of ``owner.name`` (sync) as *span_name*."""
        self.set(owner, name, recorder.wrap(getattr(owner, name), span_name))

    def wrap_async(self, recorder: SpanRecorder, owner: Any, name: str, span_name: str) -> None:
        self.set(owner, name, recorder.wrap_async(getattr(owner, name), span_name))

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
