"""A NodeStore that degrades instead of failing.

:class:`ResilientNodeStore` wraps the paged store (cold reads through
the buffer pool — the path the chaos harness attacks with transient
errors and fetch-time bit flips) with three layers of defence:

1. **bounded retries** with jittered backoff for transient read faults
   (:class:`~repro.errors.TransientFetchError`,
   :class:`~repro.errors.ChecksumError` — a damaged page may read
   clean from a replica-equivalent retry in real systems; here the
   injector clears one-shot faults);
2. a **circuit breaker** on the cold-read path, so a paged store whose
   reads keep failing stops being probed on every call;
3. a **memory-store fallback**: when the breaker is open or retries
   are exhausted, the same operation is answered by the
   :class:`~repro.store.memory.MemoryNodeStore` for the same document
   generation — correct answers from RAM while the disk path heals.

The stores speak different label dialects (the paged store hands out
flattened :func:`~repro.storage.database.label_key` tuples, the
memory store scheme label objects), so the wrapper carries a key map
built from the memory store's rank index and translates arguments and
results at the boundary. Consumers see one label space: the primary's.
Rank-labeled primaries — the sqlite store, whose labels *are*
preorder ranks and whose guarded failure modes
(:class:`~repro.errors.TransientFetchError` on busy/locked reads,
:class:`~repro.errors.StorageError` on structural damage) map into
the same taxonomy — translate by rank instead: ``label_at`` going
down, ``rank_of`` coming back, no key map at all.

Semantic errors — :class:`~repro.errors.UnknownLabelError` and
friends — pass through untouched: a label that names no node is wrong
on *every* store, and masking that behind a fallback would turn a
caller bug into silent weirdness.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ChecksumError,
    CircuitOpen,
    InjectedFaultError,
    SiteUnavailableError,
    TransientFetchError,
    UnknownLabelError,
)
from repro.storage.database import label_key
from repro.store.base import Label, NodeRecord, NodeStore
from repro.xmltree.node import XmlNode

from .backoff import BackoffPolicy
from .breaker import CircuitBreaker

#: infrastructure failures a retry may clear
RETRYABLE = (TransientFetchError, ChecksumError, InjectedFaultError)
#: failures that route to the fallback store (retryables + exhaustion)
DEGRADABLE = RETRYABLE + (CircuitOpen, SiteUnavailableError)


class ResilientNodeStore(NodeStore):
    """Breaker-guarded paged store with a memory-store fallback.

    Parameters
    ----------
    primary:
        The :class:`~repro.store.paged.PagedNodeStore` to protect.
    fallback:
        A :class:`~repro.store.memory.MemoryNodeStore` over the same
        document generation, or None to fail (typed) when the primary
        path is exhausted.
    breaker:
        Circuit breaker for the primary; a default with threshold 5
        is created if omitted.
    backoff:
        Retry schedule; default full jitter over [1ms, 50ms] with a
        3-attempt budget.
    sleep:
        Injectable sleep for retry delays (tests pass a no-op; the
        accumulated ``backoff_seconds`` counter is charged either way).
    """

    store_kind = "resilient"

    def __init__(
        self,
        primary: NodeStore,
        fallback: Optional[NodeStore] = None,
        breaker: Optional[CircuitBreaker] = None,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        super().__init__()
        self.primary = primary
        self.fallback = fallback
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            "paged-reads", failure_threshold=5
        )
        self.backoff = backoff if backoff is not None else BackoffPolicy(
            base=0.001, cap=0.05, jitter="full", max_attempts=3
        )
        self.sleep = sleep if sleep is not None else time.sleep
        self.scheme_name = primary.scheme_name
        self._counters: Dict[str, float] = {
            "primary_calls": 0,
            "primary_errors": 0,
            "retries": 0,
            "fallback_calls": 0,
            "backoff_seconds": 0.0,
        }
        # label translation between the two stores' dialects, built
        # lazily from the fallback's labels on first degradation
        self._to_mem: Optional[Dict[Label, Label]] = None
        # fallback-materialised nodes need their own id → label/rank
        # maps so label_for and document-order sorting keep working
        self._fallback_label_by_id: Dict[int, Label] = {}
        self._fallback_order: Dict[int, int] = {}
        # one materialised identity per label, whichever path answered
        # first: the primary and fallback build *different* XmlNode
        # objects for the same logical node, and a query whose fault
        # schedule flips between the paths mid-run must not see both
        # (duplicate identities survive node-set dedup)
        self._node_by_label: Dict[Label, XmlNode] = {}

    # ------------------------------------------------------------------
    # Deadline pass-through: the paged store is the layer that ticks
    # ------------------------------------------------------------------
    @property
    def deadline(self):
        return getattr(self.primary, "deadline", None)

    @deadline.setter
    def deadline(self, value):
        try:
            self.primary.deadline = value
        except AttributeError:
            pass

    # ------------------------------------------------------------------
    # The guarded primary call
    # ------------------------------------------------------------------
    def _primary_call(self, method: Callable, args: tuple):
        self.breaker.guard()
        self._counters["primary_calls"] += 1
        attempts = 0
        delay = 0.0
        while True:
            attempts += 1
            try:
                result = method(*args)
            except RETRYABLE:
                self._counters["primary_errors"] += 1
                self.breaker.record_failure()
                if self.backoff.exhausted(attempts) or not self.breaker.allow():
                    raise
                delay = self.backoff.delay(attempts, previous=delay)
                self._counters["retries"] += 1
                self._counters["backoff_seconds"] += delay
                self.sleep(delay)
                continue
            self.breaker.record_success()
            return result

    # ------------------------------------------------------------------
    # Label translation
    # ------------------------------------------------------------------
    def _mem_label(self, key: Label) -> Label:
        """Primary-dialect label → fallback label.

        Rank-labeled primaries (the sqlite store hands out preorder
        ranks directly) translate by rank — ``fallback.label_at`` —
        with no key map at all; storage-keyed primaries (paged) go
        through a :func:`label_key` map over the fallback's labels.
        """
        if getattr(self.primary, "labels_are_ranks", False):
            return self.fallback.label_at(key)
        if self._to_mem is None:
            label_at = self.fallback.label_at
            labels = (label_at(rank) for rank in range(self.fallback.size()))
            self._to_mem = {label_key(lb): lb for lb in labels}
        try:
            return self._to_mem[key]
        except KeyError:
            raise UnknownLabelError(
                f"label {key!r} unknown to the fallback store"
            ) from None

    def _primary_label(self, value: Label) -> Label:
        """Fallback label → primary-dialect label (inverse of
        :meth:`_mem_label`)."""
        if getattr(self.primary, "labels_are_ranks", False):
            return self.fallback.rank_of(value)
        return label_key(value)

    def _call(
        self,
        opname: str,
        args: tuple = (),
        label_positions: Tuple[int, ...] = (),
        result: str = "raw",
    ):
        """Run *opname* on the primary; degrade to the fallback on
        infrastructure failure, translating labels both ways."""
        try:
            return self._primary_call(getattr(self.primary, opname), args)
        except DEGRADABLE:
            if self.fallback is None:
                raise
            self._counters["fallback_calls"] += 1
            mem_args = list(args)
            for position in label_positions:
                mem_args[position] = self._mem_label(args[position])
            value = getattr(self.fallback, opname)(*mem_args)
            if result == "label":
                return self._primary_label(value)
            if result == "optional_label":
                return None if value is None else self._primary_label(value)
            if result == "labels":
                return [self._primary_label(v) for v in value]
            return value

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self.primary.generation

    def size(self) -> int:
        return self._call("size")

    def root_label(self) -> Label:
        return self._call("root_label", result="label")

    def rank_of(self, label: Label) -> int:
        return self._call("rank_of", (label,), label_positions=(0,))

    def end_of(self, label: Label) -> int:
        return self._call("end_of", (label,), label_positions=(0,))

    def label_at(self, rank: int) -> Label:
        return self._call("label_at", (rank,), result="label")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def parent_of(self, label: Label) -> Optional[Label]:
        return self._call(
            "parent_of", (label,), label_positions=(0,), result="optional_label"
        )

    def children_of(self, label: Label) -> List[Label]:
        return self._call(
            "children_of", (label,), label_positions=(0,), result="labels"
        )

    def descendant_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        return self._call(
            "descendant_labels",
            (label, or_self),
            label_positions=(0,),
            result="labels",
        )

    def ancestor_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        return self._call(
            "ancestor_labels",
            (label, or_self),
            label_positions=(0,),
            result="labels",
        )

    # ------------------------------------------------------------------
    # Record fetch
    # ------------------------------------------------------------------
    def record(self, label: Label) -> NodeRecord:
        try:
            return self._primary_call(self.primary.record, (label,))
        except DEGRADABLE:
            if self.fallback is None:
                raise
            self._counters["fallback_calls"] += 1
            got = self.fallback.record(self._mem_label(label))
            # re-key into the paged label dialect so consumers stay in
            # one label space
            return NodeRecord(label, got.tag, got.kind, got.text)

    def node_for(self, label: Label) -> XmlNode:
        node = self._node_by_label.get(label)
        if node is not None:
            return node
        try:
            node = self._primary_call(self.primary.node_for, (label,))
        except DEGRADABLE:
            if self.fallback is None:
                raise
            self._counters["fallback_calls"] += 1
            mem_label = self._mem_label(label)
            node = self.fallback.node_for(mem_label)
            self._fallback_label_by_id[node.node_id] = label
            self._fallback_order[node.node_id] = self.fallback.rank_of(mem_label)
        self._node_by_label[label] = node
        return node

    def label_for(self, node: XmlNode) -> Label:
        try:
            return self.primary.label_for(node)
        except UnknownLabelError:
            try:
                return self._fallback_label_by_id[node.node_id]
            except KeyError:
                raise UnknownLabelError(
                    f"node {node!r} was not materialised by this store"
                ) from None

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def labels_with_tag(self, tag: str) -> List[Label]:
        return self._call("labels_with_tag", (tag,), result="labels")

    def element_labels(self) -> List[Label]:
        return self._call("element_labels", result="labels")

    def text_labels(self) -> List[Label]:
        return self._call("text_labels", result="labels")

    def comment_labels(self) -> List[Label]:
        return self._call("comment_labels", result="labels")

    def structural_labels(self) -> List[Label]:
        return self._call("structural_labels", result="labels")

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def attributes_of(self, label: Label) -> Tuple[Tuple[str, str], ...]:
        return self._call("attributes_of", (label,), label_positions=(0,))

    def attribute_labels(self, label: Label) -> List[Label]:
        return self._call(
            "attribute_labels", (label,), label_positions=(0,), result="labels"
        )

    def string_value(self, label: Label) -> str:
        return self._call("string_value", (label,), label_positions=(0,))

    def path_of(self, label: Label) -> str:
        return self._call("path_of", (label,), label_positions=(0,))

    # ------------------------------------------------------------------
    # Evaluation support
    # ------------------------------------------------------------------
    def order_by_id(self) -> Dict[int, int]:
        # ranks agree across stores (same generation, same preorder),
        # so fallback-materialised ids merge cleanly
        if not self._fallback_order:
            return self.primary.order_by_id()
        merged = dict(self.primary.order_by_id())
        merged.update(self._fallback_order)
        return merged

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        """True once any call has been answered by the fallback."""
        return self._counters["fallback_calls"] > 0

    def as_dict(self) -> Dict[str, float]:
        out = dict(self._counters)
        for key, value in self.breaker.stats().items():
            out[f"breaker.{key}"] = value
        return out

    def bind(self, registry, prefix: str = "resilience.store") -> None:
        registry.register_source(prefix, self.as_dict)

    def stats_snapshot(self) -> Dict[str, int]:
        return self.primary.stats_snapshot()
