"""Parallel query execution over pinned snapshots.

Three fan-out shapes, all reading one pinned generation so results are
bit-identical to a single-threaded run:

* :meth:`ParallelQueryExecutor.select_batch` — a batch of XPath
  queries spread across a thread pool, one shared store evaluator
  (it keeps no per-query state);
* :meth:`ParallelQueryExecutor.scan_tag` — one per-tag candidate list
  split into rank-contiguous chunks, each chunk filtered for
  containment under the context node concurrently, merged in document
  order by construction (the chunks partition a rank-sorted list);
* :meth:`ParallelQueryExecutor.federated_find_tags` — tag lookups
  fanned across federation sites; with simulated site latency the
  sleeps overlap, which is where threading genuinely pays on a GIL
  interpreter.

Every dispatched work unit is counted in the document's
``concurrent.parallel_chunks`` metric.

An optional :class:`~repro.resilience.admission.AdmissionController`
gates each fan-out entry point: a batch that cannot get a token within
the bounded queue is shed with a typed
:class:`~repro.errors.Overloaded` before any threads are dispatched,
so overload cannot multiply itself through the pool.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.concurrent.document import ConcurrentDocument, PinnedSnapshot
from repro.xmltree.node import XmlNode


def _split_chunks(items: Sequence, chunk_count: int) -> List[Sequence]:
    """Split into at most *chunk_count* contiguous, order-preserving
    runs of near-equal length."""
    total = len(items)
    count = max(1, min(chunk_count, total))
    size, remainder = divmod(total, count)
    chunks: List[Sequence] = []
    start = 0
    for index in range(count):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


class ParallelQueryExecutor:
    """Thread-pool fan-out bound to one :class:`ConcurrentDocument`."""

    def __init__(
        self,
        document: ConcurrentDocument,
        threads: int = 4,
        admission=None,
    ):
        if threads < 1:
            raise ValueError("need at least one thread")
        self.document = document
        self.threads = threads
        #: optional AdmissionController shedding whole batches
        self.admission = admission

    def _admitted(self):
        if self.admission is None:
            return contextlib.nullcontext()
        return self.admission.admit()

    # ------------------------------------------------------------------
    def select_batch(
        self,
        queries: Sequence[str],
        threads: Optional[int] = None,
        snapshot: Optional[PinnedSnapshot] = None,
    ) -> List[List[XmlNode]]:
        """Evaluate *queries* concurrently against one generation.

        All queries of the batch see the same pinned snapshot, so the
        result is exactly what a sequential loop over the batch would
        produce at that generation — regardless of writer activity.
        """
        workers = threads if threads is not None else self.threads
        with self._admitted():
            if snapshot is not None:
                return self._run_batch(snapshot, queries, workers)
            with self.document.pin() as snap:
                return self._run_batch(snap, queries, workers)

    def _run_batch(
        self, snap: PinnedSnapshot, queries: Sequence[str], workers: int
    ) -> List[List[XmlNode]]:
        compiled = [self.document.compile(q) for q in queries]
        evaluator = snap.evaluator()
        if workers == 1 or len(compiled) <= 1:
            results = [evaluator.select(plan) for plan in compiled]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(evaluator.select, compiled))
        self.document._note_chunks(len(compiled))
        return results

    # ------------------------------------------------------------------
    def scan_tag(
        self,
        tag: str,
        context: Optional[XmlNode] = None,
        chunks: Optional[int] = None,
        snapshot: Optional[PinnedSnapshot] = None,
    ) -> List[XmlNode]:
        """Descendant-or-self elements named *tag* under *context*.

        The per-tag candidate list (already in document-rank order) is
        cut into rank-contiguous chunks; each chunk runs the interval
        containment test on its own thread. Concatenating the filtered
        chunks preserves document order — no merge sort needed.
        """
        with self._admitted():
            if snapshot is not None:
                return self._run_scan(snapshot, tag, context, chunks)
            with self.document.pin() as snap:
                return self._run_scan(snap, tag, context, chunks)

    def _run_scan(
        self,
        snap: PinnedSnapshot,
        tag: str,
        context: Optional[XmlNode],
        chunks: Optional[int],
    ) -> List[XmlNode]:
        # NodeStore protocol only — the pinned view may be a full
        # StructuralView or a chained DeltaView; both serve candidate
        # lists and an aligned rank column.
        view = snap.view
        candidates = view.labels_with_tag(tag)
        if not candidates:
            return []
        context_label = (
            view.label_for(context) if context is not None else view.root_label()
        )
        low = view.rank_of(context_label)
        high = view.end_of(context_label)
        ranks = view.tag_ranks(tag)

        def filter_chunk(span: Sequence[int]) -> List[int]:
            return [candidates[i] for i in span if low <= ranks[i] <= high]

        parts = _split_chunks(range(len(candidates)), chunks if chunks else self.threads)
        if len(parts) == 1:
            kept = filter_chunk(parts[0])
        else:
            with ThreadPoolExecutor(max_workers=len(parts)) as pool:
                kept = [nid for part in pool.map(filter_chunk, parts) for nid in part]
        self.document._note_chunks(len(parts))
        node_for = view.node_for
        return [node_for(label) for label in kept]

    # ------------------------------------------------------------------
    def federated_find_tags(
        self,
        federated,
        tags: Sequence[str],
        threads: Optional[int] = None,
        routed: bool = True,
    ) -> Dict[str, List[Tuple]]:
        """Fan ``find_tag`` lookups for *tags* across federation sites.

        Returns tag → matched ``(label, row)`` pairs in document order.
        Per-call message deltas are meaningless under concurrency (the
        coordinator counter is shared), so only matches are returned;
        read ``federated.total_messages()`` around the whole batch.
        """
        workers = threads if threads is not None else self.threads

        def lookup(tag: str):
            matches, _messages = federated.find_tag(tag, routed=routed)
            return tag, matches

        with self._admitted():
            if workers == 1 or len(tags) <= 1:
                pairs = [lookup(tag) for tag in tags]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    pairs = list(pool.map(lookup, tags))
            self.document._note_chunks(len(tags))
        return dict(pairs)
