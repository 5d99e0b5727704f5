"""Concurrent document: snapshot reads beside an incremental write path.

:class:`ConcurrentDocument` wraps any registered labeling behind the
subsystem's locking discipline:

* readers take the read side of a write-preferring RW lock just long
  enough to *pin* the current generation's view (building it on first
  use), then evaluate entirely against the frozen view — the lock is
  **not** held during query evaluation;
* writers serialise the structural splice on the write side, and
  **publish the new generation as a copy-on-write**
  :class:`~repro.concurrent.delta.DeltaView` layered over the previous
  generation's frozen view — O(delta), not O(n). Deltas chain up to
  ``delta_chain_limit`` layers, then the next publish folds the chain
  into a full :class:`StructuralView` rebuild (compaction). Superseded
  views retire through the :class:`~repro.concurrent.epoch.EpochReclaimer`,
  which frees each one when its last pin drops — and dropping a
  generation also evicts its cached evaluator and candidate caches;
* with :meth:`enable_area_locks`, writers first take **area-scoped
  subtree locks** (shard units from ``serving/shards.py``) so writers
  to disjoint areas overlap everywhere outside the short splice+publish
  critical section — including the optional group-commit WAL wait —
  and each published generation stamps the areas it touched.

Lock ordering (docs/CONCURRENCY.md): area locks → RW lock →
snapshot-cache lock → reclaimer lock → stats/ledger locks. Never
acquire leftward while holding rightward.

Metrics (``concurrent.*`` via the shared registry): ``snapshot_pins``,
``snapshot_builds`` (= full + delta), ``snapshot_builds_full``,
``snapshot_builds_delta``, ``snapshot_compactions``,
``delta_fallbacks``, build-cost ns histograms, ``snapshots_reclaimed``,
``writer_wait_ns``, ``reader_wait_ns``, ``parallel_chunks``,
``live_snapshots``, and the ``area_lock_*`` / ``wal_*`` families when
those layers are enabled.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.registry import get_scheme
from repro.concurrent.arealocks import AreaLockManager
from repro.concurrent.delta import (
    DeltaCaptureError,
    DeltaView,
    capture_delete,
    capture_insert,
    finish_delete,
)
from repro.concurrent.epoch import EpochReclaimer
from repro.concurrent.rwlock import ReadWriteLock
from repro.concurrent.snapshot import StructuralView
from repro.core.scheme import Labeling
from repro.core.update import RelabelReport
from repro.errors import NumberingError, StorageError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.query.parser import parse_xpath
from repro.query.stats import QueryStats
from repro.serving.shards import area_shards, rank_block_shards
from repro.store.evaluator import StoreEvaluator
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree

#: compiled plans retained by a concurrent document
PLAN_CACHE_SIZE = 128

#: delta layers a generation may stack before a publish folds the
#: chain into a full rebuild (every probe walks the chain, so depth
#: is a read-latency tax; compaction amortises it)
DELTA_CHAIN_LIMIT = 8

AnyView = Union[StructuralView, DeltaView]


class PinnedSnapshot:
    """A reader's lease on one generation's view.

    Context manager; release is idempotent. The evaluator is shared
    per generation — it keeps no mutable per-query state, so one
    instance serves every thread of a batch.
    """

    def __init__(self, document: "ConcurrentDocument", view: AnyView):
        self.document = document
        self.view = view
        self.generation = view.generation
        self._released = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def store(self) -> AnyView:
        """The pinned view under its :class:`~repro.store.base.NodeStore`
        identity (labels are ``node_id`` ints) — hand it to anything
        protocol-typed: :class:`~repro.store.evaluator.StoreEvaluator`,
        :class:`~repro.query.twig.TwigMatcher`,
        :func:`~repro.core.document.reconstruct_fragment`. Valid only
        while the pin is held."""
        return self.view

    def evaluator(self):
        """The generation's shared
        :class:`~repro.store.evaluator.StoreEvaluator`, reading the
        full or delta view through its rank columns."""
        return self.document.evaluator_for(self.view)

    def select(self, xpath: str, context: Optional[XmlNode] = None) -> List[XmlNode]:
        """Node-set of *xpath* against the pinned generation."""
        compiled = self.document.compile(xpath)
        return self.evaluator().select(compiled, context)

    def select_ids(self, xpath: str) -> List[int]:
        """``node_id`` list of :meth:`select` — the stable way to
        compare results across generations and evaluators."""
        return [node.node_id for node in self.select(xpath)]

    def release(self) -> None:
        with self._lock:
            if self._released:
                return
            self._released = True
        self.document._unpin(self.generation)

    def __enter__(self) -> "PinnedSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return f"<PinnedSnapshot gen={self.generation} {state}>"


class ConcurrentDocument:
    """Snapshot-isolated reads and O(delta) write publishes over one
    labeling."""

    def __init__(
        self,
        tree: Optional[XmlTree] = None,
        labeling: Optional[Labeling] = None,
        scheme: str = "ruid2",
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        delta_chain_limit: int = DELTA_CHAIN_LIMIT,
        wal=None,
        **scheme_options,
    ):
        if labeling is None:
            if tree is None:
                raise ValueError("need a tree or a prebuilt labeling")
            labeling = get_scheme(scheme, **scheme_options).build(tree)
        self.labeling = labeling
        self.tree = labeling.tree
        self.lock = ReadWriteLock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.stats = QueryStats()
        #: optional write-ahead log: every published generation appends
        #: a logical commit (group commit coalesces the syncs), outside
        #: the RW write lock so the durability wait never blocks readers
        self.wal = wal
        #: generation → built view; guarded by _views_lock
        self._views: Dict[int, AnyView] = {}
        #: generation → shared evaluator for that view; same guard
        self._evaluators: Dict[int, object] = {}
        self._views_lock = threading.Lock()
        self._reclaimer = EpochReclaimer(self._drop_view)
        self._delta_chain_limit = max(0, delta_chain_limit)
        self._snapshot_builds_full = 0
        self._snapshot_builds_delta = 0
        self._snapshot_compactions = 0
        self._delta_fallbacks = 0
        self._snapshots_reclaimed = 0
        self._parallel_chunks = 0
        self._build_full_ns = Histogram("concurrent.snapshot_build_full_ns")
        self._build_delta_ns = Histogram("concurrent.snapshot_build_delta_ns")
        # area-scoped writer admission (enable_area_locks)
        self._area_mgr: Optional[AreaLockManager] = None
        self._area_plan_rank: Optional[Dict[int, int]] = None
        self._area_plan_end: Optional[Dict[int, int]] = None
        self._area_generations: Dict[str, int] = {}
        self._compiled: "OrderedDict[str, object]" = OrderedDict()
        self._compile_lock = threading.Lock()
        self._plan_cache_size = max(1, plan_cache_size)
        self.metrics.register_source("concurrent", self.stats_snapshot)
        self.stats.bind(self.metrics, "concurrent.query")

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def pin(self) -> PinnedSnapshot:
        """Pin the current generation; evaluation happens lock-free
        against the returned snapshot."""
        self.lock.acquire_read()
        try:
            generation = self.labeling.generation
            view = self._view_for(generation)
            self._reclaimer.pin(generation)
        finally:
            self.lock.release_read()
        return PinnedSnapshot(self, view)

    def _view_for(self, generation: int) -> AnyView:
        with self._views_lock:
            view = self._views.get(generation)
            if view is not None:
                return view
        return self._build_full_view()

    def _build_full_view(self) -> StructuralView:
        """O(n) full snapshot of the current generation — the lazy
        first-pin build, the delta-capture fallback, and the chain
        compaction fold all land here."""
        with self.tracer.span(
            "concurrent.snapshot_build", generation=self.labeling.generation
        ):
            started = time.perf_counter_ns()
            built = StructuralView.from_labeling(self.labeling)
            elapsed = time.perf_counter_ns() - started
        with self._views_lock:
            # another reader may have built it while we did; keep one
            view = self._views.setdefault(built.generation, built)
            if view is built:
                self._snapshot_builds_full += 1
                self._build_full_ns.observe(elapsed)
            return view

    def evaluator_for(self, view: AnyView):
        """One shared evaluator per generation, dropped (with its
        candidate caches) when the generation is reclaimed."""
        generation = view.generation
        with self._views_lock:
            evaluator = self._evaluators.get(generation)
        if evaluator is not None:
            return evaluator
        built = StoreEvaluator(view, stats=self.stats)
        with self._views_lock:
            return self._evaluators.setdefault(generation, built)

    def _unpin(self, generation: int) -> None:
        self._reclaimer.unpin(generation)

    def select(self, xpath: str, context: Optional[XmlNode] = None) -> List[XmlNode]:
        """One-shot snapshot query (pin, evaluate, unpin)."""
        with self.pin() as snap:
            return snap.select(xpath, context)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        """Insert *node* and publish the new generation as a delta
        view (O(delta)) when a base view exists and the chain has
        room; otherwise fall back to the O(n) rebuild (compaction) or
        to lazy building (no readers)."""
        with self._area_scope_for(parent) as areas:
            with self.write_locked():
                base = self._current_view()
                report = self.labeling.insert(parent, position, node)
                generation = self.labeling.generation
                edit = None
                if self._delta_eligible(base):
                    try:
                        edit = capture_insert(base, node)
                    except DeltaCaptureError:
                        self._count_fallback()
                self._publish_after_write(base, edit, areas)
            self._log_commit(generation)
        return report

    def delete(self, node: XmlNode) -> RelabelReport:
        """Delete *node*'s subtree; same publish discipline as
        :meth:`insert`, with the interval captured before the splice
        and the parent's child list after it."""
        with self._area_scope_for(node) as areas:
            with self.write_locked():
                base = self._current_view()
                edit = None
                parent = node.parent
                if self._delta_eligible(base):
                    try:
                        edit = capture_delete(base, node)
                    except DeltaCaptureError:
                        self._count_fallback()
                report = self.labeling.delete(node)
                generation = self.labeling.generation
                if edit is not None:
                    finish_delete(edit, parent)
                self._publish_after_write(base, edit, areas)
            self._log_commit(generation)
        return report

    def reenumerate(self, keep_globals: bool = True) -> bool:
        """Force a fresh enumeration (2-level rUID only). Relabeling
        rewrites labels wholesale, so no delta is published — the next
        pin rebuilds in full."""
        core = getattr(self.labeling, "core", None)
        reenumerate = getattr(core, "reenumerate", None)
        if reenumerate is None:
            raise NumberingError(
                f"{self.labeling.scheme_name} does not support reenumeration"
            )
        with self.write_locked():
            return reenumerate(keep_globals=keep_globals)

    def write_locked(self):
        """Writer-side context: exclusive access, then retire the
        views the mutation superseded."""
        return _WriterContext(self)

    # -- delta publish --------------------------------------------------
    def _current_view(self) -> Optional[AnyView]:
        """The already-built view of the pre-mutation generation, or
        None when no reader ever materialised one (write-only
        workloads never pay for publishes)."""
        with self._views_lock:
            return self._views.get(self.labeling.generation)

    def _delta_eligible(self, base: Optional[AnyView]) -> bool:
        return (
            base is not None
            and getattr(base, "chain_depth", 0) < self._delta_chain_limit
        )

    def _count_fallback(self) -> None:
        with self._views_lock:
            self._delta_fallbacks += 1

    def _publish_after_write(
        self,
        base: Optional[AnyView],
        edit,
        areas: Sequence[str],
    ) -> None:
        """Make the post-mutation generation visible: a chained delta
        when one was captured, a full rebuild when the chain is due for
        compaction or the capture fell back, nothing when no reader
        has a view to chain from."""
        new_generation = self.labeling.generation
        if base is None or new_generation == base.generation:
            return
        if edit is not None:
            started = time.perf_counter_ns()
            built = DeltaView(base, new_generation, edit, areas=tuple(areas))
            elapsed = time.perf_counter_ns() - started
            with self._views_lock:
                view = self._views.setdefault(new_generation, built)
                if view is built:
                    self._snapshot_builds_delta += 1
                    self._build_delta_ns.observe(elapsed)
        else:
            if getattr(base, "chain_depth", 0) >= self._delta_chain_limit:
                with self._views_lock:
                    self._snapshot_compactions += 1
            self._build_full_view()
        if areas:
            with self._views_lock:
                for shard_id in areas:
                    self._area_generations[shard_id] = new_generation

    def _retire_stale(self) -> None:
        current = self.labeling.generation
        with self._views_lock:
            stale = [g for g in self._views if g != current]
        for generation in stale:
            self._reclaimer.retire(generation)

    def _drop_view(self, generation: int) -> None:
        with self._views_lock:
            view = self._views.pop(generation, None)
            if view is not None:
                self._snapshots_reclaimed += 1
            evaluator = self._evaluators.pop(generation, None)
        if evaluator is not None:
            evict = getattr(evaluator, "evict_generation", None)
            if evict is not None:
                evict(generation)
        if view is not None:
            release = getattr(view, "release_caches", None)
            if release is not None:
                release()

    # ------------------------------------------------------------------
    # Area-scoped writer admission
    # ------------------------------------------------------------------
    def enable_area_locks(
        self, shard_count: int = 8, planner: str = "auto"
    ) -> AreaLockManager:
        """Install subtree write locks over a shard plan of the current
        generation.

        ``planner='area'`` uses the paper's rUID areas
        (:func:`~repro.serving.shards.area_shards`); ``'blocks'`` uses
        contiguous rank blocks; ``'auto'`` prefers areas and falls back
        to blocks for schemes without a ``global_index``. The plan (and
        the node → interval map behind scope resolution) is frozen at
        the current generation; later edits resolve through their
        nearest planned ancestor, trading concurrency — never
        correctness — as the plan ages.
        """
        view = self._view_for(self.labeling.generation)
        size = view.size()
        shards = None
        if planner in ("auto", "area"):
            try:
                shards = area_shards("doc", self.labeling)
            except (AttributeError, StorageError):
                if planner == "area":
                    raise
        if shards is None:
            shards = rank_block_shards("doc", size, shard_count)
        manager = AreaLockManager(shards, size)
        if isinstance(view, StructuralView):
            plan_rank: Dict[int, int] = view.rank
            plan_end: Dict[int, int] = view.end
        else:
            plan_rank = {}
            plan_end = {}
            for label in view.structural_labels():
                plan_rank[label] = view.rank_of(label)
                plan_end[label] = view.end_of(label)
        self._area_plan_rank = plan_rank
        self._area_plan_end = plan_end
        self._area_mgr = manager
        return manager

    def _area_scope_for(self, node: Optional[XmlNode]):
        """Lock scope of an edit at *node*: the planned rank interval
        of its nearest plan-known ancestor. Without area locks this is
        a no-op scope."""
        manager = self._area_mgr
        if manager is None:
            return contextlib.nullcontext(())
        plan_rank = self._area_plan_rank
        probe = node
        while probe is not None and probe.node_id not in plan_rank:
            probe = probe.parent
        if probe is None:
            low, high = 0, manager.ownership.size - 1
        else:
            low = plan_rank[probe.node_id]
            high = self._area_plan_end[probe.node_id]
        return manager.scoped(low, high)

    def area_generations(self) -> Dict[str, int]:
        """shard_id → last generation whose edit touched that area."""
        with self._views_lock:
            return dict(self._area_generations)

    # ------------------------------------------------------------------
    # WAL group commit
    # ------------------------------------------------------------------
    def _log_commit(self, generation: int) -> None:
        """Append this write's logical commit — called outside the RW
        write lock (readers proceed) but inside the area scope, so the
        group-commit window coalesces syncs across concurrent
        disjoint-area writers. *generation* is the one this write
        published, read under the write lock: by now another writer
        may have advanced the labeling."""
        wal = self.wal
        if wal is None:
            return
        wal.append_commit(b"concurrent-generation:%d" % generation)

    # ------------------------------------------------------------------
    # Shared plan cache
    # ------------------------------------------------------------------
    def compile(self, expression: str):
        """Parse through a lock-guarded LRU shared by all readers."""
        cache = self._compiled
        with self._compile_lock:
            compiled = cache.get(expression)
            if compiled is not None:
                self.stats.count("plan_hits")
                cache.move_to_end(expression)
                return compiled
        self.stats.count("plan_misses")
        compiled = parse_xpath(expression)
        with self._compile_lock:
            existing = cache.get(expression)
            if existing is not None:
                return existing
            cache[expression] = compiled
            if len(cache) > self._plan_cache_size:
                cache.popitem(last=False)
                self.stats.count("plan_evictions")
        return compiled

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _note_chunks(self, count: int) -> None:
        with self._views_lock:
            self._parallel_chunks += count

    def stats_snapshot(self) -> Dict[str, float]:
        """The ``concurrent.*`` pull source."""
        with self._views_lock:
            live = len(self._views)
            builds_full = self._snapshot_builds_full
            builds_delta = self._snapshot_builds_delta
            compactions = self._snapshot_compactions
            fallbacks = self._delta_fallbacks
            reclaimed = self._snapshots_reclaimed
            chunks = self._parallel_chunks
            current = self._views.get(self.labeling.generation)
            chain_depth = getattr(current, "chain_depth", 0) if current else 0
            stamped_areas = len(self._area_generations)
        out: Dict[str, float] = {
            "snapshot_pins": self._reclaimer.total_pins,
            "snapshot_builds": builds_full + builds_delta,
            "snapshot_builds_full": builds_full,
            "snapshot_builds_delta": builds_delta,
            "snapshot_compactions": compactions,
            "delta_fallbacks": fallbacks,
            "delta_chain_depth": chain_depth,
            "snapshot_build_full_ns_mean": self._build_full_ns.mean,
            "snapshot_build_full_ns_p95": self._build_full_ns.percentile(0.95),
            "snapshot_build_delta_ns_mean": self._build_delta_ns.mean,
            "snapshot_build_delta_ns_p95": self._build_delta_ns.percentile(0.95),
            "snapshots_reclaimed": reclaimed,
            "parallel_chunks": chunks,
            "live_snapshots": live,
            "pinned_generations": len(self._reclaimer.pinned_generations()),
            "writer_wait_ns": self.lock.writer_wait_ns,
            "reader_wait_ns": self.lock.reader_wait_ns,
            "write_acquisitions": self.lock.write_acquisitions,
            "read_acquisitions": self.lock.read_acquisitions,
        }
        if self._area_mgr is not None:
            out.update(self._area_mgr.stats_snapshot())
            out["area_generations_stamped"] = stamped_areas
        wal_stats = getattr(self.wal, "wal_stats", None)
        if wal_stats is not None:
            out["wal_commits"] = wal_stats.logical_commits
            out["wal_syncs"] = wal_stats.syncs
            out["wal_batches"] = wal_stats.batch_records
        return out

    def build_histograms(self) -> Tuple[Histogram, Histogram]:
        """(full, delta) publish-cost histograms — the E21 bench's
        ground truth for the O(n) → O(delta) claim."""
        return self._build_full_ns, self._build_delta_ns

    @property
    def generation(self) -> int:
        return self.labeling.generation

    def __repr__(self) -> str:
        return (
            f"<ConcurrentDocument {self.labeling.scheme_name} "
            f"gen={self.labeling.generation} views={len(self._views)}>"
        )


class _WriterContext:
    """Write lock + span + post-mutation retirement."""

    def __init__(self, document: ConcurrentDocument):
        self.document = document
        self._span = None

    def __enter__(self) -> "_WriterContext":
        self.document.lock.acquire_write()
        self._span = self.document.tracer.span("concurrent.write")
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        document = self.document
        try:
            self._span.__exit__(exc_type, exc, tb)
            # Successful or not, the labeling's generation is the truth:
            # a failed mutation that bumped it still invalidates views.
            document._retire_stale()
        finally:
            document.lock.release_write()
        return False
