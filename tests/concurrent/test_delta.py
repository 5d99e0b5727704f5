"""The O(delta) write path: DeltaView capture, chaining, compaction,
area-scoped writer admission, per-area generation stamps, WAL commit
logging, and evaluator-cache eviction on reclaim.

The ground truth everywhere is a fresh full
:class:`~repro.concurrent.snapshot.StructuralView` of the same
generation: a delta chain must be node-for-node indistinguishable
from the O(n) rebuild it replaced.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.concurrent import (
    ConcurrentDocument,
    DeltaView,
    ParallelQueryExecutor,
    StructuralView,
)
from repro.generator import RandomTreeConfig, generate_tree
from repro.query.stats import QueryStats
from repro.storage.wal import Wal
from repro.store.evaluator import StoreEvaluator
from repro.store.memory import MemoryNodeStore
from repro.xmltree.node import NodeKind, XmlNode

AXIS_QUERIES = (
    "//item",
    "//*",
    "/descendant-or-self::node()",
    "//item/ancestor::*",
    "//entry/following-sibling::*",
    "//entry/preceding-sibling::*",
    "//group/child::*",
    "//record/..",
    "//group/descendant-or-self::*",
)


def _make_doc(**kwargs):
    tree = generate_tree(RandomTreeConfig(node_count=120), seed=7)
    return ConcurrentDocument(tree, scheme="ruid2", **kwargs)


def _full_fingerprint(view):
    return [view.label_at(rank) for rank in range(view.size())]


def _assert_matches_full_rebuild(doc):
    """Pin the current view (possibly a delta chain) and compare it
    node-for-node, and axis-for-axis, against a fresh full build."""
    reference = StructuralView.from_labeling(doc.labeling)
    with doc.pin() as snap:
        view = snap.view
        assert view.generation == reference.generation
        assert view.size() == reference.size()
        assert _full_fingerprint(view) == _full_fingerprint(reference)
        for label in _full_fingerprint(reference):
            assert view.rank_of(label) == reference.rank_of(label)
            assert view.end_of(label) == reference.end_of(label)
            assert view.parent_of(label) == reference.parent_of(label)
            assert view.children_of(label) == reference.children_of(label)
            assert view.string_value(label) == reference.string_value(label)
        ref_eval = StoreEvaluator(reference, stats=QueryStats())
        snap_eval = snap.evaluator()

        def ids(nodes, evaluator):
            # each evaluator synthesizes its own transient #document
            # node with a fresh node_id; normalise it for comparison
            doc_node = evaluator.document_node
            return [-1 if n is doc_node else n.node_id for n in nodes]

        for query in AXIS_QUERIES:
            compiled = doc.compile(query)
            got = ids(snap_eval.select(compiled), snap_eval)
            want = ids(ref_eval.select(compiled), ref_eval)
            assert got == want, query


class TestDeltaPublish:
    def test_insert_publishes_delta_not_full_rebuild(self):
        doc = _make_doc()
        with doc.pin():
            pass  # materialise the base view
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["snapshot_builds_full"] == 1
        assert stats["snapshot_builds_delta"] == 1
        with doc.pin() as snap:
            assert isinstance(snap.view, DeltaView)
        _assert_matches_full_rebuild(doc)

    def test_delete_publishes_delta(self):
        doc = _make_doc()
        with doc.pin():
            pass
        victim = doc.tree.root.children[0].children[0]
        doc.delete(victim)
        assert doc.stats_snapshot()["snapshot_builds_delta"] == 1
        _assert_matches_full_rebuild(doc)

    def test_write_only_workload_publishes_nothing(self):
        # no reader ever built a view: the writer must not pay for one
        doc = _make_doc()
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["snapshot_builds"] == 0
        assert stats["live_snapshots"] == 0

    def test_chain_grows_then_compacts_at_limit(self):
        doc = _make_doc(delta_chain_limit=3)
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        for index in range(3):
            doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
            assert doc.stats_snapshot()["delta_chain_depth"] == index + 1
        # 4th edit: chain is at the limit -> full rebuild (compaction)
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["snapshot_compactions"] == 1
        assert stats["delta_chain_depth"] == 0
        assert stats["snapshot_builds_full"] == 2
        assert stats["snapshot_builds_delta"] == 3
        _assert_matches_full_rebuild(doc)

    def test_build_cost_histograms_populated(self):
        doc = _make_doc()
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        full_hist, delta_hist = doc.build_histograms()
        assert full_hist.count == 1
        assert delta_hist.count == 1
        stats = doc.stats_snapshot()
        assert stats["snapshot_build_full_ns_mean"] > 0
        assert stats["snapshot_build_delta_ns_mean"] > 0

    def test_mixed_inserts_and_deletes_chain_correctly(self):
        doc = _make_doc(delta_chain_limit=16)
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        doc.insert(parent, 2, XmlNode("entry", NodeKind.ELEMENT))
        victim = doc.tree.root.children[0].children[0]
        doc.delete(victim)
        sibling = doc.tree.root.children[-1]
        doc.insert(sibling, len(sibling.children), XmlNode("item", NodeKind.ELEMENT))
        _assert_matches_full_rebuild(doc)


class TestScanAndParallelOverDelta:
    def test_scan_tag_over_delta_view(self):
        doc = _make_doc()
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        added = XmlNode("item", NodeKind.ELEMENT)
        doc.insert(parent, 0, added)
        executor = ParallelQueryExecutor(doc, threads=3)
        with doc.pin() as snap:
            assert isinstance(snap.view, DeltaView)
            scanned = [n.node_id for n in executor.scan_tag("item", snapshot=snap)]
            assert scanned == snap.select_ids("//item")
            assert added.node_id in scanned

    def test_select_batch_over_delta_view(self):
        doc = _make_doc()
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("entry", NodeKind.ELEMENT))
        executor = ParallelQueryExecutor(doc, threads=4)
        parallel = executor.select_batch(AXIS_QUERIES)
        sequential = executor.select_batch(AXIS_QUERIES, threads=1)
        for query, par, seq in zip(AXIS_QUERIES, parallel, sequential):
            assert [n.node_id for n in par] == [n.node_id for n in seq], query


class TestAreaLocks:
    def test_disjoint_writers_stamp_their_areas(self):
        doc = _make_doc()
        manager = doc.enable_area_locks(shard_count=4)
        with doc.pin():
            pass
        first_top = doc.tree.root.children[0]
        last_top = doc.tree.root.children[-1]
        doc.insert(first_top, 0, XmlNode("item", NodeKind.ELEMENT))
        doc.insert(last_top, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["area_scoped_writes"] == 2
        assert stats["area_lock_acquisitions"] >= 2
        assert stats["area_lock_units"] == len(manager.shards)
        stamped = doc.area_generations()
        assert stamped  # every write stamped the areas it touched
        assert max(stamped.values()) == doc.generation
        _assert_matches_full_rebuild(doc)

    def test_scope_resolution_covers_new_nodes_via_ancestor(self):
        doc = _make_doc()
        doc.enable_area_locks(shard_count=4)
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        fresh = XmlNode("item", NodeKind.ELEMENT)
        doc.insert(parent, 0, fresh)
        # the fresh node is not in the frozen plan: its edit resolves
        # through the planned ancestor and still succeeds
        doc.insert(fresh, 0, XmlNode("entry", NodeKind.ELEMENT))
        assert doc.stats_snapshot()["area_scoped_writes"] == 2
        _assert_matches_full_rebuild(doc)

    def test_area_planner_blocks_fallback(self):
        doc = _make_doc()
        manager = doc.enable_area_locks(shard_count=3, planner="blocks")
        assert len(manager.shards) == 3


class TestWalIntegration:
    def test_every_publish_logs_a_commit(self):
        wal = Wal()
        doc = _make_doc(wal=wal)
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["wal_commits"] == 2
        assert stats["wal_syncs"] == 2
        result = wal.replay()
        assert result.metadata == b"concurrent-generation:%d" % doc.generation

    def test_group_commit_coalesces_writer_syncs(self):
        wal = Wal(group_commit_size=4)
        doc = _make_doc(wal=wal)
        parent = doc.tree.root.children[0]
        for _ in range(8):
            doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        stats = doc.stats_snapshot()
        assert stats["wal_commits"] == 8
        assert stats["wal_syncs"] == 2
        assert stats["wal_syncs"] < stats["wal_commits"]
        assert stats["wal_batches"] == 2


    def test_concurrent_writers_log_the_generation_they_published(self):
        """Each commit record names the generation its own write
        published, even when another writer gets in between the write
        lock's release and the log append."""
        wal = Wal()
        doc = _make_doc(wal=wal)
        writes_per_thread = 25
        logged, published = [], []

        append_commit = wal.append_commit

        def spying_append_commit(metadata=b""):
            logged.append(int(metadata.rsplit(b":", 1)[1]))
            return append_commit(metadata)

        labeling_insert = doc.labeling.insert

        def recording_insert(*args):
            report = labeling_insert(*args)
            published.append(doc.labeling.generation)  # under the write lock
            return report

        release_write = doc.lock.release_write

        def release_then_yield():
            release_write()
            if threading.current_thread() is threads[0]:
                time.sleep(0.001)  # let the other writer in before the log append

        wal.append_commit = spying_append_commit
        doc.labeling.insert = recording_insert
        doc.lock.release_write = release_then_yield

        def writer(parent):
            for _ in range(writes_per_thread):
                doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))

        threads = [
            threading.Thread(target=writer, args=(parent,))
            for parent in doc.tree.root.children[:2]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(published) == 2 * writes_per_thread
        assert len(set(logged)) == len(logged)
        assert set(logged) == set(published)


class TestCacheEviction:
    def test_two_level_cache_evicts_per_generation(self):
        tree = generate_tree(RandomTreeConfig(node_count=40), seed=11)
        doc = ConcurrentDocument(tree, scheme="ruid2")
        base = StructuralView.from_labeling(doc.labeling)
        evaluator = StoreEvaluator(base, stats=QueryStats())
        evaluator.select(doc.compile("//item"))
        assert len(evaluator._candidate_cache) == 1
        evicted = evaluator.evict_generation(base.generation)
        assert evicted == 1
        assert evaluator._candidate_cache == {}
        assert evaluator.stats.candidate_cache_evictions == 1
        # evicting an absent generation is a no-op
        assert evaluator.evict_generation(999) == 0

    def test_relabel_in_place_drops_stale_bucket(self):
        tree = generate_tree(RandomTreeConfig(node_count=40), seed=11)
        from repro.baselines.registry import get_scheme
        from repro.query.parser import parse_xpath

        store = MemoryNodeStore(get_scheme("ruid2").build(tree))
        evaluator = StoreEvaluator(store)
        evaluator.select(parse_xpath("//item"))
        assert len(evaluator._candidate_cache) == 1
        old_key = next(iter(evaluator._candidate_cache))
        node = tree.root.children[0]
        store.labeling.insert(node, 0, XmlNode("item", NodeKind.ELEMENT))
        assert store.generation != old_key[1]  # relabel bumped it
        evaluator.select(parse_xpath("//item"))
        assert len(evaluator._candidate_cache) == 1
        assert next(iter(evaluator._candidate_cache)) != old_key

    def test_reclaim_evicts_generation_caches(self):
        doc = _make_doc()
        snap = doc.pin()
        # query through the shared evaluator to populate its cache
        snap.select("//item")
        evaluator = snap.evaluator()
        generation = snap.generation
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        snap.release()  # last pin drops -> reclaim fires
        assert doc.stats_snapshot()["snapshots_reclaimed"] == 1
        if isinstance(evaluator, StoreEvaluator):
            assert all(
                key[1] != generation for key in evaluator._candidate_cache
            )


class TestDeltaViewUnit:
    def test_shares_untouched_tag_lists_with_base(self):
        doc = _make_doc()
        with doc.pin() as snap:
            base = snap.view
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        with doc.pin() as snap:
            view = snap.view
            assert isinstance(view, DeltaView)
            # a tag the edit never touched answers from the base's own
            # list object — the copy-on-write guarantee made literal
            tags = {n.tag for n in doc.tree.preorder() if n.kind == NodeKind.ELEMENT}
            untouched = sorted(tags - {"item"})
            assert untouched, "need at least one untouched tag"
            tag = untouched[0]
            assert view.labels_with_tag(tag) is base.labels_with_tag(tag)
            assert view.labels_with_tag("item") is not base.labels_with_tag("item")

    def test_release_caches_resets_memos(self):
        doc = _make_doc()
        with doc.pin():
            pass
        parent = doc.tree.root.children[0]
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
        with doc.pin() as snap:
            view = snap.view
            view.string_value(view.root_label())
            view.release_caches()
            # still answers correctly after the reset
            reference = StructuralView.from_labeling(doc.labeling)
            assert view.string_value(view.root_label()) == reference.string_value(
                reference.root_label()
            )


@pytest.mark.parametrize("scheme", ["ruid2", "dewey", "ordpath", "prepost"])
def test_delta_path_is_scheme_agnostic(scheme):
    tree = generate_tree(RandomTreeConfig(node_count=80), seed=19)
    doc = ConcurrentDocument(tree, scheme=scheme)
    with doc.pin():
        pass
    parent = doc.tree.root.children[0]
    doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
    assert doc.stats_snapshot()["snapshot_builds_delta"] == 1
    reference = StructuralView.from_labeling(doc.labeling)
    with doc.pin() as snap:
        assert _full_fingerprint(snap.view) == _full_fingerprint(reference)
