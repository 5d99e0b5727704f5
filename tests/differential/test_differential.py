"""Cross-scheme differential harness.

Every (corpus, query) pair runs through *all* numbering schemes (via
structural snapshots built from each scheme's own rank index and
parent arithmetic) plus the labeled fast path, and must return a
node-for-node identical result to the navigational baseline. This
replaces the ad-hoc per-scheme agreement assertions that used to live
in ``tests/query/test_evaluator.py``.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import UPDATABLE, get_scheme, scheme_names
from repro.concurrent import StructuralView
from repro.generator import UpdateWorkloadConfig, apply_workload, generate_update_workload
from repro.query.engine import XPathEngine
from repro.query.parser import parse_xpath
from repro.store import MemoryNodeStore, StoreEvaluator

from .conftest import (
    CORPORA,
    baseline_keys,
    build_paged,
    build_sqlite,
    corpus_engine,
    corpus_tree,
    paged_result_keys,
    paged_select_keys,
    result_keys,
    snapshot_select,
    sqlite_select_keys,
)

#: ``//`` queries whose answers the store evaluator's descendant fusion
#: must leave unchanged: positional predicates keep the literal
#: ``descendant-or-self::node()/child::T`` steps, position-free ones run
#: as one ``descendant::T`` step. Kept out of XMARK_QUERIES, which
#: perfbench deals its query streams from.
FUSION_QUERIES = (
    "//item[1]/name",
    "//bidder[last()]",
    "//person[position() = 2]",
    "//*[2]",
    "//item[count(mailbox)]",
    "//open_auction[bidder[1]/increase > 10]",
    ".//name",
)

_memory_evaluators = {}


def _memory_select_keys(corpus, query):
    evaluator = _memory_evaluators.get(corpus)
    if evaluator is None:
        labeling = get_scheme("ruid2").build(corpus_tree(corpus))
        evaluator = StoreEvaluator(MemoryNodeStore(labeling))
        _memory_evaluators[corpus] = evaluator
    return result_keys(evaluator.select(parse_xpath(query)), corpus_tree(corpus))


_FUSION_BACKINGS = {
    "memory": _memory_select_keys,
    "paged": paged_select_keys,
    "sqlite": sqlite_select_keys,
    "full-view": lambda corpus, query: result_keys(
        snapshot_select(corpus, "ruid2", query), corpus_tree(corpus)
    ),
}


@pytest.mark.parametrize("backing", list(_FUSION_BACKINGS))
@pytest.mark.parametrize("query", FUSION_QUERIES)
def test_descendant_fusion_keeps_answers(query, backing):
    got = _FUSION_BACKINGS[backing]("xmark", query)
    assert got == baseline_keys("xmark", query), (
        f"{backing} diverged from navigation on xmark:{query}"
    )


def test_descendant_fusion_keeps_answers_on_a_delta_chain():
    """The same queries on a pinned delta chain, against navigation
    over the mutated tree."""
    from repro.concurrent import ConcurrentDocument, DeltaView

    tree = CORPORA["xmark"][0]()
    doc = ConcurrentDocument(tree, scheme="ruid2")
    with doc.pin():
        pass  # materialise the base so every edit publishes a delta
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=6, insert_fraction=0.7), seed=41
    )
    for _report in apply_workload(tree, ops, doc.insert, doc.delete):
        pass
    engine = XPathEngine(tree)
    with doc.pin() as snap:
        assert isinstance(snap.view, DeltaView)
        for query in FUSION_QUERIES:
            want = result_keys(engine.select(query, strategy="navigational"), tree)
            got = result_keys(snap.select(query), tree)
            assert got == want, f"delta chain diverged from navigation on {query}"

#: upward-axis queries (parent / ancestor / ancestor-or-self), which
#: the store evaluator answers set-at-a-time from the parent-rank
#: column; the attribute contexts are transient nodes and must take
#: the per-node path. Kept out of the corpus query sets, which
#: perfbench deals its query streams from.
UPWARD_QUERIES = (
    ("treebank", "//NN/ancestor::NP"),
    ("xmark", "//interest/.."),
    ("xmark", "//name/ancestor-or-self::*"),
    ("xmark", "//text()/.."),
    ("xmark", "//person/@id/.."),
    ("xmark", "//person/@id/ancestor::*"),
)

_UPWARD_BACKINGS = {
    **_FUSION_BACKINGS,
    "default-strategy": lambda corpus, query: result_keys(
        corpus_engine(corpus).select(query), corpus_tree(corpus)
    ),
}


@pytest.mark.parametrize("backing", list(_UPWARD_BACKINGS))
@pytest.mark.parametrize(("corpus", "query"), UPWARD_QUERIES)
def test_upward_axes_match_navigational(corpus, query, backing):
    got = _UPWARD_BACKINGS[backing](corpus, query)
    want = baseline_keys(corpus, query)
    assert want, f"{corpus}:{query} selects nothing; the case proves nothing"
    assert got == want, f"{backing} diverged from navigation on {corpus}:{query}"


@pytest.mark.parametrize("corpus", sorted({corpus for corpus, _ in UPWARD_QUERIES}))
def test_upward_axes_match_navigational_on_a_delta_chain(corpus):
    """The upward queries on a pinned delta chain, whose parent column
    is spliced from the base's, against navigation over the mutated
    tree."""
    from repro.concurrent import ConcurrentDocument, DeltaView

    tree = CORPORA[corpus][0]()
    doc = ConcurrentDocument(tree, scheme="ruid2")
    with doc.pin():
        pass  # materialise the base so every edit publishes a delta
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=6, insert_fraction=0.7), seed=43
    )
    for _report in apply_workload(tree, ops, doc.insert, doc.delete):
        pass
    engine = XPathEngine(tree)
    with doc.pin() as snap:
        assert isinstance(snap.view, DeltaView)
        for query_corpus, query in UPWARD_QUERIES:
            if query_corpus != corpus:
                continue
            want = result_keys(engine.select(query, strategy="navigational"), tree)
            got = result_keys(snap.select(query), tree)
            assert got == want, f"delta chain diverged from navigation on {query}"


CASES = [
    pytest.param(corpus, query, id=f"{corpus}-{query}")
    for corpus, (_, queries) in CORPORA.items()
    for query in queries
]

SCHEMES = scheme_names()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(("corpus", "query"), CASES)
class TestSchemeAgreement:
    """All schemes answer every corpus query exactly like navigation."""

    def test_snapshot_matches_navigational(self, corpus, query, scheme):
        got = result_keys(snapshot_select(corpus, scheme, query), corpus_tree(corpus))
        assert got == baseline_keys(corpus, query), (
            f"scheme {scheme!r} diverged from navigational baseline "
            f"on {corpus}:{query}"
        )

    def test_sqlite_store_matches_navigational(self, corpus, query, scheme):
        """The fourth backend: the same (corpus, query, scheme) triple
        shredded into a sqlite accel table — off *this scheme's* rank
        index and parent arithmetic — and answered through SQL axis
        pushdown, node-for-node against navigation."""
        got = sqlite_select_keys(corpus, query, scheme)
        assert got == baseline_keys(corpus, query), (
            f"sqlite store over scheme {scheme!r} diverged from "
            f"navigational baseline on {corpus}:{query}"
        )


@pytest.mark.parametrize(("corpus", "query"), CASES)
def test_fast_path_matches_navigational(corpus, query):
    """The engine's labeled (rank-index) route agrees with navigation."""
    engine = corpus_engine(corpus)
    got = result_keys(engine.select(query, strategy="ruid"), corpus_tree(corpus))
    assert got == baseline_keys(corpus, query)


@pytest.mark.parametrize(("corpus", "query"), CASES)
def test_paged_store_matches_navigational(corpus, query):
    """Every corpus query, shredded into the paged store and answered
    through the buffer pool with no live DOM, returns a node-for-node
    identical result to navigation."""
    assert paged_select_keys(corpus, query) == baseline_keys(corpus, query)


def test_paged_store_post_update_and_restore():
    """After an insert/delete workload the relabeled tree re-shreds
    into a fresh paged store that still agrees with navigation on the
    updated document — the re-store path a frozen-generation store
    requires after writes."""
    from repro.query.parser import parse_xpath as compile_query

    tree = CORPORA["xmark"][0]()  # fresh copy; factories are deterministic
    labeling = get_scheme("ruid2").build(tree)
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=30, insert_fraction=0.7), seed=29
    )
    for _report in apply_workload(tree, ops, labeling.insert, labeling.delete):
        pass

    store, evaluator, key_map = build_paged(tree, labeling, "updated")
    engine = XPathEngine(tree)
    for query in CORPORA["xmark"][1]:
        want = result_keys(engine.select(query, strategy="navigational"), tree)
        got = paged_result_keys(
            store, key_map, evaluator.select(compile_query(query))
        )
        assert got == want, f"paged store diverged post-update on {query}"


def test_sqlite_store_post_update_and_reshred():
    """After an insert/delete workload the relabeled tree re-shreds
    into a fresh accel table (new generation stamped in the meta row)
    that still agrees with navigation on the updated document."""
    from .conftest import sqlite_result_keys

    tree = CORPORA["xmark"][0]()  # fresh copy; factories are deterministic
    labeling = get_scheme("ruid2").build(tree)
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=30, insert_fraction=0.7), seed=29
    )
    for _report in apply_workload(tree, ops, labeling.insert, labeling.delete):
        pass

    store, evaluator, key_map = build_sqlite(tree, labeling, "updated")
    assert store.generation == labeling.generation  # meta row re-stamped
    engine = XPathEngine(tree)
    for query in CORPORA["xmark"][1]:
        want = result_keys(engine.select(query, strategy="navigational"), tree)
        got = sqlite_result_keys(
            store, key_map, evaluator.select(parse_xpath(query))
        )
        assert got == want, f"sqlite store diverged post-update on {query}"


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_result_sets_preserve_document_order(corpus):
    """Snapshot results come back in document order for every scheme."""
    tree = corpus_tree(corpus)
    order = tree.document_order_index()
    for scheme in SCHEMES:
        result = snapshot_select(corpus, scheme, "//*")
        ranks = [order[node.node_id] for node in result]
        assert ranks == sorted(ranks), f"{scheme} broke document order on {corpus}"


@pytest.mark.parametrize("scheme", sorted(UPDATABLE))
def test_post_update_agreement(scheme):
    """After a recorded insert/delete workload, a fresh snapshot built
    from the relabeled tree still agrees with navigation on that tree.

    Each scheme replays the same ordinal-path workload against its own
    copy of the corpus, so a relabeling bug shows up as divergence here
    rather than in the static tests above.
    """
    tree = CORPORA["xmark"][0]()  # fresh copy; factories are deterministic
    labeling = get_scheme(scheme).build(tree)
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=40, insert_fraction=0.7), seed=19
    )
    for _report in apply_workload(tree, ops, labeling.insert, labeling.delete):
        pass

    view = StructuralView.from_labeling(labeling)
    snapshot = StoreEvaluator(view)
    engine = XPathEngine(tree)
    for query in CORPORA["xmark"][1]:
        want = result_keys(engine.select(query, strategy="navigational"), tree)
        got = result_keys(snapshot.select(parse_xpath(query)), tree)
        assert got == want, f"{scheme} diverged post-update on {query}"


@pytest.mark.parametrize("chain_limit", [2, 8])
def test_delta_chain_view_matches_navigational(chain_limit):
    """The concurrent write path's chained delta views answer every
    corpus query node-for-node like navigation on the mutated tree.

    A small ``chain_limit`` forces compaction folds mid-workload, so
    both chained-delta and freshly-folded views are exercised; the
    large limit keeps one deep chain alive to the end.
    """
    from repro.concurrent import ConcurrentDocument, DeltaView

    tree = CORPORA["xmark"][0]()
    doc = ConcurrentDocument(tree, scheme="ruid2", delta_chain_limit=chain_limit)
    with doc.pin():
        pass  # materialise the base so every edit publishes eagerly
    ops = generate_update_workload(
        tree, UpdateWorkloadConfig(operations=30, insert_fraction=0.7), seed=37
    )
    for _report in apply_workload(tree, ops, doc.insert, doc.delete):
        pass
    stats = doc.stats_snapshot()
    assert stats["snapshot_builds_delta"] > 0, "workload never exercised deltas"
    engine = XPathEngine(tree)
    with doc.pin() as snap:
        if chain_limit > 2 and stats["delta_fallbacks"] == 0:
            assert isinstance(snap.view, DeltaView)
        for query in CORPORA["xmark"][1]:
            want = result_keys(engine.select(query, strategy="navigational"), tree)
            got = result_keys(snap.select(query), tree)
            assert got == want, (
                f"delta chain (limit={chain_limit}) diverged from "
                f"navigation on {query}"
            )


def test_post_update_cardinalities_agree_across_schemes():
    """All updatable schemes, replaying the same workload on identical
    tree copies, report identical result sizes for every query."""
    counts = {}
    for scheme in sorted(UPDATABLE):
        tree = CORPORA["xmark"][0]()
        labeling = get_scheme(scheme).build(tree)
        ops = generate_update_workload(
            tree, UpdateWorkloadConfig(operations=25), seed=23
        )
        for _report in apply_workload(tree, ops, labeling.insert, labeling.delete):
            pass
        snapshot = StoreEvaluator(StructuralView.from_labeling(labeling))
        counts[scheme] = [
            len(snapshot.select(parse_xpath(q))) for q in CORPORA["xmark"][1]
        ]
    baseline = counts.pop(sorted(UPDATABLE)[0])
    for scheme, sizes in counts.items():
        assert sizes == baseline, f"{scheme} cardinalities diverged: {sizes}"
