"""Tests for the query fast path.

Covers the rank index (document-order ranks + interval ancestry), the
compiled-plan LRU cache and its counters, synopsis pruning, the fixed
``sort_nodes`` ranks for unindexed nodes, cardinality-based join
selection, and the rank-accelerated stack-tree join.
"""

import random

import pytest

from repro.baselines import get_scheme
from repro.generator import generate_xmark, random_document
from repro.query import (
    NavigationalEvaluator,
    XPathEngine,
    choose_join_algorithm,
    join_nodes,
    stack_tree_join,
)
from repro.query.joins import NESTED_LOOP_CUTOFF
from repro.store.evaluator import StoreEvaluator
from repro.store.memory import MemoryNodeStore
from repro.xmltree import element
from repro.xmltree.node import NodeKind, XmlNode


@pytest.fixture(scope="module")
def corpus():
    return random_document(180, seed=77, fanout_kind="uniform", low=1, high=4)


@pytest.fixture(scope="module")
def xmark():
    return generate_xmark(scale=0.05, seed=11)


class TestRankIndex:
    def test_ranks_match_document_order(self, corpus):
        labeling = get_scheme("ruid2", max_area_size=8).build(corpus)
        index = labeling.rank_index()
        order = corpus.document_order_index()
        for node in corpus.preorder():
            assert index.rank_of(labeling.label_of(node)) == order[node.node_id]

    def test_intervals_match_ancestry(self, corpus):
        labeling = get_scheme("ruid2", max_area_size=8).build(corpus)
        index = labeling.rank_index()
        nodes = corpus.nodes()
        sample = nodes[:: max(1, len(nodes) // 15)]
        for upper in sample:
            for lower in sample:
                u = labeling.label_of(upper)
                d = labeling.label_of(lower)
                assert index.covers(u, d) == upper.is_ancestor_of(lower)
                assert index.covers(u, d, self_or=True) == (
                    upper is lower or upper.is_ancestor_of(lower)
                )

    def test_every_scheme_agrees(self, corpus):
        order = corpus.document_order_index()
        for scheme_name in ("uid", "dewey", "prepost", "region", "ordpath"):
            labeling = get_scheme(scheme_name).build(corpus)
            index = labeling.rank_index()
            for node in corpus.preorder():
                assert index.rank_of(labeling.label_of(node)) == order[node.node_id]

    def test_try_ranks_rejects_unknown_labels(self, corpus):
        labeling = get_scheme("ruid2", max_area_size=8).build(corpus)
        index = labeling.rank_index()
        known = [labeling.label_of(n) for n in corpus.nodes()[:4]]
        assert index.try_ranks(known) is not None
        assert index.try_ranks([*known, object()]) is None

    def test_rebuilt_after_update(self, corpus):
        tree = random_document(60, seed=5, fanout_kind="uniform", low=1, high=3)
        labeling = get_scheme("ruid2", max_area_size=8).build(tree)
        before = labeling.rank_index()
        generation = labeling.generation
        assert labeling.rank_index() is before  # stable within a generation
        labeling.insert(tree.root, 0, element("fresh"))
        assert labeling.generation > generation
        after = labeling.rank_index()
        assert after is not before
        order = tree.document_order_index()
        for node in tree.preorder():
            assert after.rank_of(labeling.label_of(node)) == order[node.node_id]


class TestPlanCache:
    def test_identity_and_counters(self, xmark):
        engine = XPathEngine(xmark)
        first = engine.compile("//person/name")
        assert engine.compile("//person/name") is first
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1

    def test_lru_eviction(self, xmark):
        engine = XPathEngine(xmark, plan_cache_size=2)
        engine.compile("//a")
        engine.compile("//b")
        engine.compile("//a")  # refresh 'a'; 'b' is now least recent
        engine.compile("//c")  # evicts 'b'
        assert engine.stats.plan_evictions == 1
        hits = engine.stats.plan_hits
        engine.compile("//a")  # survived
        assert engine.stats.plan_hits == hits + 1
        misses = engine.stats.plan_misses
        engine.compile("//b")  # evicted — reparse
        assert engine.stats.plan_misses == misses + 1


class TestSynopsisPruning:
    def test_missing_tag_short_circuits(self, xmark):
        engine = XPathEngine(xmark)
        assert engine.select("//no_such_tag_anywhere", "ruid") == []
        assert engine.stats.synopsis_skips >= 1
        assert engine.select("//no_such_tag_anywhere", "navigational") == []

    def test_missing_attribute_short_circuits(self, xmark):
        engine = XPathEngine(xmark)
        skips = engine.stats.synopsis_skips
        ruid = engine.select("//person[@no_such_attribute]", "ruid")
        assert ruid == engine.select("//person[@no_such_attribute]", "navigational")
        assert engine.stats.synopsis_skips > skips

    def test_present_tags_unaffected(self, xmark):
        engine = XPathEngine(xmark)
        ruid = engine.select("//person/name", "ruid")
        nav = engine.select("//person/name", "navigational")
        assert [n.node_id for n in ruid] == [n.node_id for n in nav]
        assert ruid  # non-empty: nothing was wrongly pruned


class TestSortNodes:
    def test_explicit_ranks_for_unindexed_nodes(self, xmark):
        evaluator = NavigationalEvaluator(xmark)
        person = xmark.find_by_tag("person")[0]
        attributes = evaluator.axis_nodes(person, "attribute")
        assert attributes, "fixture person should carry attributes"
        mixed = [evaluator.document_node, xmark.root, person, *attributes]
        rng = random.Random(3)
        baseline = evaluator.sort_nodes(mixed)
        for _ in range(5):
            shuffled = list(mixed)
            rng.shuffle(shuffled)
            assert evaluator.sort_nodes(shuffled) == baseline
        # document node first, attributes directly after their element
        assert baseline[0] is evaluator.document_node
        assert baseline[1] is xmark.root
        position = baseline.index(person)
        assert set(baseline[position + 1 : position + 1 + len(attributes)]) == set(
            attributes
        )

    def test_detached_node_sorts_last(self, xmark):
        evaluator = NavigationalEvaluator(xmark)
        stray = XmlNode("stray", NodeKind.ELEMENT)
        ordered = evaluator.sort_nodes([stray, xmark.root])
        assert ordered == [xmark.root, stray]


class TestJoinSelection:
    def test_choice_by_cardinality(self):
        assert choose_join_algorithm(1, 1) == "nested"
        assert choose_join_algorithm(8, NESTED_LOOP_CUTOFF // 8) == "nested"
        assert choose_join_algorithm(NESTED_LOOP_CUTOFF, 2) == "stack"
        assert choose_join_algorithm(1000, 1000) == "stack"

    def test_auto_matches_stack(self, corpus):
        labeling = get_scheme("ruid2", max_area_size=8).build(corpus)
        nodes = corpus.nodes()
        for ancestors, descendants in (
            (nodes[:3], nodes[:5]),  # tiny — routed to nested loop
            (nodes[::3], nodes[::2]),  # large — routed to stack-tree
        ):
            auto = join_nodes(labeling, ancestors, descendants, algorithm="auto")
            stack = join_nodes(labeling, ancestors, descendants, algorithm="stack")
            assert [(id(a), id(d)) for a, d in auto] == [
                (id(a), id(d)) for a, d in stack
            ]


class TestRankedStackJoin:
    @pytest.mark.parametrize("scheme_name", ("uid", "ruid2", "dewey", "prepost", "region"))
    @pytest.mark.parametrize("self_or", (False, True))
    def test_matches_comparator_path(self, corpus, scheme_name, self_or):
        labeling = get_scheme(scheme_name).build(corpus)
        nodes = corpus.nodes()
        a_labels = [labeling.label_of(n) for n in nodes[::3]]
        d_labels = [labeling.label_of(n) for n in nodes[::2]]
        # duplicates and A∩D overlap exercise the tie-handling rules
        a_labels += a_labels[:5]
        d_labels += a_labels[:3]
        ranked = stack_tree_join(labeling, a_labels, d_labels, self_or=self_or)
        comparator = stack_tree_join(
            labeling, a_labels, d_labels, self_or=self_or, use_rank_index=False
        )
        assert ranked == comparator

    def test_unknown_labels_fall_back(self, corpus):
        labeling = get_scheme("region").build(corpus)
        nodes = corpus.nodes()
        a_labels = [labeling.label_of(n) for n in nodes[::4]]
        d_labels = [labeling.label_of(n) for n in nodes[::3]]
        # region labels are tuples; a synthetic one is outside the index
        synthetic = (10**9, 10**9 + 1, 0)
        assert labeling.rank_index().try_ranks([synthetic]) is None
        pairs = stack_tree_join(labeling, [*a_labels, synthetic], d_labels)
        expected = stack_tree_join(labeling, a_labels, d_labels)
        assert pairs == expected


class TestBatchedEvaluator:
    QUERIES = (
        "//person",
        "//person/name",
        "/site//item",
        "//bidder/ancestor::open_auction",
        "//name/..",
        "//text()",
        "//node()",
        "/site/*",
        "//person/address/city",
        "descendant::item/name",
    )

    def test_batched_equals_legacy_and_navigational(self, xmark):
        labeling = get_scheme("ruid2", max_area_size=24).build(xmark)
        engine = XPathEngine(xmark, labeling=labeling)
        # the literal-step, per-node reference
        legacy = StoreEvaluator(MemoryNodeStore(labeling), batched=False)
        for query in self.QUERIES:
            compiled = engine.compile(query)
            nav = [n.node_id for n in engine.select(query, "navigational")]
            fast = [n.node_id for n in engine.select(query, "ruid")]
            assert fast == nav, query
            assert [n.node_id for n in legacy.select(compiled)] == nav, query
        assert engine.stats.batched_steps > 0
