"""Tests for the flat-array columnar index and its store wiring."""

import pytest

import repro.store.evaluator as store_evaluator
from repro.baselines import get_scheme, scheme_names
from repro.concurrent import StructuralView
from repro.core.columnar import NO_RANK, ColumnarIndex
from repro.core.rankindex import RankIndex
from repro.errors import NumberingError
from repro.generator import random_document
from repro.query.engine import XPathEngine
from repro.query.parser import parse_xpath
from repro.store import MemoryNodeStore, StoreEvaluator
from repro.xmltree import element, parse
from repro.xmltree.node import NodeKind


@pytest.fixture
def labeling():
    tree = random_document(300, seed=23)
    return get_scheme("prepost").build(tree)


class TestBuild:
    def test_ranks_agree_with_rank_index(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        canonical = RankIndex.build(labeling, labeling.generation)
        assert columnar.rank_by_label == canonical.rank
        for label, rank in canonical.rank.items():
            assert columnar.end[rank] == canonical.end[label]
            assert columnar.labels_by_rank[rank] == label

    def test_parent_column(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        tree = labeling.tree
        for node in tree.preorder():
            rank = columnar.rank_by_label[labeling.label_of(node)]
            if node.parent is None:
                assert columnar.parent[rank] == NO_RANK
            else:
                parent_rank = columnar.rank_by_label[labeling.label_of(node.parent)]
                assert columnar.parent[rank] == parent_rank

    def test_children_via_sibling_chain(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        tree = labeling.tree
        for node in tree.preorder():
            rank = columnar.rank_by_label[labeling.label_of(node)]
            expected = [
                labeling.label_of(c)
                for c in node.children
                if c.kind is not NodeKind.ATTRIBUTE
            ]
            assert columnar.labels_for(columnar.children_ranks(rank)) == expected

    def test_structural_slice_is_subtree(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        tree = labeling.tree
        node = tree.root.children[0]
        rank = columnar.rank_by_label[labeling.label_of(node)]

        def structural(n):
            for child in n.children:
                if child.kind is not NodeKind.ATTRIBUTE:
                    yield child
                    yield from structural(child)

        expected = [labeling.label_of(d) for d in structural(node)]
        assert columnar.structural_slice(rank) == expected
        assert columnar.structural_slice(rank, or_self=True) == [
            labeling.label_of(node),
            *expected,
        ]

    def test_tag_buckets(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        tree = labeling.tree
        for tag, bucket in columnar.tag_ranks.items():
            expected = [
                labeling.label_of(n)
                for n in tree.preorder()
                if n.kind is NodeKind.ELEMENT and n.tag == tag
            ]
            assert columnar.labels_for(bucket) == expected
        assert len(columnar.tag_rank_array("no-such-tag")) == 0

    def test_covers(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        root_rank = columnar.rank_by_label[labeling.label_of(labeling.tree.root)]
        assert columnar.covers(root_rank, root_rank + 1)
        assert not columnar.covers(root_rank + 1, root_rank)
        assert columnar.covers(root_rank, root_rank, self_or=True)

    def test_as_rank_index_shares_ranks(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        index = columnar.as_rank_index()
        assert index is columnar.as_rank_index()  # cached
        assert index.rank is columnar.rank_by_label  # shared, not copied
        canonical = RankIndex.build(labeling, labeling.generation)
        assert index.end == canonical.end

    def test_from_rank_rows_equivalent(self, labeling):
        built = ColumnarIndex.build(labeling, labeling.generation)
        parent = built.parent
        rows = [
            (
                rank,
                label,
                built.end[rank],
                None if parent[rank] < 0 else built.labels_by_rank[parent[rank]],
                built.tag_at(rank) or "#other",
                NodeKind(
                    labeling.node_of(label).kind
                ).value,
            )
            for rank, label in enumerate(built.labels_by_rank)
        ]
        recovered = ColumnarIndex.from_rank_rows(rows, labeling.generation)
        assert recovered.rank_by_label == built.rank_by_label
        assert recovered.end == built.end
        assert recovered.parent == built.parent
        assert recovered.kind == built.kind
        assert recovered.structural == built.structural
        assert dict(recovered.tag_ranks) == dict(built.tag_ranks)

    def test_bytes_accounting(self, labeling):
        columnar = ColumnarIndex.build(labeling, labeling.generation)
        assert columnar.buffer_bytes() > 0
        assert columnar.bytes_per_node() == pytest.approx(
            columnar.buffer_bytes() / columnar.size
        )
        # ~21 bytes/node of fixed columns plus per-tag buckets
        assert columnar.bytes_per_node() < 64


class TestEveryScheme:
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_columnar_agrees_across_schemes(self, scheme_name, small_tree):
        labeling = get_scheme(scheme_name).build(small_tree)
        columnar = labeling.columnar_index()
        assert columnar is labeling.columnar_index()  # cached per generation
        canonical = RankIndex.build(labeling, labeling.generation)
        assert columnar.rank_by_label == canonical.rank
        try:
            labeling.insert(small_tree.root, 0, element("new"))
        except NumberingError:  # ruid-multi defines no updates
            return
        fresh = labeling.columnar_index()
        assert fresh.generation == labeling.generation
        assert fresh.size == small_tree.size()


class TestStoreWiring:
    def test_memory_store_counters(self):
        tree = parse("<a><b><c/><c/></b><d><c/></d></a>")
        store = MemoryNodeStore(get_scheme("region").build(tree))
        assert store.stats.columnar_builds == 1
        store.descendant_labels(store.root_label())
        assert store.stats.columnar_slices == 1
        store.tag_ranks("c")
        assert store.stats.columnar_tag_scans == 1

    def test_batched_matches_per_node(self):
        tree = random_document(400, seed=41)
        labeling = get_scheme("packed").build(tree)
        store = MemoryNodeStore(labeling)
        batched = StoreEvaluator(store)
        per_node = StoreEvaluator(store, batched=False)
        tags = sorted({n.tag for n in tree.preorder()})[:3]
        queries = ["//*", "/*", f"//{tags[0]}", f"/*/{tags[0]}", "//node()"]
        for query in queries:
            expr = parse_xpath(query)
            fast = [n.node_id for n in batched.select(expr)]
            slow = [n.node_id for n in per_node.select(expr)]
            assert fast == slow, query
        assert batched.stats.batched_steps > 0
        assert batched.stats.candidate_cache_hits > 0

    def test_batched_cache_invalidated_on_update(self):
        tree = parse("<a><b><c/></b></a>")
        labeling = get_scheme("packed").build(tree)
        store = MemoryNodeStore(labeling)
        evaluator = StoreEvaluator(store)
        expr = parse_xpath("//c")
        assert len(evaluator.select(expr)) == 1
        labeling.insert(tree.root.children[0], 0, element("c"))
        store.refresh()
        assert len(evaluator.select(expr)) == 2


ROUTE_DOC = """<site><people>
<person><name>Alice</name></person>
<person><name>Bob</name></person>
<person><name>Cara</name></person>
</people><regions><africa>
<item><name>Lamp</name></item><item><name>Desk</name></item>
</africa><asia><item><name>Vase</name></item></asia></regions></site>"""


class TestStepRoutes:
    """Every StoreEvaluator step is counted by the route it took."""

    def _view_evaluator(self):
        labeling = get_scheme("ruid2").build(parse(ROUTE_DOC))
        return StoreEvaluator(StructuralView.from_labeling(labeling))

    def test_positional_child_step_counts_a_fallback(self):
        evaluator = self._view_evaluator()
        result = evaluator.select(parse_xpath("//item[1]"))
        assert [n.tag for n in result] == ["item", "item"]
        assert evaluator.stats.fallback_steps >= 1

    def test_predicate_free_child_path_is_batched_only(self):
        evaluator = self._view_evaluator()
        result = evaluator.select(parse_xpath("/site/people/person"))
        assert len(result) == 3
        assert evaluator.stats.batched_steps == 3
        assert evaluator.stats.fallback_steps == 0

    def test_child_crossover_falls_back_with_the_same_answer(self, monkeypatch):
        evaluator = self._view_evaluator()
        expr = parse_xpath("/site/people/person/name")
        batched = [n.node_id for n in evaluator.select(expr)]
        monkeypatch.setattr(store_evaluator, "CHILD_SCAN_FACTOR", 0)
        before = evaluator.stats.fallback_steps
        crossed = [n.node_id for n in evaluator.select(expr)]
        assert crossed == batched
        assert evaluator.stats.fallback_steps > before


class TestDescendantFusion:
    """``//T[p]`` runs as ``descendant::T[p]`` only when no predicate
    depends on the candidate's position."""

    @pytest.mark.parametrize(
        "query",
        [
            "//name",
            ".//name",
            "//person[name]",
            "//item[name = 'Desk']",
            "//item[not(name = 'Desk') and name]",
            "//item[contains(name, 'a')]",
            "//item[name[1]]",
            "//item[count(name) > 0]",
        ],
    )
    def test_position_free_steps_fuse(self, query):
        path = parse_xpath(query)
        fused = store_evaluator.fuse_descendant_steps(path.steps)
        assert len(fused) == len(path.steps) - 1
        assert fused[-1].axis == "descendant"
        assert fused[-1].predicates == path.steps[-1].predicates

    @pytest.mark.parametrize(
        "query",
        [
            "//item[1]",
            "//item[last()]",
            "//item[position() = 2]",
            "//item[count(name)]",
            "//item['x']",
            "//item[not(position() = 1)]",
            "//@id",
            "/descendant-or-self::node()[name]/item",
        ],
    )
    def test_positional_or_other_steps_stay_literal(self, query):
        path = parse_xpath(query)
        assert store_evaluator.fuse_descendant_steps(path.steps) is path.steps

    def test_explain_rows_show_the_fused_steps(self):
        labeling = get_scheme("ruid2").build(parse(ROUTE_DOC))
        view = StructuralView.from_labeling(labeling)
        engine = XPathEngine(None, store=view)
        plan = engine.explain("//item[name]/name", strategy="store", analyze=True)
        steps = plan.paths[0].steps
        assert [step.axis for step in steps] == ["descendant", "child"]
        assert all(step.calls == 1 for step in steps)
        assert plan.result_count == 3
