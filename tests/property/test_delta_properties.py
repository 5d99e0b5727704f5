"""Property: a chained delta view is indistinguishable from a full
rebuild — node-for-node on every protocol primitive and rank column,
and axis-for-axis through the evaluator — before and after compaction.

Hypothesis drives random update plans (insert / delete at random
positions) against a :class:`ConcurrentDocument` with a deliberately
tiny ``delta_chain_limit``, so a single run exercises fresh deltas,
deep chains, the compaction fold, and post-compaction chains. After
every edit the current view (whatever its shape) is compared against
``StructuralView.from_labeling`` of the same generation.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.concurrent import ConcurrentDocument, StructuralView
from repro.generator import RandomTreeConfig, generate_tree
from repro.query.stats import QueryStats
from repro.store.evaluator import StoreEvaluator
from repro.xmltree.node import NodeKind, XmlNode

AXIS_QUERIES = (
    "//item",
    "//*",
    "/descendant-or-self::node()",
    "//item/ancestor-or-self::*",
    "//entry/following-sibling::*",
    "//group/child::node()",
    "//record/..",
)

#: every tag an edit plan below inserts; a tag whose last element was
#: deleted must read back empty from the delta view too
EDIT_TAGS = frozenset({"item", "entry", "fresh", "leaf"})

EDITS = st.lists(
    st.sampled_from(["insert", "insert", "delete"]),  # bias toward growth
    min_size=1,
    max_size=12,
)


def _ids(nodes, evaluator):
    doc_node = evaluator.document_node
    return [-1 if n is doc_node else n.node_id for n in nodes]


def _assert_view_equals_rebuild(doc):
    reference = StructuralView.from_labeling(doc.labeling)
    with doc.pin() as snap:
        view = snap.view
        assert view.generation == reference.generation
        size = reference.size()
        assert view.size() == size
        labels = [reference.label_at(rank) for rank in range(size)]
        assert [view.label_at(rank) for rank in range(size)] == labels
        for label in labels:
            assert view.rank_of(label) == reference.rank_of(label)
            assert view.end_of(label) == reference.end_of(label)
            assert view.parent_of(label) == reference.parent_of(label)
            assert view.children_of(label) == reference.children_of(label)
            record = view.record(label)
            ref_record = reference.record(label)
            assert record.kind == ref_record.kind
            assert record.tag == ref_record.tag
        # the rank columns the batched evaluator scans: spliced per
        # layer on a delta view, built from scratch on the reference
        assert list(view.parent_rank_array()) == list(reference.parent_rank_array())
        for tag in set(reference.tag_ids) | EDIT_TAGS:
            assert list(view.tag_ranks(tag)) == list(reference.tag_ranks(tag)), tag
            assert list(view.labels_with_tag(tag)) == list(
                reference.labels_with_tag(tag)
            ), tag
        ref_eval = StoreEvaluator(reference, stats=QueryStats())
        snap_eval = snap.evaluator()
        for query in AXIS_QUERIES:
            compiled = doc.compile(query)
            assert _ids(snap_eval.select(compiled), snap_eval) == _ids(
                ref_eval.select(compiled), ref_eval
            ), query


@settings(max_examples=25, deadline=None)
@given(edits=EDITS, choices=st.data(), chain_limit=st.integers(2, 4))
def test_delta_chain_equals_full_rebuild_every_axis(edits, choices, chain_limit):
    tree = generate_tree(RandomTreeConfig(node_count=70), seed=29)
    doc = ConcurrentDocument(tree, scheme="ruid2", delta_chain_limit=chain_limit)
    with doc.pin():
        pass  # materialise the base so writers publish eagerly
    for edit in edits:
        if edit == "insert":
            elements = [
                n for n in doc.tree.preorder() if n.kind == NodeKind.ELEMENT
            ]
            parent = elements[
                choices.draw(st.integers(0, len(elements) - 1), label="parent")
            ]
            position = choices.draw(
                st.integers(0, len(parent.children)), label="position"
            )
            tag = choices.draw(
                st.sampled_from(["item", "entry", "fresh"]), label="tag"
            )
            node = XmlNode(tag, NodeKind.ELEMENT)
            if choices.draw(st.booleans(), label="with_child"):
                node.children.append(XmlNode("leaf", NodeKind.ELEMENT))
                node.children[0].parent = node
                node.children.append(XmlNode("#text", NodeKind.TEXT, text="t"))
                node.children[1].parent = node
            doc.insert(parent, position, node)
        else:
            victims = [
                n
                for n in doc.tree.preorder()
                if n.parent is not None and n.kind == NodeKind.ELEMENT
            ]
            if not victims:
                continue
            victim = victims[
                choices.draw(st.integers(0, len(victims) - 1), label="victim")
            ]
            doc.delete(victim)
        _assert_view_equals_rebuild(doc)
    stats = doc.stats_snapshot()
    # the suite genuinely exercised the delta path (edits occurred and
    # at least the first one chained on the pinned base) — unless a
    # capture legitimately fell back to the full rebuild
    assert stats["snapshot_builds_delta"] >= 1 or stats["delta_fallbacks"] >= 1
    if len(edits) > chain_limit and stats["delta_fallbacks"] == 0:
        assert stats["snapshot_compactions"] >= 1


@settings(max_examples=10, deadline=None)
@given(extra_edits=st.integers(1, 4))
def test_compaction_fold_preserves_answers(extra_edits):
    """Fill the chain exactly to the limit, compare, fold it with the
    next edit, compare again, then keep chaining on the compacted
    base — the before/after-compaction requirement made explicit."""
    tree = generate_tree(RandomTreeConfig(node_count=60), seed=31)
    doc = ConcurrentDocument(tree, scheme="ruid2", delta_chain_limit=3)
    with doc.pin():
        pass
    parent = doc.tree.root.children[0]
    for _ in range(3):
        doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
    assert doc.stats_snapshot()["delta_chain_depth"] == 3
    _assert_view_equals_rebuild(doc)  # before compaction
    doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
    stats = doc.stats_snapshot()
    assert stats["snapshot_compactions"] == 1
    assert stats["delta_chain_depth"] == 0
    _assert_view_equals_rebuild(doc)  # after compaction
    for _ in range(extra_edits):
        doc.insert(parent, 0, XmlNode("entry", NodeKind.ELEMENT))
        _assert_view_equals_rebuild(doc)  # chains over the folded base
