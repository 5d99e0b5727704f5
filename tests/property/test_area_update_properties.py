"""Property test: the area-local rUID update equals a full re-enumeration.

Two structurally identical random trees take the same edits. One is
driven through :class:`Ruid2Updater`, which re-enumerates only the
UID-local area an edit touches (§3.2). The twin replays the reference
semantics: the tree edit, the same split decision, then
:meth:`Ruid2Labeling.reenumerate` over the whole document and
:func:`diff_snapshots`. After every edit both sides must agree on the
labels in preorder, κ, the rows of K and every :class:`RelabelReport`
field; the maintained frame must equal a fresh ``Frame`` over the same
area roots; and the area-local side may run ``enumerate_ruid2`` only
when it reports a frame renumbering.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.core.ruid as ruid_module
from repro.core import (
    ExplicitPartitioner,
    Frame,
    RelabelReport,
    Ruid2Labeling,
    Ruid2Updater,
    SizeCapPartitioner,
    diff_snapshots,
)
from repro.generator import random_document
from repro.xmltree import build, build_node, element

EDIT_KINDS = [
    "insert",
    "insert_under_area_root",
    "insert_overflow",
    "insert_kappa_split",
    "delete",
    "delete_area_bearing",
]

subtree_specs = st.recursive(
    st.just("leaf"),
    lambda inner: st.tuples(st.just("sub"), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6,
)


# -- the reference: today's semantics, spelled out over the full path ------
def reference_insert(labeling, splitter, parent, position, node) -> RelabelReport:
    before = labeling.snapshot()
    committed = {rid: labeling.local_fan_out_of(rid) for rid in labeling.area_root_ids}
    kappa_before = labeling.kappa
    labeling.tree.insert_node(parent, position, node)
    splitter.maybe_split_area(parent)
    frame_renumbered = labeling.reenumerate()
    changed = diff_snapshots(before, labeling.snapshot())
    return RelabelReport(
        scheme=labeling.scheme_name,
        operation="insert",
        changed=changed,
        inserted_count=node.subtree_size(),
        overflow=any(labeling.local_fan_out_of(rid) > k for rid, k in committed.items()),
        surviving_nodes=len(before),
        areas_touched=len({c.new_label.global_index for c in changed}),
        kappa_changed=labeling.kappa != kappa_before,
        frame_renumbered=frame_renumbered,
    )


def reference_delete(labeling, node) -> RelabelReport:
    before = labeling.snapshot()
    kappa_before = labeling.kappa
    removed = labeling.tree.delete_subtree(node)
    labeling.area_root_ids -= {n.node_id for n in removed}
    frame_renumbered = labeling.reenumerate()
    changed = diff_snapshots(before, labeling.snapshot())
    return RelabelReport(
        scheme=labeling.scheme_name,
        operation="delete",
        changed=changed,
        deleted_count=len(removed),
        surviving_nodes=len(before) - len(removed),
        areas_touched=len({c.new_label.global_index for c in changed}),
        kappa_changed=labeling.kappa != kappa_before,
        frame_renumbered=frame_renumbered,
    )


# -- comparison helpers -----------------------------------------------------
def positions(tree):
    return {node.node_id: index for index, node in enumerate(tree.preorder())}


def report_fields(report, position_of):
    return (
        report.operation,
        [(position_of[c.node_id], c.old_label, c.new_label) for c in report.changed],
        report.inserted_count,
        report.deleted_count,
        report.overflow,
        report.surviving_nodes,
        report.areas_touched,
        report.kappa_changed,
        report.frame_renumbered,
    )


def ids(nodes):
    return [n.node_id for n in nodes]


def frame_signature(frame):
    return (
        sorted(frame.area_root_ids),
        {
            rid: (area.root.node_id, ids(area.nodes), ids(area.child_area_roots))
            for rid, area in frame.areas.items()
        },
        dict(frame.frame_parent),
        {rid: ids(children) for rid, children in frame.frame_children.items()},
        dict(frame.containing_area),
        sorted(frame._node_by_id),
    )


def assert_same_state(local, twin):
    local_nodes = list(local.tree.preorder())
    twin_nodes = list(twin.tree.preorder())
    assert [local.label_of(n) for n in local_nodes] == [twin.label_of(n) for n in twin_nodes]
    assert local.kappa == twin.kappa
    assert [r.as_tuple() for r in local.ktable] == [r.as_tuple() for r in twin.ktable]
    local_pos, twin_pos = positions(local.tree), positions(twin.tree)
    assert sorted(local_pos[r] for r in local.area_root_ids) == sorted(
        twin_pos[r] for r in twin.area_root_ids
    )
    assert frame_signature(local.frame) == frame_signature(
        Frame(local.tree, local.area_root_ids)
    )
    # label maps stay bijective; globals name their area roots
    assert len(local) == len(local_nodes) == sum(1 for _ in local.labels())
    for node in local_nodes:
        assert local.node_of(local.label_of(node)) is node
    for row in local.ktable:
        root = local.area_root_node(row.global_index)
        assert local.global_of_area_root(root) == row.global_index


# -- edit selection ----------------------------------------------------------
def k_for_children(labeling, node):
    """Committed fan-out of the area that holds *node*'s children."""
    frame = labeling.frame
    root = node if frame.is_area_root(node) else frame.area_containing(node).root
    return labeling.local_fan_out_of(root.node_id)


def splits_at_full_frame_node(labeling, threshold, node):
    """Whether inserting under *node* splits it off into a new area
    whose upper area already has κ frame children (so κ must grow)."""
    frame = labeling.frame
    if threshold is None or node.parent is None or frame.is_area_root(node):
        return False
    area = frame.area_containing(node)
    return (
        area.size >= threshold
        and len(area.child_area_roots) == labeling.kappa
        and not any(frame.is_area_root(d) for d in node.descendants())
    )


def pick_edit(data, labeling, split_threshold):
    """(kind, preorder index of the target, position) for the next edit."""
    tree = labeling.tree
    nodes = list(tree.preorder())
    kind = data.draw(st.sampled_from(EDIT_KINDS), label="kind")
    candidates = []
    if kind == "insert_under_area_root":
        candidates = [n for n in nodes if n.node_id in labeling.area_root_ids]
    elif kind == "insert_overflow":
        candidates = [n for n in nodes if n.fan_out >= k_for_children(labeling, n)]
    elif kind == "insert_kappa_split":
        candidates = [
            n for n in nodes if splits_at_full_frame_node(labeling, split_threshold, n)
        ]
    elif kind == "delete_area_bearing":
        bearing = set()
        for rid in labeling.area_root_ids:
            node = labeling.frame.node(rid)
            while node.parent is not None:
                bearing.add(node.node_id)
                node = node.parent
        candidates = [n for n in nodes if n.node_id in bearing]
    elif kind == "delete":
        candidates = nodes[1:]
    if not candidates:
        kind, candidates = "insert", nodes
    target = data.draw(st.sampled_from(candidates), label="target")
    position = 0
    if kind.startswith("insert"):
        position = data.draw(st.integers(0, target.fan_out), label="position")
    return kind.split("_")[0], nodes.index(target), position


@given(
    node_count=st.integers(1, 150),
    seed=st.integers(0, 10_000),
    high=st.integers(2, 6),
    cap=st.integers(4, 64),
    split_threshold=st.one_of(st.none(), st.integers(4, 24)),
    edits=st.integers(1, 25),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_area_local_update_matches_full_enumeration(
    node_count, seed, high, cap, split_threshold, edits, data
):
    local_tree = random_document(node_count, seed=seed, low=1, high=high)
    twin_tree = random_document(node_count, seed=seed, low=1, high=high)
    local = Ruid2Labeling(local_tree, partitioner=SizeCapPartitioner(cap))
    twin = Ruid2Labeling(twin_tree, partitioner=SizeCapPartitioner(cap))
    updater = Ruid2Updater(local, split_threshold=split_threshold)
    splitter = Ruid2Updater(twin, split_threshold=split_threshold)
    assert_same_state(local, twin)

    real_enumerate = ruid_module.enumerate_ruid2
    enumerations = []

    def counting_enumerate(*args, **kwargs):
        enumerations.append(args)
        return real_enumerate(*args, **kwargs)

    for _ in range(edits):
        kind, index, position = pick_edit(data, local, split_threshold)
        local_target = list(local_tree.preorder())[index]
        twin_target = list(twin_tree.preorder())[index]
        enumerations.clear()
        areas_before = local.area_count()
        if kind == "insert":
            spec = data.draw(subtree_specs, label="subtree")
            with mock.patch.object(ruid_module, "enumerate_ruid2", counting_enumerate):
                got = updater.insert(local_target, position, build_node(spec))
            want = reference_insert(twin, splitter, twin_target, position, build_node(spec))
        else:
            with mock.patch.object(ruid_module, "enumerate_ruid2", counting_enumerate):
                got = updater.delete(local_target)
            want = reference_delete(twin, twin_target)

        assert report_fields(got, positions(local_tree)) == report_fields(
            want, positions(twin_tree)
        )
        # the full enumeration runs only where the frame conflicts
        assert not enumerations or got.frame_renumbered
        assert_same_state(local, twin)
        for flag in ("overflow", "kappa_changed", "frame_renumbered"):
            if getattr(got, flag):
                event(f"{kind}: {flag}")
        if local.area_count() != areas_before:
            event(f"{kind}: area count changed")


def _kappa_growth_labeling(deep: bool):
    """The root area holds three interior nodes, two of them already
    area roots (κ = 2 from the root's frame fan-out). Splitting the
    third off gives the root a third frame child, so κ must grow to 3.
    With *deep* each existing area also has a child area, whose global
    only fits κ = 2 — a frame conflict."""
    children = [("a", [("inner", ["leaf"])] if deep else ["leaf"]) for _ in range(2)]
    children.append(("c", ["leaf", "leaf"]))
    tree = build(("root", children))
    roots = tree.root.children[:2]
    if deep:
        roots += [area.children[0] for area in roots]
    return Ruid2Labeling(tree, partitioner=ExplicitPartitioner(roots))


def _split_third_child(deep: bool):
    local, twin = _kappa_growth_labeling(deep), _kappa_growth_labeling(deep)
    assert local.kappa == 2
    got = Ruid2Updater(local, split_threshold=3).insert(
        local.tree.root.children[2], 0, element("new")
    )
    want = reference_insert(
        twin, Ruid2Updater(twin, split_threshold=3), twin.tree.root.children[2], 0, element("new")
    )
    assert report_fields(got, positions(local.tree)) == report_fields(
        want, positions(twin.tree)
    )
    assert_same_state(local, twin)
    return got, local


def test_split_growing_kappa_keeps_fitting_globals():
    """A flat frame: the existing globals still fit the grown κ, so the
    split stays area-local (κ changes, the frame is not renumbered)."""
    report, labeling = _split_third_child(deep=False)
    assert labeling.kappa == 3
    assert report.kappa_changed and not report.frame_renumbered


def test_split_growing_kappa_past_pinned_globals_renumbers_frame():
    """A deeper frame: a child area's global no longer hangs under its
    parent with the grown κ, so the frame is renumbered — the one case
    that still runs the full enumeration."""
    report, labeling = _split_third_child(deep=True)
    assert labeling.kappa == 3
    assert report.kappa_changed and report.frame_renumbered
