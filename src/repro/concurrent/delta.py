"""Copy-on-write delta snapshots: one edit layered over a frozen view.

A structural update moves every rank at or after the edit point by a
constant: inserting a ``k``-node subtree whose first rank is ``cut``
shifts every survivor rank ``>= cut`` up by ``k``, and deleting the
block ``[cut, cut+k)`` shifts every survivor rank ``>= cut+k`` down by
``k``. Relative document order of the survivors never changes, and
``node_id`` identity is stable across relabeling. :class:`DeltaView`
is that observation made into a :class:`~repro.store.base.NodeStore`:
it answers every protocol question with **rank-shift arithmetic over
the previous generation's frozen view** plus small override tables for
the nodes the edit actually touched — O(delta) to build, never O(n).

What a delta layer stores (everything else delegates to ``base``):

* ``cut``/``shift`` — the splice point and the uniform rank shift;
* explicit rank/end/parent/value tables for the *inserted* subtree;
* subtree-end overrides for the edit point's ancestors (an insert
  grows every enclosing interval by ``k``; a delete needs none — the
  shift formula is already exact for every survivor);
* the deleted ``node_id`` set, excluded from every answer;
* a children override for the one parent whose child list changed;
* a dirty set for ancestors whose XPath string-value changed, each
  recomputed lazily (and memoised) from the new structural interval.

Per-tag and per-kind candidate lists are patched lazily: one bisect
finds the splice position in the base list, and the patched list is
``head + inserted + surviving tail``. The rank columns the batched
evaluator scans — the per-tag rank arrays and the rank-indexed parent
column — are spliced the same way from the base's columns: the head
slice, the inserted block (a delete drops the hole instead), then the
tail shifted by ``shift``; no rank is probed per element. Lists and
columns the edit leaves unchanged are **shared by reference** with
the base view. Memo caches are built idempotently, so racing readers
at worst duplicate work (the same discipline as
``StructuralView._tag_rank_arrays``).

Deltas chain: a :class:`DeltaView` may itself be the base of the next
generation's delta. Every probe through ``n`` chained layers costs
O(n) dict probes before the terminal :class:`StructuralView` answers,
which is why :class:`~repro.concurrent.document.ConcurrentDocument`
folds a chain into a full rebuild past ``delta_chain_limit``.

Capture runs inside the writer's critical section via
:func:`capture_insert` (after the DOM splice) and
:func:`capture_delete` (around it: ranks before, child lists after).
Any structural surprise raises :class:`DeltaCaptureError` and the
caller falls back to the O(n) rebuild — a delta is an optimisation,
never a correctness requirement.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from threading import Lock
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import UnknownLabelError
from repro.store.base import NodeRecord, NodeStore
from repro.xmltree.node import NodeKind, XmlNode

__all__ = [
    "DeltaCaptureError",
    "TreeEdit",
    "DeltaView",
    "capture_insert",
    "capture_delete",
    "finish_delete",
]


class DeltaCaptureError(Exception):
    """The edit could not be expressed as a single rank splice; the
    caller must fall back to a full snapshot build."""


class TreeEdit:
    """One captured structural edit, in the base view's coordinates.

    ``shift`` is ``+k`` for an insert of ``k`` nodes, ``-k`` for a
    delete; ``cut`` is the first rank of the spliced block. All other
    tables cover only the touched nodes, so the capture is O(delta +
    depth of the edit point).
    """

    __slots__ = (
        "op",
        "cut",
        "shift",
        "ins_ids",
        "ins_rank",
        "ins_end",
        "ins_parent",
        "ins_nodes",
        "ins_children",
        "ins_attr_children",
        "ins_attrs",
        "ins_values",
        "ins_structural",
        "ins_structural_ranks",
        "ins_tag_ids",
        "ins_element",
        "ins_text",
        "ins_comment",
        "gone",
        "gone_tags",
        "gone_has_element",
        "gone_has_text",
        "gone_has_comment",
        "end_overrides",
        "dirty_values",
        "edit_parent",
        "children_override",
        "attr_children_override",
    )

    def __init__(self, op: str, cut: int, shift: int):
        self.op = op
        self.cut = cut
        self.shift = shift
        # inserted-subtree tables (empty for a delete)
        self.ins_ids: Tuple[int, ...] = ()
        self.ins_rank: Dict[int, int] = {}
        self.ins_end: Dict[int, int] = {}
        self.ins_parent: Dict[int, int] = {}
        self.ins_nodes: Dict[int, XmlNode] = {}
        self.ins_children: Dict[int, List[int]] = {}
        self.ins_attr_children: Dict[int, List[int]] = {}
        self.ins_attrs: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        self.ins_values: Dict[int, str] = {}
        self.ins_structural: List[int] = []
        self.ins_structural_ranks = array("q")
        self.ins_tag_ids: Dict[str, List[int]] = {}
        self.ins_element: List[int] = []
        self.ins_text: List[int] = []
        self.ins_comment: List[int] = []
        # deleted-subtree tables (empty for an insert)
        self.gone: FrozenSet[int] = frozenset()
        self.gone_tags: FrozenSet[str] = frozenset()
        self.gone_has_element = False
        self.gone_has_text = False
        self.gone_has_comment = False
        # touched survivors
        self.end_overrides: Dict[int, int] = {}
        self.dirty_values: FrozenSet[int] = frozenset()
        self.edit_parent: Optional[int] = None
        self.children_override: Dict[int, List[int]] = {}
        self.attr_children_override: Dict[int, List[int]] = {}


def _capture_subtree(edit: TreeEdit, root: XmlNode) -> None:
    """Rank/end/value tables for the inserted subtree, DFS from its
    root. Ranks are assigned in preorder starting at ``edit.cut``; an
    element's string-value is the join of its subtree's ELEMENT/TEXT
    text contributions, mirroring ``StructuralView.from_labeling``."""
    cut = edit.cut
    counter = cut
    contribs: List[str] = []
    stack: List[Tuple[XmlNode, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        nid = node.node_id
        if done:
            edit.ins_end[nid] = counter - 1
            continue
        edit.ins_rank[nid] = counter
        counter += 1
        stack.append((node, True))
        edit.ins_nodes[nid] = node
        kind = node.kind
        if kind is NodeKind.ATTRIBUTE:
            contribs.append("")
        else:
            edit.ins_structural.append(nid)
            edit.ins_structural_ranks.append(edit.ins_rank[nid])
            if kind is NodeKind.ELEMENT:
                edit.ins_element.append(nid)
                edit.ins_tag_ids.setdefault(node.tag, []).append(nid)
            elif kind is NodeKind.TEXT:
                edit.ins_text.append(nid)
            elif kind is NodeKind.COMMENT:
                edit.ins_comment.append(nid)
            contribs.append(
                node.text
                if kind in (NodeKind.TEXT, NodeKind.ELEMENT) and node.text
                else ""
            )
        if kind is NodeKind.ELEMENT and node.attributes:
            edit.ins_attrs[nid] = tuple(sorted(node.attributes.items()))
        structural_kids: List[int] = []
        attr_kids: List[int] = []
        for child in node.children:
            if child.kind is NodeKind.ATTRIBUTE:
                attr_kids.append(child.node_id)
            else:
                structural_kids.append(child.node_id)
            edit.ins_parent[child.node_id] = nid
        edit.ins_children[nid] = structural_kids
        edit.ins_attr_children[nid] = attr_kids
        for child in reversed(node.children):
            stack.append((child, False))
    # DFS order above interleaves; rebuild the preorder id tuple and
    # the string-values from the rank tables (ranks are authoritative).
    by_rank = sorted(edit.ins_rank, key=edit.ins_rank.__getitem__)
    edit.ins_ids = tuple(by_rank)
    for nid in by_rank:
        node = edit.ins_nodes[nid]
        if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT):
            edit.ins_values[nid] = node.text or ""
        else:
            lo = edit.ins_rank[nid] - cut
            hi = edit.ins_end[nid] - cut
            edit.ins_values[nid] = "".join(contribs[lo : hi + 1])


def _split_children(parent: XmlNode) -> Tuple[List[int], List[int]]:
    structural: List[int] = []
    attrs: List[int] = []
    for child in parent.children:
        if child.kind is NodeKind.ATTRIBUTE:
            attrs.append(child.node_id)
        else:
            structural.append(child.node_id)
    return structural, attrs


def _ancestor_tables(edit: TreeEdit, base: NodeStore, parent: XmlNode) -> None:
    """End overrides (+shift on an insert) and dirty string-values for
    the edit point's ancestor chain, read off the live DOM — ancestors
    themselves are survivors the edit never moved."""
    dirty = set()
    node: Optional[XmlNode] = parent
    while node is not None:
        nid = node.node_id
        if edit.shift > 0:
            edit.end_overrides[nid] = base.end_of(nid) + edit.shift
        dirty.add(nid)
        node = node.parent
    edit.dirty_values = frozenset(dirty)


def capture_insert(base: NodeStore, node: XmlNode) -> TreeEdit:
    """Capture the insert of *node* (already spliced into the DOM)
    against *base*, the frozen view of the pre-edit generation."""
    parent = node.parent
    if parent is None:
        raise DeltaCaptureError("inserted node has no parent")
    siblings = parent.children
    index = next((i for i, c in enumerate(siblings) if c is node), None)
    if index is None:
        raise DeltaCaptureError("inserted node not among its parent's children")
    try:
        if index + 1 < len(siblings):
            cut = base.rank_of(siblings[index + 1].node_id)
        else:
            cut = base.end_of(parent.node_id) + 1
    except UnknownLabelError as exc:
        raise DeltaCaptureError(str(exc)) from None
    edit = TreeEdit("insert", cut, 0)
    _capture_subtree(edit, node)
    edit.ins_parent[node.node_id] = parent.node_id
    edit.shift = len(edit.ins_ids)
    _ancestor_tables(edit, base, parent)
    edit.edit_parent = parent.node_id
    structural, attrs = _split_children(parent)
    edit.children_override[parent.node_id] = structural
    edit.attr_children_override[parent.node_id] = attrs
    return edit


def capture_delete(base: NodeStore, node: XmlNode) -> TreeEdit:
    """Capture the delete of *node*'s subtree **before** the DOM
    splice; call :func:`finish_delete` after it."""
    parent = node.parent
    if parent is None:
        raise DeltaCaptureError("cannot delta-capture a root delete")
    try:
        cut = base.rank_of(node.node_id)
        end = base.end_of(node.node_id)
    except UnknownLabelError as exc:
        raise DeltaCaptureError(str(exc)) from None
    removed = list(node.iter_subtree())
    if end - cut + 1 != len(removed):
        raise DeltaCaptureError(
            f"subtree interval [{cut}, {end}] does not match "
            f"{len(removed)} live nodes"
        )
    edit = TreeEdit("delete", cut, -len(removed))
    edit.gone = frozenset(n.node_id for n in removed)
    edit.gone_tags = frozenset(
        n.tag for n in removed if n.kind is NodeKind.ELEMENT
    )
    edit.gone_has_element = any(n.kind is NodeKind.ELEMENT for n in removed)
    edit.gone_has_text = any(n.kind is NodeKind.TEXT for n in removed)
    edit.gone_has_comment = any(n.kind is NodeKind.COMMENT for n in removed)
    _ancestor_tables(edit, base, parent)
    edit.edit_parent = parent.node_id
    return edit


def finish_delete(edit: TreeEdit, parent: XmlNode) -> TreeEdit:
    """Record the edit parent's post-splice child lists."""
    structural, attrs = _split_children(parent)
    edit.children_override[parent.node_id] = structural
    edit.attr_children_override[parent.node_id] = attrs
    return edit


class _LazyOrder:
    """``node_id → rank`` mapping computed on demand.

    ``BaseEvaluator.sort_nodes`` only calls ``get`` and ``len``;
    materialising a full dict per generation would be the O(n) cost
    the delta path exists to avoid.
    """

    __slots__ = ("_view",)

    def __init__(self, view: "DeltaView"):
        self._view = view

    def get(self, node_id: int, default=None):
        try:
            return self._view.rank_of(node_id)
        except UnknownLabelError:
            return default

    def __getitem__(self, node_id: int) -> int:
        try:
            return self._view.rank_of(node_id)
        except UnknownLabelError:
            raise KeyError(node_id) from None

    def __contains__(self, node_id: int) -> bool:
        return self.get(node_id) is not None

    def __len__(self) -> int:
        return self._view.size()


class DeltaView(NodeStore):
    """One generation as a delta over the previous generation's view.

    Implements the full NodeStore protocol (labels are ``node_id``
    ints, like :class:`StructuralView`); see the module docstring for
    the representation. ``base`` may be a :class:`StructuralView` or
    another :class:`DeltaView` — ``chain_depth`` counts the layers to
    the terminal full view.
    """

    store_kind = "delta"
    supports_batched = True

    __slots__ = (
        "generation",
        "scheme_name",
        "base",
        "edit",
        "chain_depth",
        "areas",
        "_cut",
        "_shift",
        "_tag_labels",
        "_tag_rank_arrays",
        "_parent_ranks",
        "_kind_labels",
        "_value_memo",
        "_released",
        "_spliced_above",
        "_splice_lock",
    )

    def __init__(
        self,
        base: NodeStore,
        generation: int,
        edit: TreeEdit,
        areas: Tuple[str, ...] = (),
    ):
        super().__init__()
        self.base = base
        self.generation = generation
        self.scheme_name = base.scheme_name
        self.edit = edit
        self.chain_depth = getattr(base, "chain_depth", 0) + 1
        #: area-lock shard ids this generation's edit touched
        self.areas = areas
        self._cut = edit.cut
        self._shift = edit.shift
        # lazy memo caches; idempotent builds, benign GIL races
        self._tag_labels: Dict[str, List[int]] = {}
        self._tag_rank_arrays: Dict[str, Sequence[int]] = {}
        self._parent_ranks: Optional[Sequence[int]] = None
        self._kind_labels: Dict[str, List[int]] = {}
        self._value_memo: Dict[int, str] = {}
        #: set by :meth:`release_caches` once no reader pins this layer
        self._released = False
        #: columns the layer above has spliced its own copy of
        self._spliced_above: set = set()
        #: guards ``_released`` and ``_spliced_above``: the reclaimer
        #: releases this layer while readers of the layer above splice
        self._splice_lock = Lock()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def size(self) -> int:
        return self.base.size() + self._shift

    def root_label(self) -> int:
        return self.base.root_label()

    # ------------------------------------------------------------------
    # rank / interval arithmetic
    # ------------------------------------------------------------------
    def rank_of(self, label: int) -> int:
        rank = self.edit.ins_rank.get(label)
        if rank is not None:
            return rank
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        base_rank = self.base.rank_of(label)
        if base_rank < self._cut:
            return base_rank
        return base_rank + self._shift

    def end_of(self, label: int) -> int:
        over = self.edit.end_overrides.get(label)
        if over is not None:
            return over
        end = self.edit.ins_end.get(label)
        if end is not None:
            return end
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        base_end = self.base.end_of(label)
        if base_end < self._cut:
            return base_end
        return base_end + self._shift

    def label_at(self, rank: int) -> int:
        if not 0 <= rank < self.size():
            raise UnknownLabelError(f"no node at rank {rank}")
        cut = self._cut
        if rank < cut:
            return self.base.label_at(rank)
        shift = self._shift
        if shift > 0:
            if rank < cut + shift:
                return self.edit.ins_ids[rank - cut]
            return self.base.label_at(rank - shift)
        return self.base.label_at(rank - shift)  # shift < 0: skip the hole

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def parent_of(self, label: int) -> Optional[int]:
        self.stats.parent_hops += 1
        parent = self.edit.ins_parent.get(label)
        if parent is not None:
            return parent
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        return self.base.parent_of(label)

    def children_of(self, label: int) -> List[int]:
        override = self.edit.children_override.get(label)
        if override is not None:
            return override
        kids = self.edit.ins_children.get(label)
        if kids is not None:
            return kids
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        return self.base.children_of(label)

    # ------------------------------------------------------------------
    # record fetch
    # ------------------------------------------------------------------
    def _node_raw(self, label: int) -> XmlNode:
        # one loop down the chain, not one call per layer: every
        # result node of every read comes through here
        view = self
        while isinstance(view, DeltaView):
            edit = view.edit
            node = edit.ins_nodes.get(label)
            if node is not None:
                return node
            if label in edit.gone:
                raise UnknownLabelError(f"node id {label!r} was deleted")
            view = view.base
        return view.node_by_id[label]  # terminal StructuralView

    def record(self, label: int) -> NodeRecord:
        self.stats.fetches += 1
        node = self._node_raw(label)
        return NodeRecord(label, node.tag, node.kind, node.text)

    def node_for(self, label: int) -> XmlNode:
        self.stats.fetches += 1
        return self._node_raw(label)

    def label_for(self, node: XmlNode) -> int:
        nid = node.node_id
        view = self
        while isinstance(view, DeltaView):
            edit = view.edit
            if nid in edit.ins_nodes:
                return nid
            if nid in edit.gone:
                raise UnknownLabelError(f"node {node!r} was deleted")
            view = view.base
        return view.label_for(node)

    # ------------------------------------------------------------------
    # candidate enumeration: lazily patched lists
    # ------------------------------------------------------------------
    def _patched(self, base_list: List[int], inserted: Sequence[int]) -> List[int]:
        """``head + inserted + surviving tail`` around the splice.

        *base_list* is in base-rank order; every entry at base rank >=
        ``cut`` lands after the spliced block in the new order, so one
        bisect on the base ranks places the splice."""
        base_rank = self.base.rank_of
        split = bisect_left(base_list, self._cut, key=base_rank)
        head = base_list[:split]
        gone = self.edit.gone
        if gone:
            tail = [lb for lb in base_list[split:] if lb not in gone]
        else:
            tail = base_list[split:]
        if inserted:
            return head + list(inserted) + tail
        return head + tail

    def labels_with_tag(self, tag: str) -> List[int]:
        self.stats.tag_lookups += 1
        cached = self._tag_labels.get(tag)
        if cached is None:
            cached = self._splice_tag(tag)[0]
        return cached

    def tag_ranks(self, tag: str) -> Sequence[int]:
        self.stats.columnar_tag_scans += 1
        cached = self._tag_rank_arrays.get(tag)
        if cached is None:
            cached = self._splice_tag(tag)[1]
        return cached

    def _splice_tag(self, tag: str) -> Tuple[List[int], Sequence[int]]:
        """The tag's (labels, ranks) columns spliced from the base's:
        one bisect on the base ranks finds the block; the tail's ranks
        move by ``shift``. A tag the edit neither inserted nor deleted
        shares the base labels, and shares the base ranks too when
        they all lie before the cut."""
        base = self.base
        base_labels = base.labels_with_tag(tag)
        base_ranks = base.tag_ranks(tag)
        cut = self._cut
        shift = self._shift
        lo = bisect_left(base_ranks, cut)
        hi = lo if shift > 0 else bisect_left(base_ranks, cut - shift)
        inserted = self.edit.ins_tag_ids.get(tag, ())
        if inserted or hi > lo:
            labels = base_labels[:lo] + list(inserted) + base_labels[hi:]
        else:
            labels = base_labels
        if labels is base_labels and lo == len(base_ranks):
            ranks = base_ranks
        else:
            ins_rank = self.edit.ins_rank
            ranks = base_ranks[:lo]
            ranks.extend(ins_rank[nid] for nid in inserted)
            ranks.extend(rank + shift for rank in base_ranks[hi:])
        self._tag_labels[tag] = labels
        self._tag_rank_arrays[tag] = ranks
        self._spliced_from_base(("tag", tag))
        return labels, ranks

    def _kind_list(self, key: str, base_labels, inserted: Sequence[int],
                   touched_by_delete: bool) -> List[int]:
        """The per-kind list patched from ``base_labels()``, which is
        only called on a miss."""
        cached = self._kind_labels.get(key)
        if cached is not None:
            return cached
        base_list = base_labels()
        if not inserted and not touched_by_delete:
            result = base_list
        else:
            result = self._patched(base_list, inserted)
        self._kind_labels[key] = result
        self._spliced_from_base(("kind", key))
        return result

    def element_labels(self) -> List[int]:
        return self._kind_list(
            "element", self.base.element_labels,
            self.edit.ins_element, self.edit.gone_has_element,
        )

    def text_labels(self) -> List[int]:
        return self._kind_list(
            "text", self.base.text_labels,
            self.edit.ins_text, self.edit.gone_has_text,
        )

    def comment_labels(self) -> List[int]:
        return self._kind_list(
            "comment", self.base.comment_labels,
            self.edit.ins_comment, self.edit.gone_has_comment,
        )

    def structural_labels(self) -> List[int]:
        return self._kind_list(
            "structural", self.base.structural_labels,
            self.edit.ins_structural, bool(self.edit.gone),
        )

    def parent_rank_array(self) -> Sequence[int]:
        """rank → parent rank, spliced from the base's column: the
        head as is (a node before the cut has its parent before it),
        the inserted block's parents, then the tail with every parent
        rank at or past the cut moved by ``shift``."""
        cached = self._parent_ranks
        if cached is None:
            base_parents = self.base.parent_rank_array()
            cut = self._cut
            shift = self._shift
            cached = base_parents[:cut]
            if shift > 0:
                edit = self.edit
                ins_rank = edit.ins_rank
                ins_parent = edit.ins_parent
                outer = self.rank_of(edit.edit_parent)
                cached.extend(
                    ins_rank.get(ins_parent[nid], outer) for nid in edit.ins_ids
                )
                tail = base_parents[cut:]
            else:
                tail = base_parents[cut - shift :]
            cached.extend(
                [parent + shift if parent >= cut else parent for parent in tail]
            )
            self._parent_ranks = cached
            self._spliced_from_base(("parent",))
        return cached

    # ------------------------------------------------------------------
    # interval scans
    # ------------------------------------------------------------------
    def structural_labels_between(self, low: int, high: int) -> List[int]:
        """Structural labels with new-coordinate rank in ``[low, high]``,
        document order: up to two base sub-intervals composed around
        the spliced block."""
        if low > high:
            return []
        cut = self._cut
        shift = self._shift
        base = self.base
        parts: List[int] = []
        if low < cut:
            parts.extend(base.structural_labels_between(low, min(high, cut - 1)))
        if shift > 0:
            block_low = max(low, cut)
            block_high = min(high, cut + shift - 1)
            if block_low <= block_high:
                ranks = self.edit.ins_structural_ranks
                i = bisect_left(ranks, block_low)
                j = bisect_right(ranks, block_high)
                parts.extend(self.edit.ins_structural[i:j])
            if high >= cut + shift:
                parts.extend(
                    base.structural_labels_between(max(low - shift, cut), high - shift)
                )
        elif high >= cut:
            parts.extend(
                base.structural_labels_between(max(low, cut) - shift, high - shift)
            )
        return parts

    def descendant_labels(self, label: int, or_self: bool = False) -> List[int]:
        self.stats.columnar_slices += 1
        low = self.rank_of(label) + (0 if or_self else 1)
        return self.structural_labels_between(low, self.end_of(label))

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def attributes_of(self, label: int) -> Tuple[Tuple[str, str], ...]:
        attrs = self.edit.ins_attrs.get(label)
        if attrs is not None:
            return attrs
        if label in self.edit.ins_nodes:
            return ()
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        return self.base.attributes_of(label)

    def attribute_labels(self, label: int) -> List[int]:
        override = self.edit.attr_children_override.get(label)
        if override is not None:
            return override
        kids = self.edit.ins_attr_children.get(label)
        if kids is not None:
            return kids
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        return self.base.attribute_labels(label)

    def string_value(self, label: int) -> str:
        value = self.edit.ins_values.get(label)
        if value is not None:
            return value
        if label in self.edit.gone:
            raise UnknownLabelError(f"node id {label!r} was deleted")
        if label not in self.edit.dirty_values:
            return self.base.string_value(label)
        value = self._value_memo.get(label)
        if value is None:
            # the edit changed this ancestor's subtree: re-join the
            # text contributions of its (new) structural interval
            parts: List[str] = []
            for member in self.structural_labels_between(
                self.rank_of(label), self.end_of(label)
            ):
                node = self._node_raw(member)
                if node.kind in (NodeKind.ELEMENT, NodeKind.TEXT) and node.text:
                    parts.append(node.text)
            value = "".join(parts)
            self._value_memo[label] = value
        return value

    # ------------------------------------------------------------------
    # evaluation support
    # ------------------------------------------------------------------
    def order_by_id(self) -> "_LazyOrder":
        # a fresh wrapper per call: caching it on the view would make a
        # view <-> wrapper cycle, and retired chains would then wait for
        # the cyclic collector instead of going when the last pin does
        return _LazyOrder(self)

    def release_caches(self) -> None:
        """Reclaim hook: nobody pins this layer any more, but it keeps
        serving newer layers through its arithmetic. The value memo
        goes now. The columns the layer above splices from — parent
        ranks, per-tag labels and ranks, per-kind lists — go one at a
        time, as that layer splices its own copy of each: dropping them
        here would make the layer above re-splice them from further
        down the chain first."""
        self._value_memo = {}
        with self._splice_lock:
            self._released = True
            spliced, self._spliced_above = self._spliced_above, set()
            for column in spliced:
                self._drop_column(column)

    def _spliced_from_base(self, column: Tuple) -> None:
        """This layer now holds its own copy of *column*: the base may
        drop its copy once it is released."""
        base = self.base
        if isinstance(base, DeltaView):
            with base._splice_lock:
                if base._released:
                    base._drop_column(column)
                else:
                    base._spliced_above.add(column)

    def _drop_column(self, column: Tuple) -> None:
        kind = column[0]
        if kind == "parent":
            self._parent_ranks = None
        elif kind == "tag":
            self._tag_labels.pop(column[1], None)
            self._tag_rank_arrays.pop(column[1], None)
        else:
            self._kind_labels.pop(column[1], None)

    def __repr__(self) -> str:
        return (
            f"<DeltaView {self.scheme_name} gen={self.generation} "
            f"depth={self.chain_depth} {self.edit.op}@{self._cut}"
            f"{self._shift:+d}>"
        )
