"""Generation-stamped structural snapshots.

A :class:`StructuralView` freezes everything a query needs from one
labeling generation — document-order ranks, the parent/children maps,
per-tag candidate lists and the XPath string-values — into plain dicts
keyed by ``node_id``. Readers evaluate against the view while the
writer mutates the live tree: the view never follows a live
``parent``/``children`` pointer, so no interleaving of reader and
writer can produce a torn result. ``XmlNode`` objects themselves are
retained only for their immutable identity fields (``tag``, ``kind``,
``node_id``); structural updates move nodes but never rewrite those.

The build runs the numbering scheme's own machinery — the rank index
comes from :meth:`Labeling.rank_index` and every parent edge from
:meth:`Labeling.parent_label` arithmetic — so a view works for *any*
registered scheme, and a scheme whose arithmetic is wrong produces a
visibly wrong view. The differential test harness leans on exactly
that property.

:class:`~repro.store.evaluator.StoreEvaluator` reads a view through
the :class:`~repro.store.base.NodeStore` protocol, on its rank columns
wherever a step allows; the view itself is never mutated after the
build, so one evaluator may serve many threads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.columnar import NO_RANK
from repro.errors import NoParentError, QueryError, UnknownLabelError
from repro.store.base import NodeRecord, NodeStore
from repro.xmltree.node import NodeKind, XmlNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheme import Labeling


class StructuralView(NodeStore):
    """One labeling generation, frozen for lock-free reading.

    Also the frozen-snapshot implementation of the
    :class:`~repro.store.base.NodeStore` protocol: labels are the
    ``node_id`` ints the view is keyed by, so protocol consumers
    (:class:`~repro.store.evaluator.StoreEvaluator`,
    :class:`~repro.query.twig.TwigMatcher`, physical counters) run
    against a pinned generation unchanged.
    """

    store_kind = "snapshot"
    supports_batched = True
    #: a full view terminates every delta chain (see concurrent/delta.py)
    chain_depth = 0

    __slots__ = (
        "generation",
        "scheme_name",
        "root",
        "node_by_id",
        "rank",
        "end",
        "parent",
        "children",
        "attr_children",
        "attrs",
        "ids_by_rank",
        "tag_ids",
        "element_ids",
        "text_ids",
        "comment_ids",
        "structural_ids",
        "structural_ranks",
        "parent_ranks",
        "string_values",
        "_tag_rank_arrays",
    )

    def __init__(self, generation: int, scheme_name: str):
        super().__init__()  # the stats ledger
        self.generation = generation
        self.scheme_name = scheme_name
        self.root: Optional[XmlNode] = None
        #: node_id → the (immutable parts of the) node itself
        self.node_by_id: Dict[int, XmlNode] = {}
        #: node_id → preorder rank / subtree-end rank
        self.rank: Dict[int, int] = {}
        self.end: Dict[int, int] = {}
        #: node_id → parent node_id (None at the root), from scheme
        #: arithmetic — not from live pointers
        self.parent: Dict[int, Optional[int]] = {}
        #: node_id → structural children ids in document order
        self.children: Dict[int, List[int]] = {}
        #: node_id → materialised attribute-node children ids
        self.attr_children: Dict[int, List[int]] = {}
        #: node_id → frozen ((name, value), ...) attribute pairs
        self.attrs: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        #: every node_id in rank order (attributes included)
        self.ids_by_rank: List[int] = []
        #: element ids per tag, rank order — the candidate lists the
        #: batched evaluator and the parallel chunk scan consume
        self.tag_ids: Dict[str, List[int]] = {}
        self.element_ids: List[int] = []
        self.text_ids: List[int] = []
        self.comment_ids: List[int] = []
        #: rank-ordered ids excluding attribute nodes (the structural
        #: document the main axes range over)
        self.structural_ids: List[int] = []
        #: ranks of ``structural_ids``, same order — descendant slices
        #: are a bisect into this column plus one list slice
        self.structural_ranks = array("q")
        #: rank → parent's rank (NO_RANK at the root), every node
        self.parent_ranks = array("q")
        #: node_id → frozen XPath string-value
        self.string_values: Dict[int, str] = {}
        #: tag → rank array of its elements, built on first use; the
        #: build is idempotent, so a race between readers is benign
        self._tag_rank_arrays: Dict[str, array] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_labeling(cls, labeling: "Labeling") -> "StructuralView":
        """Freeze the current generation of *labeling*.

        Must run while the structure is quiescent (single-threaded, or
        under the concurrent document's read lock with the writer
        excluded).
        """
        generation = labeling.generation
        view = cls(generation, labeling.scheme_name)
        index = labeling.rank_index()
        size = len(index.rank)
        node_of = labeling.node_of
        parent_label = labeling.parent_label

        node_by_label = {}
        ids_by_rank: List[Optional[int]] = [None] * size
        for label, r in index.rank.items():
            node = node_of(label)
            node_by_label[label] = node
            nid = node.node_id
            view.node_by_id[nid] = node
            view.rank[nid] = r
            view.end[nid] = index.end[label]
            ids_by_rank[r] = nid
        if any(nid is None for nid in ids_by_rank):
            raise QueryError(
                f"{labeling.scheme_name}: rank index is not a permutation "
                f"of the document"
            )
        view.ids_by_rank = ids_by_rank  # type: ignore[assignment]

        # Parent edges from label arithmetic. A buggy scheme shows up
        # here (or as divergent query results), never as a torn view.
        for label, node in node_by_label.items():
            nid = node.node_id
            try:
                pl = parent_label(label)
            except NoParentError:
                view.parent[nid] = None
                view.root = node
                continue
            view.parent[nid] = node_of(pl).node_id
        if view.root is None:
            raise QueryError(
                f"{labeling.scheme_name}: no root label (parent_label "
                f"never raised NoParentError)"
            )

        # Children / candidate lists, in rank (= document) order.
        contribs: List[str] = []
        for nid in view.ids_by_rank:
            node = view.node_by_id[nid]
            kind = node.kind
            view.children[nid] = []
            pid = view.parent[nid]
            if kind is NodeKind.ATTRIBUTE:
                if pid is not None:
                    view.attr_children.setdefault(pid, []).append(nid)
                contribs.append("")
            else:
                if pid is not None:
                    view.children[pid].append(nid)
                view.structural_ids.append(nid)
                if kind is NodeKind.ELEMENT:
                    view.element_ids.append(nid)
                    view.tag_ids.setdefault(node.tag, []).append(nid)
                elif kind is NodeKind.TEXT:
                    view.text_ids.append(nid)
                elif kind is NodeKind.COMMENT:
                    view.comment_ids.append(nid)
                contribs.append(
                    node.text
                    if kind in (NodeKind.TEXT, NodeKind.ELEMENT) and node.text
                    else ""
                )
            if kind is NodeKind.ELEMENT and node.attributes:
                view.attrs[nid] = tuple(sorted(node.attributes.items()))

        # Flat rank columns for the batched set-at-a-time evaluator:
        # aligned with structural_ids, plus a rank-indexed parent
        # column over every node (attributes included).
        rank_map = view.rank
        view.structural_ranks = array(
            "q", (rank_map[nid] for nid in view.structural_ids)
        )
        parent_map = view.parent
        view.parent_ranks = array(
            "q",
            (
                NO_RANK if parent_map[nid] is None else rank_map[parent_map[nid]]
                for nid in view.ids_by_rank
            ),
        )
        view.stats.columnar_builds += 1

        # Frozen string-values: rank order is document order, so an
        # element's value is the join of its subtree's contributions.
        for nid in view.ids_by_rank:
            node = view.node_by_id[nid]
            if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT):
                view.string_values[nid] = node.text or ""
            else:
                view.string_values[nid] = "".join(
                    contribs[view.rank[nid] : view.end[nid] + 1]
                )
        return view

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.node_by_id)

    def __contains__(self, nid: int) -> bool:
        return nid in self.node_by_id

    # ------------------------------------------------------------------
    # NodeStore protocol (labels are node_ids)
    # ------------------------------------------------------------------
    def size(self) -> int:
        return len(self.node_by_id)

    def root_label(self) -> int:
        return self.root.node_id

    def rank_of(self, label: int) -> int:
        try:
            return self.rank[label]
        except KeyError:
            raise UnknownLabelError(f"node id {label!r} not in this view") from None

    def end_of(self, label: int) -> int:
        try:
            return self.end[label]
        except KeyError:
            raise UnknownLabelError(f"node id {label!r} not in this view") from None

    def label_at(self, rank: int) -> int:
        try:
            return self.ids_by_rank[rank]
        except IndexError:
            raise UnknownLabelError(f"no node at rank {rank}") from None

    def parent_of(self, label: int) -> Optional[int]:
        self.stats.parent_hops += 1
        return self.parent[label]

    def children_of(self, label: int) -> List[int]:
        return self.children[label]

    def record(self, label: int) -> NodeRecord:
        self.stats.fetches += 1
        node = self.node_by_id[label]
        return NodeRecord(label, node.tag, node.kind, node.text)

    def node_for(self, label: int) -> XmlNode:
        self.stats.fetches += 1
        return self.node_by_id[label]

    def label_for(self, node: XmlNode) -> int:
        nid = node.node_id
        if nid not in self.node_by_id:
            raise UnknownLabelError(f"node {node!r} is not in this view")
        return nid

    def labels_with_tag(self, tag: str) -> List[int]:
        self.stats.tag_lookups += 1
        return self.tag_ids.get(tag, [])

    def tag_ranks(self, tag: str) -> Sequence[int]:
        self.stats.columnar_tag_scans += 1
        cached = self._tag_rank_arrays.get(tag)
        if cached is None:
            rank_map = self.rank
            cached = array("q", (rank_map[nid] for nid in self.tag_ids.get(tag, ())))
            self._tag_rank_arrays[tag] = cached
        return cached

    def parent_rank_array(self) -> Sequence[int]:
        return self.parent_ranks

    def element_labels(self) -> List[int]:
        return self.element_ids

    def text_labels(self) -> List[int]:
        return self.text_ids

    def comment_labels(self) -> List[int]:
        return self.comment_ids

    def structural_labels(self) -> List[int]:
        return self.structural_ids

    def attributes_of(self, label: int) -> Tuple[Tuple[str, str], ...]:
        return self.attrs.get(label, ())

    def attribute_labels(self, label: int) -> List[int]:
        return self.attr_children.get(label, [])

    def string_value(self, label: int) -> str:
        return self.string_values[label]

    def order_by_id(self) -> Dict[int, int]:
        return self.rank

    def descendant_labels(self, label: int, or_self: bool = False) -> List[int]:
        """Structural descendants of *label* in document order: one
        bisect into the structural rank column, one list slice — no
        per-node kind checks."""
        self.stats.columnar_slices += 1
        structural_ranks = self.structural_ranks
        locate = bisect_left if or_self else bisect_right
        lo = locate(structural_ranks, self.rank[label])
        hi = bisect_right(structural_ranks, self.end[label])
        return self.structural_ids[lo:hi]

    def structural_labels_between(self, low: int, high: int) -> List[int]:
        """Structural labels with rank in ``[low, high]`` (inclusive),
        document order: a bisect into the rank column plus one slice —
        the interval primitive delta views compose around their splice
        point."""
        self.stats.columnar_slices += 1
        structural_ranks = self.structural_ranks
        lo = bisect_left(structural_ranks, low)
        hi = bisect_right(structural_ranks, high)
        return self.structural_ids[lo:hi]

    def __repr__(self) -> str:
        return (
            f"<StructuralView {self.scheme_name} gen={self.generation} "
            f"nodes={len(self.node_by_id)}>"
        )
