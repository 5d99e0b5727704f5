"""In-memory NodeStore over a live tree and its labeling.

This is the configuration every pre-E17 experiment ran on: the whole
document in RAM, labels resolved to live :class:`XmlNode` objects in
one dict lookup. Structure — document order, subtree intervals,
parenthood, per-tag candidates — is served from the labeling's
:class:`~repro.core.columnar.ColumnarIndex`: contiguous integer
buffers built in one DFS, so descendant slices are a bisect plus an
array slice and parent hops are one indexed load, with no per-node
object walks on any hot path.

All derived state is stamped with the labeling's generation and
rebuilt wholesale after a structural update; the engine's default
``"ruid"`` strategy runs the store evaluator over this store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarIndex
from repro.errors import NoParentError, UnknownLabelError
from repro.store.base import Label, NodeRecord, NodeStore
from repro.xmltree.node import NodeKind, XmlNode


class MemoryNodeStore(NodeStore):
    """Protocol adapter over a live ``(tree, labeling)`` pair.

    Accepts any labeling shape in use across the codebase: the uniform
    :class:`~repro.core.scheme.Labeling` adapters, or a bare core
    labeling (e.g. :class:`~repro.core.ruid.Ruid2Labeling`) that
    carries ``tree`` / ``label_of`` / ``node_of`` and parent arithmetic
    under either the ``parent_label`` or ``rparent`` name.
    """

    store_kind = "memory"
    supports_batched = True

    __slots__ = (
        "labeling",
        "tree",
        "scheme_name",
        "columnar",
        "_parent_arithmetic",
        "_bound_generation",
        "_order_by_id",
        "_attribute_names",
        "_tag_labels",
        "_element_labels",
        "_text_labels",
        "_comment_labels",
        "_structural_labels",
    )

    def __init__(self, labeling: Any):
        super().__init__()
        self.labeling = labeling
        self.tree = labeling.tree
        self.scheme_name = getattr(labeling, "scheme_name", type(labeling).__name__)
        parent = getattr(labeling, "parent_label", None)
        self._parent_arithmetic = parent if parent is not None else labeling.rparent
        self._bound_generation: Optional[int] = None
        self.columnar: Optional[ColumnarIndex] = None
        self._order_by_id: Optional[Dict[int, int]] = None
        self._attribute_names: Optional[frozenset] = None
        self._tag_labels: Optional[Dict[str, List[Label]]] = None
        self._element_labels: Optional[List[Label]] = None
        self._text_labels: Optional[List[Label]] = None
        self._comment_labels: Optional[List[Label]] = None
        self._structural_labels: Optional[List[Label]] = None
        self._ensure()

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return getattr(self.labeling, "generation", 0)

    def _build_columnar(self) -> ColumnarIndex:
        builder = getattr(self.labeling, "columnar_index", None)
        if builder is not None:
            return builder()
        return ColumnarIndex.build(self.labeling, self.generation)

    def _ensure(self) -> None:
        """Rebind every derived structure to the current generation; a
        no-op (one int compare) when nothing changed."""
        generation = getattr(self.labeling, "generation", 0)
        if generation == self._bound_generation:
            return
        self.columnar = self._build_columnar()
        self.stats.columnar_builds += 1
        self._order_by_id = None
        self._attribute_names = None
        self._tag_labels = None
        self._element_labels = None
        self._text_labels = None
        self._comment_labels = None
        self._structural_labels = None
        self._bound_generation = generation

    def refresh(self) -> "MemoryNodeStore":
        """Re-validate against the labeling (cheap; call per query)."""
        self._ensure()
        return self

    # ------------------------------------------------------------------
    def size(self) -> int:
        self._ensure()
        return self.columnar.size

    def root_label(self) -> Label:
        return self.labeling.label_of(self.tree.root)

    def rank_of(self, label: Label) -> int:
        self._ensure()
        try:
            return self.columnar.rank_by_label[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in this generation") from None

    def end_of(self, label: Label) -> int:
        self._ensure()
        columnar = self.columnar
        try:
            return columnar.end[columnar.rank_by_label[label]]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in this generation") from None

    def label_at(self, rank: int) -> Label:
        self._ensure()
        try:
            return self.columnar.labels_by_rank[rank]
        except IndexError:
            raise UnknownLabelError(f"no label at rank {rank}") from None

    # ------------------------------------------------------------------
    def parent_of(self, label: Label) -> Optional[Label]:
        self.stats.parent_hops += 1
        try:
            return self._parent_arithmetic(label)
        except NoParentError:
            return None

    def children_of(self, label: Label) -> List[Label]:
        self._ensure()
        columnar = self.columnar
        return columnar.labels_for(columnar.children_ranks(self.rank_of(label)))

    # ------------------------------------------------------------------
    def record(self, label: Label) -> NodeRecord:
        self.stats.fetches += 1
        node = self.labeling.node_of(label)
        return NodeRecord(label, node.tag, node.kind, node.text)

    def node_for(self, label: Label) -> XmlNode:
        self.stats.fetches += 1
        return self.labeling.node_of(label)

    def nodes_for(self, labels: Sequence[Label]) -> List[XmlNode]:
        self.stats.fetches += len(labels)
        node_of = self.labeling.node_of
        return [node_of(label) for label in labels]

    def label_for(self, node: XmlNode) -> Label:
        try:
            return self.labeling.label_of(node)
        except KeyError:
            raise UnknownLabelError(
                f"node {node!r} carries no label in this store"
            ) from None

    # ------------------------------------------------------------------
    def tag_labels(self) -> Dict[str, List[Label]]:
        """The raw tag → labels map (hot paths index it directly),
        materialised from the columnar per-tag rank arrays."""
        self._ensure()
        tag_labels = self._tag_labels
        if tag_labels is None:
            columnar = self.columnar
            labels_for = columnar.labels_for
            tag_labels = {
                tag: labels_for(bucket)
                for tag, bucket in columnar.tag_ranks.items()
            }
            self._tag_labels = tag_labels
        return tag_labels

    def labels_with_tag(self, tag: str) -> List[Label]:
        self.stats.tag_lookups += 1
        return self.tag_labels().get(tag, [])

    def tag_ranks(self, tag: str) -> Sequence[int]:
        self._ensure()
        self.stats.columnar_tag_scans += 1
        return self.columnar.tag_rank_array(tag)

    def parent_rank_array(self) -> Sequence[int]:
        self._ensure()
        return self.columnar.parent

    def element_labels(self) -> List[Label]:
        self._ensure()
        labels = self._element_labels
        if labels is None:
            columnar = self.columnar
            labels = columnar.labels_for(columnar.element_ranks)
            self._element_labels = labels
        return labels

    def text_labels(self) -> List[Label]:
        self._ensure()
        labels = self._text_labels
        if labels is None:
            columnar = self.columnar
            labels = columnar.labels_for(columnar.text_ranks)
            self._text_labels = labels
        return labels

    def comment_labels(self) -> List[Label]:
        self._ensure()
        labels = self._comment_labels
        if labels is None:
            columnar = self.columnar
            labels = columnar.labels_for(columnar.comment_ranks)
            self._comment_labels = labels
        return labels

    def structural_labels(self) -> List[Label]:
        self._ensure()
        labels = self._structural_labels
        if labels is None:
            columnar = self.columnar
            labels = columnar.labels_for(columnar.structural)
            self._structural_labels = labels
        return labels

    def has_tag(self, tag: str) -> bool:
        self._ensure()
        return tag in self.columnar.tag_ranks

    # ------------------------------------------------------------------
    def attributes_of(self, label: Label) -> Tuple[Tuple[str, str], ...]:
        node = self.labeling.node_of(label)
        if node.attributes:
            return tuple(sorted(node.attributes.items()))
        return ()

    def attribute_labels(self, label: Label) -> List[Label]:
        self._ensure()
        columnar = self.columnar
        return columnar.labels_for(
            columnar.children_ranks(self.rank_of(label), attributes=True)
        )

    def string_value(self, label: Label) -> str:
        node = self.labeling.node_of(label)
        if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT):
            return node.text or ""
        return node.text_content()

    # ------------------------------------------------------------------
    def order_by_id(self) -> Dict[int, int]:
        self._ensure()
        order = self._order_by_id
        if order is None:
            order = self._scan_nodes()
        return order

    def can_match_attribute(self, name: str) -> bool:
        self._ensure()
        names = self._attribute_names
        if names is None:
            self._scan_nodes()
            names = self._attribute_names
        return name in names

    def _scan_nodes(self) -> Dict[int, int]:
        """One pass over every labeled node: the ``node_id`` → rank map
        and, from the same dereferences, the attribute-name synopsis
        (dict-form attributes and materialised attribute nodes)."""
        node_of = self.labeling.node_of
        order: Dict[int, int] = {}
        names: set = set()
        for rank, label in enumerate(self.columnar.labels_by_rank):
            node = node_of(label)
            order[node.node_id] = rank
            if node.attributes:
                names.update(node.attributes)
            elif node.kind is NodeKind.ATTRIBUTE:
                names.add(node.tag)
        self._order_by_id = order
        self._attribute_names = frozenset(names)
        return order

    def descendant_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        """Bisect into the structural rank column, one array slice."""
        self._ensure()
        self.stats.columnar_slices += 1
        return self.columnar.structural_slice(self.rank_of(label), or_self)
