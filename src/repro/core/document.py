"""High-level document facade and fragment reconstruction.

:class:`LabeledDocument` bundles a tree, its rUID labeling, the axis
engine and the updater behind one object — the shape a downstream
application actually uses.

:func:`reconstruct_fragment` implements the application §3.3 sketches:
"fast reconstruction of a portion of an XML document from a set of
elements ... respecting the ancestor-descendant order existing in the
source data". Given any set of labels, the ancestor skeleton is
recovered purely by ``rparent`` arithmetic — the tree is consulted
only to copy node content.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.axes import AxisEngine
from repro.core.labels import Ruid2Label
from repro.core.partition import Partitioner
from repro.core.ruid import Ruid2Labeling
from repro.core.update import RelabelReport, Ruid2Updater
from repro.errors import QueryError
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree


def _as_store(source: Any):
    """Coerce *source* to a NodeStore: pass stores through, wrap any
    labeling (scheme adapter or bare core) in a MemoryNodeStore."""
    from repro.store.base import NodeStore
    from repro.store.memory import MemoryNodeStore

    if isinstance(source, NodeStore):
        return source
    return MemoryNodeStore(source)


def reconstruct_fragment(
    source: Any,
    labels: Iterable[Any],
    include_descendants: bool = False,
) -> XmlTree:
    """Rebuild a document fragment from a set of identifiers.

    The returned tree contains the selected nodes plus every ancestor
    needed to connect them, rooted at the document root, in source
    document order. Ancestors are discovered by parent-label chains
    (no tree navigation); node content (tag, attributes, text) is
    copied from the store's records.

    Parameters
    ----------
    source:
        A built labeling of the source document (any scheme, core or
        adapter shape) or a :class:`~repro.store.base.NodeStore` —
        fragments reconstruct identically from memory, paged, and
        snapshot stores.
    labels:
        The selected identifiers (e.g. a query result).
    include_descendants:
        Also copy the full subtrees below each selected node.

    Raises
    ------
    UnknownLabelError
        If any label names no real node.
    QueryError
        If *labels* is empty — there is no fragment to reconstruct.
    """
    store = _as_store(source)
    selected = list(labels)
    if not selected:
        raise QueryError("cannot reconstruct a fragment from an empty selection")
    for label in selected:
        store.rank_of(label)  # validate early

    closure: Dict[Any, None] = {}
    for label in selected:
        chain = [label]
        current = store.parent_of(label)
        while current is not None:
            chain.append(current)
            current = store.parent_of(current)
        for entry in chain:
            closure.setdefault(entry, None)

    if include_descendants:
        for label in selected:
            for descendant in store.descendant_labels(label):
                closure.setdefault(descendant, None)

    ordered = sorted(closure, key=store.rank_of)

    clones: Dict[Any, XmlNode] = {}
    root_clone: Optional[XmlNode] = None
    for label in ordered:
        node = store.node_for(label)
        clone = XmlNode(
            node.tag, node.kind, attributes=node.attributes, text=node.text
        )
        clones[label] = clone
        parent = store.parent_of(label)
        if parent is None:
            root_clone = clone
        else:
            clones[parent].append_child(clone)
    assert root_clone is not None  # the closure always contains the root
    return XmlTree(root_clone)


class LabeledDocument:
    """A document plus its rUID labeling, ready for use.

    Combines querying (via the scheme-aware XPath engine), label
    arithmetic, structural updates with relabel accounting, and
    fragment reconstruction.
    """

    def __init__(
        self,
        tree: XmlTree,
        partitioner: Optional[Partitioner] = None,
        split_threshold: Optional[int] = None,
    ):
        self.tree = tree
        self.labeling = Ruid2Labeling(tree, partitioner=partitioner)
        self.updater = Ruid2Updater(self.labeling, split_threshold=split_threshold)
        self._engine = None  # lazy; import cycle with repro.query otherwise
        self._axes: Optional[AxisEngine] = None

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label_of(self, node: XmlNode) -> Ruid2Label:
        return self.labeling.label_of(node)

    def node_of(self, label: Ruid2Label) -> XmlNode:
        return self.labeling.node_of(label)

    def parent_label(self, label: Ruid2Label) -> Ruid2Label:
        return self.labeling.rparent(label)

    @property
    def kappa(self) -> int:
        return self.labeling.kappa

    @property
    def ktable(self):
        return self.labeling.ktable

    @property
    def axes(self) -> AxisEngine:
        engine = self._axes
        if engine is None or engine.generation != self.labeling.generation:
            engine = AxisEngine(self.labeling)
            self._axes = engine
        return engine

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, xpath: str, strategy: str = "ruid") -> List[XmlNode]:
        """Evaluate an XPath expression against the document."""
        from repro.core.scheme import Ruid2SchemeLabeling
        from repro.query.engine import XPathEngine

        if self._engine is None:
            # Bind an adapter onto this document's existing core
            # labeling so the engine and updates share one state.
            adapter = Ruid2SchemeLabeling.from_core(self.labeling, self.updater)
            self._engine = XPathEngine(self.tree, labeling=adapter)
        return self._engine.select(xpath, strategy)

    def select_labels(self, xpath: str) -> List[Ruid2Label]:
        """Query and return identifiers instead of nodes."""
        return [self.labeling.label_of(node) for node in self.select(xpath)]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        # Derived axis, order and evaluator state is keyed on the
        # labeling generation, which every update bumps.
        return self.updater.insert(parent, position, node)

    def delete(self, node: XmlNode) -> RelabelReport:
        return self.updater.delete(node)

    # ------------------------------------------------------------------
    # Fragments
    # ------------------------------------------------------------------
    def fragment(
        self,
        labels: Sequence[Ruid2Label],
        include_descendants: bool = False,
    ) -> XmlTree:
        """Reconstruct the fragment spanned by *labels* (§3.3)."""
        return reconstruct_fragment(
            self.labeling, labels, include_descendants=include_descendants
        )

    def fragment_for(self, xpath: str, include_descendants: bool = False) -> XmlTree:
        """Query, then reconstruct the spanning fragment."""
        return self.fragment(
            self.select_labels(xpath), include_descendants=include_descendants
        )

    def __repr__(self) -> str:
        return (
            f"<LabeledDocument nodes={self.tree.size()} "
            f"areas={self.labeling.area_count()} kappa={self.kappa}>"
        )
