"""Uniform numbering-scheme interface.

Experiments sweep several schemes (original UID, 2-level and multilevel
rUID, Dewey, pre/post, region, ...) over the same workloads. This
module defines the two abstractions they share:

* :class:`Labeling` — a built assignment of labels to one tree, with
  the operations every experiment needs (lookup, parent computation,
  structural relation, bit accounting, structural update);
* :class:`NumberingScheme` — the factory that builds a labeling.

Adapters for the paper's schemes (UID, rUID) live here; the comparison
schemes implement the same ABCs in :mod:`repro.baselines`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Generic, Iterator, Optional, TypeVar

from repro.core.axes import AxisEngine
from repro.core.columnar import ColumnarIndex
from repro.core.labels import Relation, Ruid2Label
from repro.core.multilevel import MultilevelRuidLabeling
from repro.core.order import Ruid2Order, uid_relation
from repro.core.partition import Partitioner, SizeCapPartitioner
from repro.core.rankindex import RankIndex
from repro.core.ruid import Ruid2Labeling
from repro.core.uid import UidLabeling
from repro.core.update import RelabelReport, Ruid2Updater, UidUpdater
from repro.errors import NumberingError
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree

LabelT = TypeVar("LabelT")


class Labeling(ABC, Generic[LabelT]):
    """A materialised label assignment over one tree."""

    #: short identifier used in report tables
    scheme_name: str = "abstract"
    #: True when computing a parent requires an auxiliary index or the
    #: tree itself (pre/post has this defect; UID/rUID/Dewey do not)
    parent_needs_index: bool = False

    def __init__(self, tree: XmlTree):
        self.tree = tree
        self._generation = 0
        self._rank_index: Optional[RankIndex] = None
        self._columnar_index: Optional[ColumnarIndex] = None

    # -- cache generations ----------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic counter of structural states. Every mutation that
        can change labels (insert/delete/reenumerate/rebuild) advances
        it; derived caches (rank index, axis memos, compiled plans) are
        stamped with the generation they were built from and must be
        discarded on mismatch."""
        return self._generation

    def bump_generation(self) -> None:
        """Invalidate every generation-stamped cache."""
        self._generation += 1
        self._rank_index = None
        self._columnar_index = None

    def rank_index(self) -> RankIndex:
        """The document-order rank index for the current generation.

        Built lazily, once per generation; a label's preorder rank and
        subtree-end rank turn document-order sorts and ancestry tests
        into integer comparisons (the query fast path)."""
        index = self._rank_index
        generation = self.generation
        if index is None or index.generation != generation:
            index = RankIndex.build(self, generation)
            self._rank_index = index
        return index

    def columnar_index(self) -> ColumnarIndex:
        """Flat-array structure columns for the current generation.

        Built lazily in one DFS and cached alongside the rank index;
        stores and evaluators serve descendant slices, sibling-chain
        children, and per-tag candidate arrays straight from its
        buffers instead of walking the object tree."""
        index = self._columnar_index
        generation = self.generation
        if index is None or index.generation != generation:
            index = ColumnarIndex.build(self, generation)
            self._columnar_index = index
        return index

    # -- lookups --------------------------------------------------------
    @abstractmethod
    def label_of(self, node: XmlNode) -> LabelT:
        """The label assigned to *node*."""

    @abstractmethod
    def node_of(self, label: LabelT) -> XmlNode:
        """The node carrying *label* (raises UnknownLabelError)."""

    def labels(self) -> Iterator[LabelT]:
        """All labels, in document order."""
        return (self.label_of(node) for node in self.tree.preorder())

    # -- structure from labels -------------------------------------------
    @abstractmethod
    def parent_label(self, label: LabelT) -> LabelT:
        """Parent's label (raises NoParentError at the document root)."""

    @abstractmethod
    def relation(self, first: LabelT, second: LabelT) -> Relation:
        """Structural relation of two labels."""

    def is_ancestor(self, candidate: LabelT, label: LabelT) -> bool:
        return self.relation(candidate, label) is Relation.ANCESTOR

    def doc_compare(self, first: LabelT, second: LabelT) -> int:
        relation = self.relation(first, second)
        if relation is Relation.SELF:
            return 0
        return -1 if relation.precedes else 1

    # -- measurement -------------------------------------------------------
    @abstractmethod
    def label_bits(self, label: LabelT) -> int:
        """Storage bits for one label."""

    def max_label_bits(self) -> int:
        return max(self.label_bits(label) for label in self.labels())

    def total_label_bits(self) -> int:
        return sum(self.label_bits(label) for label in self.labels())

    def memory_bytes(self) -> int:
        """Bytes of auxiliary main-memory state (κ+K for rUID; 0 if none)."""
        return 0

    # -- update -------------------------------------------------------------
    @abstractmethod
    def snapshot(self) -> Dict[int, LabelT]:
        """node_id → label copy."""

    @abstractmethod
    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        """Insert and relabel; returns exact accounting."""

    @abstractmethod
    def delete(self, node: XmlNode) -> RelabelReport:
        """Delete the subtree and relabel; returns exact accounting."""


class NumberingScheme(ABC):
    """Factory: builds a :class:`Labeling` over a tree."""

    name: str = "abstract"

    @abstractmethod
    def build(self, tree: XmlTree) -> Labeling:
        """Label every node of *tree*."""

    def __repr__(self) -> str:
        return f"<NumberingScheme {self.name}>"


# ----------------------------------------------------------------------
# Adapters for the paper's schemes
# ----------------------------------------------------------------------


class UidSchemeLabeling(Labeling[int]):
    """Original UID through the uniform interface."""

    scheme_name = "uid"
    parent_needs_index = False

    def __init__(self, tree: XmlTree, fan_out: Optional[int] = None):
        super().__init__(tree)
        self.core = UidLabeling(tree, fan_out=fan_out)
        self._updater = UidUpdater(self.core)

    def label_of(self, node: XmlNode) -> int:
        return self.core.label_of(node)

    def node_of(self, label: int) -> XmlNode:
        return self.core.node_of(label)

    def parent_label(self, label: int) -> int:
        return self.core.parent_label(label)

    def relation(self, first: int, second: int) -> Relation:
        return uid_relation(first, second, self.core.fan_out)

    def label_bits(self, label: int) -> int:
        return self.core.label_bits(label)

    def snapshot(self) -> Dict[int, int]:
        return self.core.snapshot()

    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        report = self._updater.insert(parent, position, node)
        self.bump_generation()
        return report

    def delete(self, node: XmlNode) -> RelabelReport:
        report = self._updater.delete(node)
        self.bump_generation()
        return report


class Ruid2SchemeLabeling(Labeling[Ruid2Label]):
    """2-level rUID through the uniform interface."""

    scheme_name = "ruid2"
    parent_needs_index = False

    def __init__(
        self,
        tree: XmlTree,
        partitioner: Optional[Partitioner] = None,
        split_threshold: Optional[int] = None,
    ):
        super().__init__(tree)
        self.core = Ruid2Labeling(tree, partitioner=partitioner)
        self._updater = Ruid2Updater(self.core, split_threshold=split_threshold)
        self._order: Optional[Ruid2Order] = None
        self._order_generation = -1
        self._axes: Optional[AxisEngine] = None

    @classmethod
    def from_core(
        cls, core: Ruid2Labeling, updater: Optional[Ruid2Updater] = None
    ) -> "Ruid2SchemeLabeling":
        """Wrap an existing core labeling (sharing its state) instead
        of building a fresh one — used by :class:`LabeledDocument` so
        queries and updates operate on one labeling."""
        adapter = cls.__new__(cls)
        Labeling.__init__(adapter, core.tree)
        adapter.core = core
        adapter._updater = updater or Ruid2Updater(core)
        adapter._order = None
        adapter._order_generation = -1
        adapter._axes = None
        return adapter

    @property
    def generation(self) -> int:
        """Track the core labeling's generation: callers may mutate the
        shared core directly (``LabeledDocument`` does), and every such
        mutation bumps the core counter, so derived caches invalidate
        regardless of which handle performed the update."""
        return self.core.generation

    def _order_oracle(self) -> Ruid2Order:
        # κ/K change (in place) on updates; rebuild the oracle lazily
        # once per core generation.
        generation = self.core.generation
        if self._order_generation != generation:
            self._order = Ruid2Order(self.core.kappa, self.core.ktable)
            self._order_generation = generation
        return self._order

    @property
    def axes(self) -> AxisEngine:
        """Axis routines bound to the current labeling state."""
        engine = self._axes
        if engine is None or engine.generation != self.core.generation:
            engine = AxisEngine(self.core)
            self._axes = engine
        return engine

    def label_of(self, node: XmlNode) -> Ruid2Label:
        return self.core.label_of(node)

    def node_of(self, label: Ruid2Label) -> XmlNode:
        return self.core.node_of(label)

    def parent_label(self, label: Ruid2Label) -> Ruid2Label:
        return self.core.rparent(label)

    def relation(self, first: Ruid2Label, second: Ruid2Label) -> Relation:
        return self._order_oracle().relation(first, second)

    def label_bits(self, label: Ruid2Label) -> int:
        return label.bits()

    def memory_bytes(self) -> int:
        return self.core.memory_bytes()

    def snapshot(self) -> Dict[int, Ruid2Label]:
        return self.core.snapshot()

    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        return self._updater.insert(parent, position, node)

    def delete(self, node: XmlNode) -> RelabelReport:
        return self._updater.delete(node)


class MultiRuidSchemeLabeling(Labeling):
    """Multilevel rUID through the uniform interface.

    Structural updates are not defined by the paper for the multilevel
    form and are not supported here; experiment E5 sweeps the 2-level
    scheme (which is where §3.2's argument lives).
    """

    scheme_name = "ruid-multi"
    parent_needs_index = False

    def __init__(self, tree: XmlTree, levels: int = 3, partitioners=None):
        super().__init__(tree)
        self.core = MultilevelRuidLabeling(tree, levels=levels, partitioners=partitioners)

    def label_of(self, node: XmlNode):
        return self.core.label_of(node)

    def node_of(self, label) -> XmlNode:
        return self.core.node_of(label)

    def parent_label(self, label):
        return self.core.rparent(label)

    def relation(self, first, second) -> Relation:
        return self.core.relation(first, second)

    def label_bits(self, label) -> int:
        return label.bits()

    def snapshot(self) -> Dict[int, object]:
        return {node.node_id: self.core.label_of(node) for node in self.tree.preorder()}

    def insert(self, parent: XmlNode, position: int, node: XmlNode) -> RelabelReport:
        raise NumberingError(
            "multilevel rUID updates are undefined in the paper; use the "
            "2-level scheme for update experiments"
        )

    def delete(self, node: XmlNode) -> RelabelReport:
        raise NumberingError(
            "multilevel rUID updates are undefined in the paper; use the "
            "2-level scheme for update experiments"
        )


class UidScheme(NumberingScheme):
    """Factory for the original UID."""

    name = "uid"

    def __init__(self, fan_out: Optional[int] = None):
        self.fan_out = fan_out

    def build(self, tree: XmlTree) -> UidSchemeLabeling:
        return UidSchemeLabeling(tree, fan_out=self.fan_out)


class Ruid2Scheme(NumberingScheme):
    """Factory for the 2-level rUID."""

    name = "ruid2"

    def __init__(
        self,
        partitioner: Optional[Partitioner] = None,
        max_area_size: int = 64,
        split_threshold: Optional[int] = None,
    ):
        self.partitioner = partitioner or SizeCapPartitioner(max_area_size)
        self.split_threshold = split_threshold

    def build(self, tree: XmlTree) -> Ruid2SchemeLabeling:
        return Ruid2SchemeLabeling(
            tree, partitioner=self.partitioner, split_threshold=self.split_threshold
        )


class MultiRuidScheme(NumberingScheme):
    """Factory for the multilevel rUID."""

    name = "ruid-multi"

    def __init__(self, levels: int = 3, partitioners=None):
        self.levels = levels
        self.partitioners = partitioners

    def build(self, tree: XmlTree) -> MultiRuidSchemeLabeling:
        return MultiRuidSchemeLabeling(
            tree, levels=self.levels, partitioners=self.partitioners
        )
