"""Structural update with exact relabel accounting — paper §3.2.

The paper's robustness argument is about *scope*: how many identifiers
must change when a node is inserted or a subtree deleted. The updaters
here perform the operation and return a :class:`RelabelReport` listing
every identifier that changed, so experiment E5 counts ground truth
rather than estimates.

Semantics implemented:

* **Original UID** — insertion shifts the right siblings (and hence
  renumbers their entire subtrees); when the parent's fan-out exceeds
  the committed ``k``, the whole document is renumbered with a larger
  ``k`` (the paper's Fig. 1 discussion). Deletion is cascading and the
  remaining right siblings shift left.
* **2-level rUID** — the partition is kept fixed; only the UID-local
  area receiving the update is re-enumerated
  (:meth:`~repro.core.ruid.Ruid2Labeling.relabel_area`), so an edit
  costs O(area size). An overflow of the area's local fan-out
  renumbers that area alone (and updates its row of K); global indices
  never change on insertion because the frame is untouched. Deleting a
  subtree that contains area roots removes those frame nodes and their
  K rows; surviving areas keep their global indices, since their frame
  edges are unchanged. Only an opt-in area split that grows κ past the
  pinned globals falls back to a whole-frame enumeration.

Committed fan-outs are sticky in both schemes: they grow on overflow
and never shrink, because shrinking would gratuitously renumber nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, List, Optional, TypeVar

from repro.core.ruid import AreaRelabel, Ruid2Labeling
from repro.core.uid import UidLabeling
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree

LabelT = TypeVar("LabelT")


@dataclass
class RelabelChange(Generic[LabelT]):
    """One identifier rewrite caused by a structural update."""

    node_id: int
    old_label: LabelT
    new_label: LabelT


@dataclass
class RelabelReport(Generic[LabelT]):
    """Exact accounting of one structural update."""

    scheme: str
    operation: str  # "insert" | "delete"
    changed: List[RelabelChange[LabelT]] = field(default_factory=list)
    inserted_count: int = 0
    deleted_count: int = 0
    overflow: bool = False
    surviving_nodes: int = 0
    areas_touched: int = 0  # rUID only; 0 where not applicable
    kappa_changed: bool = False
    frame_renumbered: bool = False  # rUID only: global indices reshuffled

    @property
    def relabeled_count(self) -> int:
        """Number of pre-existing nodes whose identifier changed."""
        return len(self.changed)

    @property
    def relabeled_fraction(self) -> float:
        """Relabeled share of the surviving document (0..1)."""
        if not self.surviving_nodes:
            return 0.0
        return self.relabeled_count / self.surviving_nodes

    @property
    def full_renumber(self) -> bool:
        """True when (almost) the whole document was renumbered: every
        surviving non-root node changed identifier."""
        return self.relabeled_count >= max(0, self.surviving_nodes - 1)

    def summary(self) -> str:
        return (
            f"{self.scheme} {self.operation}: relabeled {self.relabeled_count}"
            f"/{self.surviving_nodes} nodes"
            f"{' (overflow)' if self.overflow else ''}"
            f"{' [FULL RENUMBER]' if self.full_renumber else ''}"
        )


def diff_snapshots(
    before: Dict[int, LabelT],
    after: Dict[int, LabelT],
) -> List[RelabelChange[LabelT]]:
    """Changes between two node_id→label snapshots, ignoring nodes that
    appear only on one side (insertions/deletions are counted apart)."""
    changes: List[RelabelChange[LabelT]] = []
    for node_id, old_label in before.items():
        new_label = after.get(node_id)
        if new_label is not None and new_label != old_label:
            changes.append(RelabelChange(node_id, old_label, new_label))
    return changes


class UidUpdater:
    """Insert/delete against an original-UID labeling."""

    def __init__(self, labeling: UidLabeling):
        self.labeling = labeling
        self.tree: XmlTree = labeling.tree

    def insert(
        self, parent: XmlNode, position: int, node: XmlNode
    ) -> RelabelReport[int]:
        before = self.labeling.snapshot()
        self.tree.insert_node(parent, position, node)
        overflow = self.labeling.reassign()
        after = self.labeling.snapshot()
        new_ids = {n.node_id for n in node.iter_subtree()}
        return RelabelReport(
            scheme=self.labeling.scheme_name,
            operation="insert",
            changed=diff_snapshots(before, after),
            inserted_count=len(new_ids),
            overflow=overflow,
            surviving_nodes=len(before),
        )

    def delete(self, node: XmlNode) -> RelabelReport[int]:
        before = self.labeling.snapshot()
        removed = self.tree.delete_subtree(node)
        self.labeling.reassign()
        after = self.labeling.snapshot()
        return RelabelReport(
            scheme=self.labeling.scheme_name,
            operation="delete",
            changed=diff_snapshots(before, after),
            deleted_count=len(removed),
            surviving_nodes=len(before) - len(removed),
        )


class Ruid2Updater:
    """Insert/delete against a 2-level rUID labeling.

    The partition is preserved across updates; new nodes simply join
    the area of their insertion point, and deleted area roots leave the
    frame. (A separate maintenance policy may re-partition when areas
    grow too large — see :meth:`maybe_split_area`.)
    """

    def __init__(self, labeling: Ruid2Labeling, split_threshold: Optional[int] = None):
        self.labeling = labeling
        self.tree: XmlTree = labeling.tree
        #: when set, an area growing beyond this node count gets split
        #: by promoting the update point's subtree to a new area.
        self.split_threshold = split_threshold

    def insert(
        self, parent: XmlNode, position: int, node: XmlNode
    ) -> RelabelReport:
        labeling = self.labeling
        surviving = len(labeling)
        kappa_before = labeling.kappa
        self.tree.insert_node(parent, position, node)
        frame = labeling.frame
        # The new subtree joins the parent's own area when the parent
        # roots one, else the area containing the parent.
        if frame.is_area_root(parent):
            area_root = parent
        else:
            area_root = frame.area_containing(parent).root
        promoted = parent if self.maybe_split_area(parent) else None
        result = labeling.relabel_area(area_root, promoted=promoted)
        return self._report(
            "insert",
            result,
            kappa_before,
            inserted_count=sum(1 for _ in node.iter_subtree()),
            surviving_nodes=surviving,
        )

    def delete(self, node: XmlNode) -> RelabelReport:
        labeling = self.labeling
        kappa_before = labeling.kappa
        removed = self.tree.delete_subtree(node)
        area_root = labeling.frame.area_containing(node).root
        result = labeling.relabel_area(area_root, removed=removed)
        return self._report(
            "delete",
            result,
            kappa_before,
            deleted_count=len(removed),
            surviving_nodes=len(labeling),
        )

    def _report(
        self, operation: str, result: AreaRelabel, kappa_before: int, **counts
    ) -> RelabelReport:
        changed = [RelabelChange(*move) for move in result.moves]
        return RelabelReport(
            scheme=self.labeling.scheme_name,
            operation=operation,
            changed=changed,
            overflow=result.overflow,
            areas_touched=len({change.new_label.global_index for change in changed}),
            kappa_changed=self.labeling.kappa != kappa_before,
            frame_renumbered=result.frame_renumbered,
            **counts,
        )

    def maybe_split_area(self, insertion_parent: XmlNode) -> bool:
        """Split the insertion area when it exceeds the threshold, by
        promoting the insertion parent to an area root. Returns True if
        a split happened. (Splitting relabels within the old area only
        — the frame gains a leaf, which does not move existing global
        indices because new frame children enumerate after existing
        ones only if inserted last; we conservatively only split at
        parents whose promotion appends a new frame leaf.)"""
        if self.split_threshold is None:
            return False
        if insertion_parent.node_id in self.labeling.area_root_ids:
            return False
        if insertion_parent is self.tree.root:
            return False
        area = self.labeling.frame.area_containing(insertion_parent)
        if area.size < self.split_threshold:
            return False
        # Promoting a node that has no area-root descendants within the
        # area appends a leaf to the frame, keeping global indices of
        # existing areas stable unless κ overflows.
        has_root_below = any(
            descendant.node_id in self.labeling.area_root_ids
            for descendant in insertion_parent.descendants()
        )
        if has_root_below:
            return False
        self.labeling.area_root_ids.add(insertion_parent.node_id)
        return True
