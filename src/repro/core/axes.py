"""XPath axis generation from rUID identifiers — paper §3.5.

The paper demonstrates rUID's "XPath axes expressiveness" with routines
``rparent``, ``rancestor``, ``rchildren``, ``rdescendant``,
``rpsibling``, ``rfsibling``, ``rpreceding`` and ``rfollowing``. This
module implements all of them.

Two layers are exposed, mirroring the paper's distinction between
identifier arithmetic and data access:

* **candidate** routines — pure (κ, K) arithmetic producing identifier
  lists that may include *virtual* slots (no node behind them);
* **node-level** routines on :class:`AxisEngine` — candidates filtered
  against the labeling's existence index, returning only real nodes'
  labels in document order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import uid as uid_math
from repro.core.ktable import KTable
from repro.core.labels import Relation, Ruid2Label
from repro.core.order import Ruid2Order
from repro.core.ruid import Ruid2Labeling


def candidate_children(
    label: Ruid2Label, kappa: int, ktable: KTable
) -> List[Ruid2Label]:
    """The paper's ``rchildren`` routine: possible child identifiers.

    Children of a node live in the same UID-local area (for an area
    root: the area it roots). A child slot that coincides with the root
    of a lower area yields that area root's identifier (global index of
    the *child* area, root indicator true) — resolved via the (upper
    global, local) probe into table K.
    """
    area = label.global_index
    fan_out = ktable.fan_out(area)
    position = 1 if label.is_area_root else label.local_index
    low, high = uid_math.children_range(position, fan_out)
    pair_index = ktable.build_pair_index(kappa)
    result: List[Ruid2Label] = []
    for local in range(low, high + 1):
        child_area = pair_index.get((area, local))
        if child_area is not None:
            result.append(Ruid2Label(child_area, local, True))
        else:
            result.append(Ruid2Label(area, local, False))
    return result


def candidate_siblings(
    label: Ruid2Label, kappa: int, ktable: KTable, preceding: bool
) -> List[Ruid2Label]:
    """The ``rpsibling`` / ``rfsibling`` routines: sibling slots before
    or after the context node, in document order."""
    if label.is_document_root:
        return []
    if label.is_area_root:
        # The node sits as a leaf in the upper area at local_index.
        area = uid_math.parent(label.global_index, kappa)
    else:
        area = label.global_index
    fan_out = ktable.fan_out(area)
    position = label.local_index
    if position == 1:
        return []  # an area's own root has no siblings within the area
    parent_local = uid_math.parent(position, fan_out)
    low, high = uid_math.children_range(parent_local, fan_out)
    slots = range(low, position) if preceding else range(position + 1, high + 1)
    pair_index = ktable.build_pair_index(kappa)
    result: List[Ruid2Label] = []
    for local in slots:
        child_area = pair_index.get((area, local))
        if child_area is not None:
            result.append(Ruid2Label(child_area, local, True))
        else:
            result.append(Ruid2Label(area, local, False))
    return result


class AxisEngine:
    """Node-level XPath axes over a built :class:`Ruid2Labeling`.

    The engine combines the pure candidate routines with an existence
    filter and the Lemma 3 frame acceleration for the ``preceding`` /
    ``following`` axes. All returned lists are in document order.
    """

    def __init__(self, labeling: Ruid2Labeling):
        self.labeling = labeling
        #: the labeling generation this engine's caches describe
        self.generation = labeling.generation
        self.order = Ruid2Order(labeling.kappa, labeling.ktable)
        self._labels_in_area: Optional[Dict[int, List[Ruid2Label]]] = None
        self._area_doc_order: Optional[List[int]] = None
        self._sort_keys: Dict[Ruid2Label, tuple] = {}
        self._slots: Optional[Dict[Tuple[int, int], Ruid2Label]] = None
        # Prebuilt axis-name dispatch (constructing it per call showed
        # up in profiles of axis-heavy query workloads).
        self._dispatch = {
            "parent": self._parent_list,
            "ancestor": self.ancestors,
            "ancestor-or-self": self._ancestor_or_self,
            "child": self.children,
            "descendant": self.descendants,
            "descendant-or-self": self._descendant_or_self,
            "preceding-sibling": self.preceding_siblings,
            "following-sibling": self.following_siblings,
            "preceding": self.preceding,
            "following": self.following,
            "self": self._self_list,
        }

    # -- indexes --------------------------------------------------------
    def labels_in_area(self, global_index: int) -> List[Ruid2Label]:
        """Labels of the real nodes contained in an area (document
        order; child-area roots included as the area's leaves)."""
        if self._labels_in_area is None:
            index: Dict[int, List[Ruid2Label]] = {}
            frame = self.labeling.frame
            for root_node in frame.frame_preorder():
                g = self.labeling.global_of_area_root(root_node)
                area = frame.areas[root_node.node_id]
                index[g] = [self.labeling.label_of(n) for n in area.nodes]
            self._labels_in_area = index
        return self._labels_in_area[global_index]

    def _slot_map(self) -> Dict[Tuple[int, int], Ruid2Label]:
        """(containing area, local index) → the real label at that slot.

        The existence filter of the candidate routines, materialised
        once: probing a slot costs one dict lookup instead of
        constructing a candidate label per virtual slot.
        """
        slots = self._slots
        if slots is None:
            slots = {}
            kappa = self.labeling.kappa
            for label in self.labeling.labels():
                if label.is_area_root:
                    if label.is_document_root:
                        continue
                    upper = uid_math.parent(label.global_index, kappa)
                    slots[(upper, label.local_index)] = label
                else:
                    slots[(label.global_index, label.local_index)] = label
            self._slots = slots
        return slots

    def _areas_in_doc_order(self) -> List[int]:
        if self._area_doc_order is None:
            self._area_doc_order = [
                self.labeling.global_of_area_root(node)
                for node in self.labeling.frame.frame_preorder()
            ]
        return self._area_doc_order

    # -- upward axes ------------------------------------------------------
    def parent(self, label: Ruid2Label) -> Optional[Ruid2Label]:
        """The parent's label, or ``None`` at the document root."""
        if label.is_document_root:
            return None
        return self.labeling.rparent(label)

    def ancestors(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``ancestor`` axis, nearest first (pure arithmetic)."""
        return self.labeling.rancestors(label)

    # -- downward axes ----------------------------------------------------
    def children(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``child`` axis: real children in document order.

        Equivalent to filtering :func:`candidate_children` against the
        existence index, via the O(1)-per-slot map.
        """
        area = label.global_index
        fan_out = self.labeling.ktable.fan_out(area)
        position = 1 if label.is_area_root else label.local_index
        low, high = uid_math.children_range(position, fan_out)
        slots = self._slot_map()
        result: List[Ruid2Label] = []
        for local in range(low, high + 1):
            hit = slots.get((area, local))
            if hit is not None:
                result.append(hit)
        return result

    def descendants(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``descendant`` axis via the paper's frame shortcut.

        Within-area descendants are generated by repeated ``rchildren``;
        every area whose root is one of those descendants contributes
        *all* of its nodes (and, recursively, its frame descendants) —
        "all nodes in the areas rooted at the newly found nodes are
        descendants of n" (§3.5).
        """
        result: List[Ruid2Label] = []
        area_queue: List[Ruid2Label] = []

        def collect_within(start: Ruid2Label) -> None:
            stack = [start]
            while stack:
                current = stack.pop()
                for child in reversed(self.children(current)):
                    result.append(child)
                    if child.is_area_root:
                        area_queue.append(child)
                    else:
                        stack.append(child)

        # reversed/stack discipline gives preorder; then area subtrees
        # are expanded in a second phase and the whole list re-sorted.
        collect_within(label)
        seen_areas = set()
        while area_queue:
            area_root = area_queue.pop()
            if area_root.global_index in seen_areas:
                continue
            seen_areas.add(area_root.global_index)
            for inner in self.labels_in_area(area_root.global_index):
                if inner != area_root:
                    result.append(inner)
                    if inner.is_area_root:
                        area_queue.append(inner)
        return self.sort_document_order(result)

    # -- sibling axes -------------------------------------------------------
    def preceding_siblings(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``preceding-sibling`` axis, document order."""
        return self._siblings(label, preceding=True)

    def following_siblings(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``following-sibling`` axis, document order."""
        return self._siblings(label, preceding=False)

    def _siblings(self, label: Ruid2Label, preceding: bool) -> List[Ruid2Label]:
        if label.is_document_root:
            return []
        if label.is_area_root:
            area = uid_math.parent(label.global_index, self.labeling.kappa)
        else:
            area = label.global_index
        fan_out = self.labeling.ktable.fan_out(area)
        position = label.local_index
        if position == 1:
            return []
        parent_local = uid_math.parent(position, fan_out)
        low, high = uid_math.children_range(parent_local, fan_out)
        window = range(low, position) if preceding else range(position + 1, high + 1)
        slots = self._slot_map()
        result: List[Ruid2Label] = []
        for local in window:
            hit = slots.get((area, local))
            if hit is not None:
                result.append(hit)
        return result

    # -- horizontal axes ------------------------------------------------------
    def preceding(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``preceding`` axis with the Lemma 3 acceleration."""
        return self._horizontal(label, Relation.PRECEDING)

    def following(self, label: Ruid2Label) -> List[Ruid2Label]:
        """``following`` axis with the Lemma 3 acceleration."""
        return self._horizontal(label, Relation.FOLLOWING)

    def _horizontal(self, label: Ruid2Label, wanted: Relation) -> List[Ruid2Label]:
        """Classify whole areas by their root's relation to the context
        node (Lemma 3): a preceding/following area root carries its
        entire area; only *ancestor* areas need per-node checks."""
        result: List[Ruid2Label] = []
        seen: set = set()
        for area_global in self._areas_in_doc_order():
            root_node = self.labeling.area_root_node(area_global)
            root_label = self.labeling.label_of(root_node)
            relation = self.order.relation(root_label, label)
            if relation is wanted:
                for inner in self.labels_in_area(area_global):
                    if inner not in seen:
                        seen.add(inner)
                        result.append(inner)
                if root_label not in seen:
                    seen.add(root_label)
                    result.append(root_label)
            elif relation is Relation.ANCESTOR or relation is Relation.SELF:
                for inner in self.labels_in_area(area_global):
                    if inner in seen:
                        continue
                    if self.order.relation(inner, label) is wanted:
                        seen.add(inner)
                        result.append(inner)
        return self.sort_document_order(result)

    # -- helpers ---------------------------------------------------------
    def sort_document_order(self, labels: List[Ruid2Label]) -> List[Ruid2Label]:
        """Sort labels into document order using the arithmetic key
        (memoised — keys are pure functions of the label and κ/K)."""
        keys = self._sort_keys

        def key_of(label: Ruid2Label) -> tuple:
            cached = keys.get(label)
            if cached is None:
                cached = self.order.sort_key(label)
                keys[label] = cached
            return cached

        return sorted(labels, key=key_of)

    def _parent_list(self, label: Ruid2Label) -> List[Ruid2Label]:
        parent = self.parent(label)
        return [parent] if parent is not None else []

    def _ancestor_or_self(self, label: Ruid2Label) -> List[Ruid2Label]:
        return [label, *self.ancestors(label)]

    def _descendant_or_self(self, label: Ruid2Label) -> List[Ruid2Label]:
        return [label, *self.descendants(label)]

    @staticmethod
    def _self_list(label: Ruid2Label) -> List[Ruid2Label]:
        return [label]

    def axis(self, label: Ruid2Label, name: str) -> List[Ruid2Label]:
        """Dispatch by XPath axis name (hyphenated, as in expressions)."""
        try:
            handler = self._dispatch[name]
        except KeyError:
            raise ValueError(f"unknown axis {name!r}") from None
        return handler(label)
