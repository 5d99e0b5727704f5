"""The 2-level recursive UID (rUID) numbering scheme — paper §2.1–2.3.

Construction follows the paper's four steps (Fig. 3):

1. partition the tree into UID-local areas and build the frame over
   their roots;
2. enumerate the frame with a κ-ary UID → *global indices*;
3. enumerate each area with its own kᵢ-ary UID → *local indices*;
4. compose the triple identifiers of Definition 3 and record table K.

Once built, ``κ`` and ``K`` are the only state the identifier
arithmetic touches: :meth:`Ruid2Labeling.rparent` is the paper's Fig. 6
algorithm and never dereferences the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core import uid as uid_math
from repro.core.frame import Area, Frame
from repro.core.ktable import KRow, KTable
from repro.core.labels import Ruid2Label
from repro.core.partition import Partitioner, SizeCapPartitioner
from repro.errors import NoParentError, UnknownLabelError
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree


@dataclass
class _Enumeration:
    """Everything one enumeration pass produces."""

    frame: Frame
    kappa: int
    ktable: KTable
    label_by_node: Dict[int, Ruid2Label] = field(default_factory=dict)
    node_by_label: Dict[Ruid2Label, XmlNode] = field(default_factory=dict)
    global_by_root: Dict[int, int] = field(default_factory=dict)  # area-root node_id -> g
    root_by_global: Dict[int, XmlNode] = field(default_factory=dict)
    local_fanout_used: Dict[int, int] = field(default_factory=dict)  # root node_id -> k_i


class StickyGlobalConflict(Exception):
    """Preserved global indices cannot be honoured (ordinal overflow or
    a frame edge moved); the caller must fall back to a fresh global
    enumeration."""


def enumerate_ruid2(
    tree: XmlTree,
    area_root_ids: Set[int],
    min_kappa: int = 1,
    min_local_fanouts: Optional[Dict[int, int]] = None,
    fixed_globals: Optional[Dict[int, int]] = None,
) -> _Enumeration:
    """Run the Fig. 3 build algorithm over a fixed partition.

    ``min_kappa`` and ``min_local_fanouts`` (keyed by area-root node
    id) let callers keep previously committed fan-outs *sticky* across
    incremental updates: fan-outs only ever grow, as shrinking them
    would gratuitously renumber untouched nodes (§3.2).

    ``fixed_globals`` (area-root node id → global index) pins surviving
    areas to their previous global indices, so deleting an area does
    not shift its following siblings — the paper's deletion semantics
    ("the nodes in the descendant areas are not affected because the
    frame F is unchanged", §3.2). New areas take the lowest free child
    ordinals; if a pinned index is inconsistent with the current frame
    (edge moved, or ordinals exceed κ), :class:`StickyGlobalConflict`
    is raised and the caller falls back to a fresh enumeration.
    """
    frame = Frame(tree, area_root_ids)
    kappa = max(1, frame.max_fan_out(), min_kappa)
    sticky = min_local_fanouts or {}
    result = _Enumeration(frame=frame, kappa=kappa, ktable=KTable())

    # -- global enumeration (Fig. 3, lines 1-3) ------------------------
    root = tree.root
    pinned = fixed_globals or {}
    if pinned.get(root.node_id, 1) != 1:
        raise StickyGlobalConflict("the document root must keep global 1")
    result.global_by_root[root.node_id] = 1
    result.root_by_global[1] = root
    for area_root in frame.frame_levelorder():
        g = result.global_by_root[area_root.node_id]
        children = frame.frame_children[area_root.node_id]
        if len(children) > kappa:
            raise StickyGlobalConflict("frame fan-out exceeds committed kappa")
        taken: Dict[int, XmlNode] = {}
        free: List[XmlNode] = []
        for child_root in children:
            wanted = pinned.get(child_root.node_id)
            if wanted is None:
                free.append(child_root)
                continue
            if uid_math.parent(wanted, kappa) != g:
                raise StickyGlobalConflict(
                    f"pinned global {wanted} no longer hangs under {g}"
                )
            ordinal = uid_math.child_ordinal(wanted, kappa)
            if ordinal in taken:
                raise StickyGlobalConflict(f"ordinal collision under {g}")
            taken[ordinal] = child_root
        next_ordinal = 0
        for child_root in children:
            if child_root.node_id in pinned:
                child_g = pinned[child_root.node_id]
            else:
                while next_ordinal in taken:
                    next_ordinal += 1
                if next_ordinal >= kappa:
                    raise StickyGlobalConflict("no free child ordinal left")
                taken[next_ordinal] = child_root
                child_g = uid_math.child(g, kappa, next_ordinal)
            result.global_by_root[child_root.node_id] = child_g
            result.root_by_global[child_g] = child_root

    # -- local enumerations (Fig. 3, lines 4-13) -----------------------
    # local index of each node *within its containing area*; area roots
    # are indexed here as leaves of the upper area (the tree root gets 1).
    local_in_upper: Dict[int, int] = {root.node_id: 1}
    for area_root in frame.frame_levelorder():
        area = frame.areas[area_root.node_id]
        k_local = max(1, area.local_fan_out(), sticky.get(area_root.node_id, 0))
        result.local_fanout_used[area_root.node_id] = k_local
        locals_here = _area_locals(area, k_local)
        del locals_here[area_root.node_id]  # its upper-area index comes from the upper pass
        local_in_upper.update(locals_here)

    # -- identifier composition + table K (Fig. 3, lines 10, 14, e) ----
    for area_root in frame.frame_levelorder():
        g = result.global_by_root[area_root.node_id]
        result.ktable.add(
            KRow(
                global_index=g,
                local_index=local_in_upper[area_root.node_id],
                fan_out=result.local_fanout_used[area_root.node_id],
            )
        )
    for node in tree.preorder():
        if frame.is_area_root(node):
            label = Ruid2Label(
                result.global_by_root[node.node_id],
                local_in_upper[node.node_id],
                True,
            )
        else:
            containing_root_id = frame.containing_area[node.node_id]
            label = Ruid2Label(
                result.global_by_root[containing_root_id],
                local_in_upper[node.node_id],
                False,
            )
        result.label_by_node[node.node_id] = label
        result.node_by_label[label] = node
    return result


def _area_locals(area: Area, k_local: int) -> Dict[int, int]:
    """Fig. 3 lines 4-13 over one area: node_id → local index under a
    k_local-ary UID, the area root at 1 and child-area roots indexed as
    leaves (their children live in lower areas)."""
    boundary = {n.node_id for n in area.child_area_roots}
    locals_here: Dict[int, int] = {area.root.node_id: 1}
    for node in area.nodes:  # document order: parents before children
        if node.node_id in boundary:
            continue
        first = uid_math.child(locals_here[node.node_id], k_local, 0)
        for ordinal, child_node in enumerate(node.children):
            locals_here[child_node.node_id] = first + ordinal
    return locals_here


class AreaRelabel(NamedTuple):
    """What one area-local update changed (:meth:`Ruid2Labeling.relabel_area`)."""

    #: (node_id, old label, new label) of every pre-existing node whose
    #: label changed, in document order
    moves: List[Tuple[int, Ruid2Label, Ruid2Label]]
    #: a pre-existing area's committed local fan-out grew
    overflow: bool
    #: the frame conflicted with the pinned globals and was renumbered
    frame_renumbered: bool


class Ruid2Labeling:
    """2-level rUID labels for every node of a tree.

    Parameters
    ----------
    tree:
        The document tree to label.
    partitioner:
        Strategy choosing the area roots; defaults to
        :class:`~repro.core.partition.SizeCapPartitioner` with a cap of
        64 nodes per area.
    min_kappa:
        Optional headroom for the frame fan-out κ.
    """

    scheme_name = "ruid2"

    def __init__(
        self,
        tree: XmlTree,
        partitioner: Optional[Partitioner] = None,
        min_kappa: int = 1,
    ):
        self.tree = tree
        self.partitioner = partitioner or SizeCapPartitioner(64)
        self._min_kappa = min_kappa
        self.area_root_ids: Set[int] = self.partitioner.partition(tree)
        self._sticky_local: Dict[int, int] = {}
        self._state = enumerate_ruid2(
            tree, self.area_root_ids, min_kappa=min_kappa
        )
        self._sticky_local = dict(self._state.local_fanout_used)
        #: enumeration generation: bumped whenever the label assignment
        #: may have changed (reenumerate/rebuild). Generation-stamped
        #: caches (rank index, rparent memo, axis/plan caches) key off it.
        self.generation = 0
        self._parent_memo: Dict[Ruid2Label, Ruid2Label] = {}

    # ------------------------------------------------------------------
    # Full re-enumeration (explicit, and the updates' frame-conflict fallback)
    # ------------------------------------------------------------------
    def reenumerate(self, keep_globals: bool = True) -> bool:
        """Re-run the build over the *current* partition.

        Committed fan-outs are sticky (they only grow), and — per the
        paper's §3.2 deletion semantics — surviving areas keep their
        global indices when possible. Returns True iff the pinning had
        to be abandoned (a whole-frame renumbering happened).
        """
        pinned: Optional[Dict[int, int]] = None
        if keep_globals:
            pinned = {
                rid: g
                for rid, g in self._state.global_by_root.items()
                if rid in self.area_root_ids
            }
        frame_renumbered = False
        try:
            self._state = enumerate_ruid2(
                self.tree,
                self.area_root_ids,
                min_kappa=max(self._min_kappa, self.kappa),
                min_local_fanouts=self._sticky_local,
                fixed_globals=pinned,
            )
        except StickyGlobalConflict:
            frame_renumbered = True
            self._state = enumerate_ruid2(
                self.tree,
                self.area_root_ids,
                min_kappa=max(self._min_kappa, self.kappa),
                min_local_fanouts=self._sticky_local,
            )
        for root_id, used in self._state.local_fanout_used.items():
            previous = self._sticky_local.get(root_id, 0)
            self._sticky_local[root_id] = max(previous, used)
        # Forget areas that no longer exist (deleted subtrees).
        live = set(self._state.local_fanout_used)
        self._sticky_local = {
            rid: k for rid, k in self._sticky_local.items() if rid in live
        }
        self._invalidate_memos()
        return frame_renumbered

    # ------------------------------------------------------------------
    # Area-local update (§3.2)
    # ------------------------------------------------------------------
    def relabel_area(
        self,
        area_root: XmlNode,
        removed: Sequence[XmlNode] = (),
        promoted: Optional[XmlNode] = None,
    ) -> AreaRelabel:
        """Re-enumerate the one UID-local area an edit touched — the
        paper's §3.2 update, O(area size) rather than O(document).

        Call after the tree edit. *area_root* roots the area that
        received an insert or contained a deleted subtree. *removed*
        are the deleted nodes: their labels go, and every area they
        rooted leaves the frame, table K and the sticky fan-outs.
        *promoted* is a node of the area that an insert split off into
        an area of its own; it takes the lowest free child ordinal under
        *area_root*, as a pinned global enumeration would give it.

        Only this area's row of K (its fan-out, on overflow) and the
        local indices of its child-area roots change; every other area
        keeps its labels, global index and K row. When a promotion grows
        κ past what the pinned globals fit, the whole frame is
        renumbered through :meth:`reenumerate` instead.
        """
        state = self._state
        frame = state.frame
        label_by_node = state.label_by_node
        node_by_label = state.node_by_label
        for node in removed:
            del node_by_label[label_by_node.pop(node.node_id)]
        for root_id in frame.drop_nodes(removed):
            self._drop_area(root_id)
        touched = [area_root]
        if promoted is not None:
            self.area_root_ids.add(promoted.node_id)
            frame.area_root_ids.add(promoted.node_id)
            touched.append(promoted)
        for root in touched:  # after any promotion, so the upper walk stops at it
            frame.walk_area(root)
        if promoted is not None:
            try:
                self._place_area(area_root, promoted)
            except StickyGlobalConflict:
                return self._renumber_frame()

        # Fig. 3 lines 4-13 over the touched areas only.
        globals_by_root = state.global_by_root
        fresh: Dict[int, Ruid2Label] = {}
        overflow = False
        for root in touched:
            root_id = root.node_id
            area = frame.areas[root_id]
            committed = self._sticky_local.get(root_id)
            k_local = max(1, area.local_fan_out(), committed or 0)
            overflow |= committed is not None and k_local > committed
            self._sticky_local[root_id] = state.local_fanout_used[root_id] = k_local
            g = globals_by_root[root_id]
            locals_here = _area_locals(area, k_local)
            del locals_here[root_id]  # the root's label belongs to the upper area
            for node_id, local in locals_here.items():
                child_g = globals_by_root.get(node_id)
                if child_g is None:
                    fresh[node_id] = Ruid2Label(g, local, False)
                else:  # a child-area root, a leaf of this area
                    fresh[node_id] = Ruid2Label(child_g, local, True)

        moves: List[Tuple[int, Ruid2Label, Ruid2Label]] = []
        for node in _touched_preorder(frame, area_root, {r.node_id for r in touched}):
            node_id = node.node_id
            new = fresh[node_id]
            old = label_by_node.get(node_id)
            if old == new:
                continue
            if old is not None:
                moves.append((node_id, old, new))
                if node_by_label.get(old) is node:
                    del node_by_label[old]
            label_by_node[node_id] = new
            node_by_label[new] = node

        # K row of an area: (its global, its root's local index, its k).
        for root in touched:
            for row_root in (root, *frame.areas[root.node_id].child_area_roots):
                root_id = row_root.node_id
                row = KRow(
                    globals_by_root[root_id],
                    label_by_node[root_id].local_index,
                    self._sticky_local[root_id],
                )
                if not state.ktable.has_area(row.global_index):
                    state.ktable.add(row)
                elif state.ktable.row(row.global_index) != row:
                    state.ktable.replace(row)
        self._invalidate_memos()
        return AreaRelabel(moves, overflow, False)

    def _drop_area(self, root_id: int) -> None:
        """Forget a deleted area: its global, K row and sticky k."""
        state = self._state
        g = state.global_by_root.pop(root_id)
        del state.root_by_global[g]
        state.ktable.remove(g)
        del state.local_fanout_used[root_id]
        del self._sticky_local[root_id]
        self.area_root_ids.discard(root_id)

    def _place_area(self, upper: XmlNode, new_root: XmlNode) -> None:
        """Give a promoted area root the lowest free child ordinal under
        *upper*'s global. κ grows to the frame's new fan-out; raises
        :class:`StickyGlobalConflict` if the existing globals do not fit
        the grown κ."""
        state = self._state
        siblings = state.frame.frame_children[upper.node_id]
        kappa = max(state.kappa, len(siblings))
        if kappa != state.kappa and not self._globals_fit(kappa):
            raise StickyGlobalConflict("a promoted area grew kappa past the pinned globals")
        taken = {
            uid_math.child_ordinal(state.global_by_root[s.node_id], kappa)
            for s in siblings
            if s is not new_root
        }
        # a free ordinal exists: len(taken) < len(siblings) <= kappa
        ordinal = next(o for o in range(kappa) if o not in taken)
        g = uid_math.child(state.global_by_root[upper.node_id], kappa, ordinal)
        state.kappa = kappa
        state.global_by_root[new_root.node_id] = g
        state.root_by_global[g] = new_root

    def _globals_fit(self, kappa: int) -> bool:
        """Whether every placed area's global still hangs under its
        frame parent's global with fan-out *kappa*."""
        by_root = self._state.global_by_root
        for root_id, parent_id in self._state.frame.frame_parent.items():
            if parent_id is None or root_id not in by_root:
                continue
            if uid_math.parent(by_root[root_id], kappa) != by_root[parent_id]:
                return False
        return True

    def _renumber_frame(self) -> AreaRelabel:
        """The frame-conflict fallback: a full re-enumeration, diffed
        against the labels the aborted area relabel left untouched."""
        before = dict(self._state.label_by_node)
        committed = dict(self._sticky_local)
        frame_renumbered = self.reenumerate()
        after = self._state.label_by_node
        moves = []
        for node in self.tree.preorder():  # document order, as relabel_area reports
            old = before.get(node.node_id)
            if old is not None and old != after[node.node_id]:
                moves.append((node.node_id, old, after[node.node_id]))
        overflow = any(self._sticky_local.get(rid, 0) > k for rid, k in committed.items())
        return AreaRelabel(moves, overflow, frame_renumbered)

    def _invalidate_memos(self) -> None:
        self.generation += 1
        self._parent_memo.clear()

    def snapshot(self) -> Dict[int, Ruid2Label]:
        """node_id → label copy, for update-scope diffing."""
        return dict(self._state.label_by_node)

    def local_fan_out_of(self, area_root_id: int) -> int:
        """The committed (sticky) local fan-out of an area."""
        return self._sticky_local[area_root_id]

    def rebuild(self) -> None:
        """Re-partition from scratch and re-enumerate (a full reorg)."""
        self.area_root_ids = self.partitioner.partition(self.tree)
        self._sticky_local = {}
        self._state = enumerate_ruid2(
            self.tree, self.area_root_ids, min_kappa=self._min_kappa
        )
        self._sticky_local = dict(self._state.local_fanout_used)
        self._invalidate_memos()

    # ------------------------------------------------------------------
    # Global parameters (the in-memory state, §2.1)
    # ------------------------------------------------------------------
    @property
    def kappa(self) -> int:
        """The frame fan-out κ."""
        return self._state.kappa

    @property
    def ktable(self) -> KTable:
        """The global parameter table K."""
        return self._state.ktable

    @property
    def frame(self) -> Frame:
        return self._state.frame

    def area_count(self) -> int:
        return len(self._state.ktable)

    # ------------------------------------------------------------------
    # Label lookups
    # ------------------------------------------------------------------
    def label_of(self, node: XmlNode) -> Ruid2Label:
        try:
            return self._state.label_by_node[node.node_id]
        except KeyError:
            raise UnknownLabelError(f"node {node!r} is not labeled") from None

    def node_of(self, label: Ruid2Label) -> XmlNode:
        try:
            return self._state.node_by_label[label]
        except KeyError:
            raise UnknownLabelError(f"label {label} names no real node") from None

    def exists(self, label: Ruid2Label) -> bool:
        return label in self._state.node_by_label

    def labels(self) -> Iterator[Ruid2Label]:
        return iter(self._state.node_by_label)

    def items(self) -> Iterator[Tuple[XmlNode, Ruid2Label]]:
        """(node, label) pairs in document order."""
        for node in self.tree.preorder():
            yield node, self._state.label_by_node[node.node_id]

    def area_root_node(self, global_index: int) -> XmlNode:
        try:
            return self._state.root_by_global[global_index]
        except KeyError:
            raise UnknownLabelError(f"no area with global index {global_index}") from None

    def global_of_area_root(self, node: XmlNode) -> int:
        try:
            return self._state.global_by_root[node.node_id]
        except KeyError:
            raise UnknownLabelError(f"{node!r} is not an area root") from None

    # ------------------------------------------------------------------
    # rparent — the paper's Fig. 6 algorithm (pure κ/K arithmetic)
    # ------------------------------------------------------------------
    def rparent(self, label: Ruid2Label) -> Ruid2Label:
        """Identifier of the parent node, computed entirely from κ and
        table K (Lemma 1). Raises :class:`NoParentError` at the root.

        Memoised per enumeration generation: the result is a pure
        function of (label, κ, K), and the memo is cleared whenever a
        re-enumeration can change κ or K."""
        memo = self._parent_memo
        parent = memo.get(label)
        if parent is None:
            parent = rparent(label, self.kappa, self.ktable)
            memo[label] = parent
        return parent

    def rancestors(self, label: Ruid2Label) -> List[Ruid2Label]:
        """Proper ancestors bottom-up (repetition of rparent, §3.5)."""
        result: List[Ruid2Label] = []
        current = label
        while not current.is_document_root:
            current = self.rparent(current)
            result.append(current)
        return result

    def is_ancestor(self, candidate: Ruid2Label, label: Ruid2Label) -> bool:
        """True iff *candidate* is a proper ancestor of *label*;
        determined via parent-chain arithmetic (§3.3)."""
        current = label
        while not current.is_document_root:
            current = self.rparent(current)
            if current == candidate:
                return True
        return False

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def label_bits(self, label: Ruid2Label) -> int:
        return label.bits()

    def max_label_bits(self) -> int:
        return max(label.bits() for label in self.labels())

    def memory_bytes(self) -> int:
        """Size of the in-memory global parameters (κ + K)."""
        return 8 + self.ktable.memory_bytes()

    def __len__(self) -> int:
        return len(self._state.label_by_node)

    def __repr__(self) -> str:
        return (
            f"<Ruid2Labeling nodes={len(self)} areas={self.area_count()} "
            f"kappa={self.kappa}>"
        )


def _touched_preorder(frame: Frame, top: XmlNode, touched: Set[int]) -> Iterator[XmlNode]:
    """Members of the touched areas below *top* in document order: each
    area's members, descending into the touched areas it contains."""
    for node in frame.areas[top.node_id].nodes[1:]:
        yield node
        if node.node_id in touched:
            yield from _touched_preorder(frame, node, touched)


def rparent(label: Ruid2Label, kappa: int, ktable: KTable) -> Ruid2Label:
    """The stand-alone Fig. 6 algorithm.

    Exposed at module level so that callers holding only the global
    parameters — e.g. a query processor that loaded κ and K but not the
    document — can run it, which is precisely the deployment the paper
    argues for (§2.2, "without any disk I/O").
    """
    if label.is_document_root:
        raise NoParentError("the document root (1, 1, true) has no parent")
    if label.is_area_root:
        g = uid_math.parent(label.global_index, kappa)
    else:
        g = label.global_index
    k_j = ktable.fan_out(g)
    local = (label.local_index - 2) // k_j + 1
    if local == 1:
        return Ruid2Label(g, ktable.local_of_root(g), True)
    return Ruid2Label(g, local, False)
