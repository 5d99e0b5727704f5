"""Frames and UID-local areas (paper Definitions 1 and 2).

Given a tree ``T`` and a set of *area-root* nodes (always containing
the root of ``T``):

* the **frame** ``F`` is the tree over the area roots where the parent
  of an area root is its nearest proper ancestor that is also an area
  root (Definition 1);
* the **UID-local area** of an area root ``n`` is the induced subtree
  rooted at ``n`` whose downward paths stop at the first area root
  encountered (those boundary roots are *leaves* of the area) or at a
  leaf of ``T`` (Definition 2).

Two areas intersect only at a shared boundary node, which is the root
of the lower area — exactly the covering property the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import PartitionError
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree


@dataclass
class Area:
    """One UID-local area.

    Attributes
    ----------
    root:
        The area-root node.
    nodes:
        All nodes of the area in document order, including ``root`` and
        including the roots of child areas (as leaves of this area).
    child_area_roots:
        Roots of the areas directly below this one, in document order.
    """

    root: XmlNode
    nodes: List[XmlNode] = field(default_factory=list)
    child_area_roots: List[XmlNode] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def local_fan_out(self) -> int:
        """Maximal fan-out used when enumerating this area.

        Children of the area's *leaf* nodes (child-area roots and tree
        leaves) belong to lower areas and do not count.
        """
        boundary = {n.node_id for n in self.child_area_roots}
        best = 0
        for node in self.nodes:
            if node.node_id in boundary and node is not self.root:
                continue  # leaf of this area; its children are elsewhere
            if node.fan_out > best:
                best = node.fan_out
        return best

    def __repr__(self) -> str:
        return f"<Area root={self.root.tag!r} size={self.size} children={len(self.child_area_roots)}>"


class Frame:
    """The frame ``F`` over a set of area roots, plus the area map.

    Construction validates Definition 1/2: the tree root must be an
    area root and every area root must belong to the tree.
    """

    def __init__(self, tree: XmlTree, area_root_ids: Set[int]):
        self.tree = tree
        if tree.root.node_id not in area_root_ids:
            raise PartitionError("the tree root must be an area root")
        self.area_root_ids = set(area_root_ids)
        #: area-root node_id -> Area
        self.areas: Dict[int, Area] = {}
        #: area-root node_id -> parent area-root node_id (frame edge)
        self.frame_parent: Dict[int, Optional[int]] = {}
        #: area-root node_id -> list of child area-root nodes, doc order
        self.frame_children: Dict[int, List[XmlNode]] = {}
        #: any node_id -> node_id of the root of the area that *contains*
        #: it as an interior/leaf node. For an area root this is the
        #: *upper* area (the tree root maps to itself).
        self.containing_area: Dict[int, int] = {}
        self._node_by_id: Dict[int, XmlNode] = {}
        self._build()

    def _build(self) -> None:
        root = self.tree.root
        self._node_by_id[root.node_id] = root
        self.frame_parent[root.node_id] = None
        self.containing_area[root.node_id] = root.node_id
        # One walk per area; together they visit every node once.
        pending = [root]
        while pending:
            pending.extend(self.walk_area(pending.pop()).child_area_roots)
        missing = self.area_root_ids - self.areas.keys()
        if missing:
            raise PartitionError(f"area roots not in tree: {sorted(missing)}")

    def walk_area(self, root: XmlNode) -> Area:
        """(Re)derive the area rooted at *root* from the tree: its
        members in document order, its child-area roots (the frame
        children of *root*) and the containing-area entry of every
        member. Costs O(area size); an update re-walks only the area
        it touched."""
        root_id = root.node_id
        area = Area(root=root, nodes=[root])
        self.areas[root_id] = area
        self.frame_children[root_id] = area.child_area_roots
        roots = self.area_root_ids
        stack = list(reversed(root.children))
        while stack:
            node = stack.pop()
            node_id = node.node_id
            self._node_by_id[node_id] = node
            area.nodes.append(node)
            self.containing_area[node_id] = root_id
            if node_id in roots:
                # Boundary: leaf of this area, root of a lower one.
                area.child_area_roots.append(node)
                self.frame_parent[node_id] = root_id
            else:
                stack.extend(reversed(node.children))
        return area

    # ------------------------------------------------------------------
    # In-place maintenance under structural updates (§3.2)
    # ------------------------------------------------------------------
    def drop_nodes(self, nodes: Iterable[XmlNode]) -> List[int]:
        """Forget the nodes of a deleted subtree and return the ids of
        the area roots among them, whose areas leave the frame. The
        area that contained the subtree must be re-walked afterwards."""
        dropped: List[int] = []
        for node in nodes:
            node_id = node.node_id
            del self.containing_area[node_id]
            del self._node_by_id[node_id]
            if node_id in self.area_root_ids:
                self.area_root_ids.discard(node_id)
                del self.areas[node_id]
                del self.frame_parent[node_id]
                del self.frame_children[node_id]
                dropped.append(node_id)
        return dropped

    # ------------------------------------------------------------------
    # Frame-as-a-tree accessors
    # ------------------------------------------------------------------
    @property
    def root_area(self) -> Area:
        return self.areas[self.tree.root.node_id]

    def area_of_root(self, node: XmlNode) -> Area:
        """The area rooted at *node* (node must be an area root)."""
        try:
            return self.areas[node.node_id]
        except KeyError:
            raise PartitionError(f"{node!r} is not an area root") from None

    def area_containing(self, node: XmlNode) -> Area:
        """The area that contains *node* as an interior or leaf node.

        For an area root (other than the tree root) this is the *upper*
        area; use :meth:`area_of_root` for the area it roots.
        """
        return self.areas[self.containing_area[node.node_id]]

    def is_area_root(self, node: XmlNode) -> bool:
        return node.node_id in self.area_root_ids

    def max_fan_out(self) -> int:
        """κ before any minimum is applied: the frame's maximal fan-out."""
        return max(
            (len(children) for children in self.frame_children.values()), default=0
        )

    def frame_preorder(self) -> Iterator[XmlNode]:
        """Area roots in frame document order (which equals their
        document order in ``T``)."""
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.frame_children[node.node_id]))

    def frame_levelorder(self) -> Iterator[XmlNode]:
        """Area roots level by level in the frame — the UID visit order
        for global enumeration."""
        frontier = [self.tree.root]
        while frontier:
            next_frontier: List[XmlNode] = []
            for node in frontier:
                yield node
                next_frontier.extend(self.frame_children[node.node_id])
            frontier = next_frontier

    def area_count(self) -> int:
        return len(self.areas)

    def node(self, node_id: int) -> XmlNode:
        return self._node_by_id[node_id]

    def validate(self) -> None:
        """Check the covering property: every tree node is in exactly
        one area as interior, plus area roots appearing as a leaf of
        the upper area; intersections are single frame nodes."""
        seen: Dict[int, int] = {}
        for area in self.areas.values():
            for node in area.nodes:
                seen[node.node_id] = seen.get(node.node_id, 0) + 1
        for node in self.tree.preorder():
            count = seen.get(node.node_id, 0)
            expected = 2 if (
                node.node_id in self.area_root_ids and node is not self.tree.root
            ) else 1
            if count != expected:
                raise PartitionError(
                    f"node {node.tag!r} appears in {count} areas, expected {expected}"
                )

    def __repr__(self) -> str:
        return f"<Frame areas={self.area_count()} kappa={self.max_fan_out()}>"
