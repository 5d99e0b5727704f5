"""Structural summaries: DataGuide-style path summary and tag→area synopsis.

The paper's related work (§6) points at structural summaries
(DataGuides [4], representative objects) as the complementary indexing
device, and its §4 "database file/table selection" needs exactly such
a synopsis to route queries: *which UID-local areas can contain nodes
matching this tag/path at all?*

Two summaries are provided:

* :class:`PathSummary` — the strong DataGuide of a document: one node
  per distinct root-to-node tag path, annotated with occurrence counts;
* :class:`TagAreaSynopsis` — tag → sorted list of area global indices,
  the pre-filter behind §4 table routing, maintainable incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.ruid import Ruid2Labeling
from repro.xmltree.node import NodeKind, XmlNode
from repro.xmltree.tree import XmlTree


@dataclass
class PathSummaryNode:
    """One distinct tag path of the document."""

    tag: str
    count: int = 0
    children: Dict[str, "PathSummaryNode"] = field(default_factory=dict)

    def child(self, tag: str) -> Optional["PathSummaryNode"]:
        return self.children.get(tag)


class PathSummary:
    """The strong DataGuide: every distinct root-to-node tag path once.

    Built in one pass; answers "does path p occur?", "how many nodes
    match p?", and enumerates the paths matching a tag sequence with
    ``//`` gaps — the pre-filter a path-query optimiser wants before
    touching data.
    """

    def __init__(self, tree: XmlTree, elements_only: bool = True):
        self.root = PathSummaryNode(tree.root.tag)
        self._distinct = 1
        stack: List[Tuple[XmlNode, PathSummaryNode]] = [(tree.root, self.root)]
        self.root.count = 1
        while stack:
            node, summary = stack.pop()
            for child in node.children:
                if elements_only and child.kind is not NodeKind.ELEMENT:
                    continue
                entry = summary.children.get(child.tag)
                if entry is None:
                    entry = PathSummaryNode(child.tag)
                    summary.children[child.tag] = entry
                    self._distinct += 1
                entry.count += 1
                stack.append((child, entry))

    @property
    def distinct_paths(self) -> int:
        return self._distinct

    def lookup(self, path: Tuple[str, ...]) -> Optional[PathSummaryNode]:
        """The summary node for a root-anchored tag path, or None.

        ``path`` includes the root tag: ``("site", "people", "person")``.
        """
        if not path or path[0] != self.root.tag:
            return None
        node = self.root
        for tag in path[1:]:
            node = node.child(tag)
            if node is None:
                return None
        return node

    def count(self, path: Tuple[str, ...]) -> int:
        """Number of document nodes on the exact path (0 if absent)."""
        node = self.lookup(path)
        return node.count if node else 0

    def paths(self) -> Iterator[Tuple[str, ...]]:
        """All distinct paths, root first, preorder."""
        stack: List[Tuple[PathSummaryNode, Tuple[str, ...]]] = [
            (self.root, (self.root.tag,))
        ]
        while stack:
            node, path = stack.pop()
            yield path
            for tag in sorted(node.children, reverse=True):
                stack.append((node.children[tag], path + (tag,)))

    def paths_ending_with(self, tag: str) -> List[Tuple[str, ...]]:
        """Every distinct path whose last step is *tag* (the `//tag`
        pre-filter)."""
        return [path for path in self.paths() if path[-1] == tag]

    def __contains__(self, path: Tuple[str, ...]) -> bool:
        return self.lookup(path) is not None

    def __repr__(self) -> str:
        return f"<PathSummary paths={self._distinct}>"


class TagAreaSynopsis:
    """tag → sorted global indices of the areas containing that tag.

    This is the §4 routing pre-filter: a query on tag *t* opens only
    the per-area tables listed here. The synopsis is tiny (one sorted
    int list per distinct tag) and is refreshed from the labeling —
    call :meth:`refresh` after structural updates (area membership may
    have moved)."""

    def __init__(self, labeling: Ruid2Labeling, elements_only: bool = False):
        self.labeling = labeling
        self.elements_only = elements_only
        self._areas_by_tag: Dict[str, List[int]] = {}
        self.refresh()

    def refresh(self) -> None:
        areas: Dict[str, Set[int]] = {}
        for node, label in self.labeling.items():
            if self.elements_only and node.kind is not NodeKind.ELEMENT:
                continue
            areas.setdefault(node.tag, set()).add(label.global_index)
        self._areas_by_tag = {
            tag: sorted(globals_) for tag, globals_ in areas.items()
        }

    def areas_for(self, tag: str) -> List[int]:
        """Sorted area globals that may contain *tag* (empty if none)."""
        return self._areas_by_tag.get(tag, [])

    def areas_for_all(self, tags: Iterator[str]) -> List[int]:
        """Areas that may contain *every* tag (intersection)."""
        result: Optional[Set[int]] = None
        for tag in tags:
            current = set(self.areas_for(tag))
            result = current if result is None else (result & current)
            if not result:
                return []
        return sorted(result or [])

    def selectivity(self, tag: str) -> float:
        """Fraction of areas a routed lookup must open (0..1)."""
        total = self.labeling.area_count()
        if not total:
            return 0.0
        return len(self.areas_for(tag)) / total

    def memory_entries(self) -> int:
        """Total (tag, area) pairs stored."""
        return sum(len(v) for v in self._areas_by_tag.values())

    def __repr__(self) -> str:
        return (
            f"<TagAreaSynopsis tags={len(self._areas_by_tag)} "
            f"entries={self.memory_entries()}>"
        )
