"""Columnar structural index: flat integer arrays over one generation.

The rank index made ancestry an integer comparison, but its integers
still live in per-label dict entries. This module takes the next step
the ROADMAP's "succinct labels and array-backed stores" item calls
for: materialise the structure columns — subtree end, parent rank,
tag id, node kind — as contiguous ``array`` buffers indexed by
preorder rank, built in the same single DFS as
:class:`~repro.core.rankindex.RankIndex`.

With those buffers every hot structural question is array arithmetic:

* descendants of rank *r* are the slice ``(r, end[r]]`` of the
  structural rank column (one bisect, no per-node kind checks);
* children are the sibling chain ``r+1, end[r+1]+1, ...`` — no child
  lists are stored at all;
* parenthood is ``parent[r]`` — one indexed load;
* tag candidates are precomputed per-tag rank arrays, aligned with the
  label lists the evaluators consume.

The buffers are machine-word packed (``array('q')`` / ``array('i')`` /
``array('b')``), so a node's structure costs ~21 bytes instead of a
constellation of dict entries and tuples. Like the rank index, a
columnar index is stamped with the generation that produced it and is
discarded wholesale on structural updates.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.xmltree.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rankindex import RankIndex

#: kind codes stored in the ``kind`` column (one signed byte each)
KIND_ELEMENT = 0
KIND_TEXT = 1
KIND_COMMENT = 2
KIND_ATTRIBUTE = 3
KIND_PI = 4
KIND_DOCUMENT = 5

_KIND_CODE = {
    NodeKind.ELEMENT: KIND_ELEMENT,
    NodeKind.TEXT: KIND_TEXT,
    NodeKind.COMMENT: KIND_COMMENT,
    NodeKind.ATTRIBUTE: KIND_ATTRIBUTE,
    NodeKind.PROCESSING_INSTRUCTION: KIND_PI,
    NodeKind.DOCUMENT: KIND_DOCUMENT,
}

_CODE_BY_VALUE = {kind.value: code for kind, code in _KIND_CODE.items()}

#: ranks column sentinel: "no parent" / "not an element"
NO_RANK = -1


class ColumnarIndex:
    """Flat-array structure columns for one labeling generation.

    ``labels_by_rank[r]`` is the label at preorder rank ``r``; every
    other column is indexed by the same rank. Labels stay opaque — the
    arrays carry the structure, the label list carries the identities.
    """

    __slots__ = (
        "generation",
        "size",
        "labels_by_rank",
        "rank_by_label",
        "end",
        "parent",
        "kind",
        "tag_id",
        "tags",
        "tag_ranks",
        "structural",
        "element_ranks",
        "text_ranks",
        "comment_ranks",
        "_rank_index",
        "_empty_ranks",
    )

    def __init__(self, generation: int):
        self.generation = generation
        self.size = 0
        self.labels_by_rank: List[Hashable] = []
        self.rank_by_label: Dict[Hashable, int] = {}
        #: rank → last rank inside the subtree
        self.end = array("q")
        #: rank → parent rank (NO_RANK at the root)
        self.parent = array("q")
        #: rank → kind code (KIND_ELEMENT, ...)
        self.kind = array("b")
        #: rank → tag id for elements, NO_RANK otherwise
        self.tag_id = array("i")
        #: tag id → tag string
        self.tags: List[str] = []
        #: tag → rank array of its elements (document order)
        self.tag_ranks: Dict[str, array] = {}
        #: sorted ranks of every non-attribute node
        self.structural = array("q")
        self.element_ranks = array("q")
        self.text_ranks = array("q")
        self.comment_ranks = array("q")
        self._rank_index: Optional["RankIndex"] = None
        self._empty_ranks = array("q")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, labeling, generation: int) -> "ColumnarIndex":
        """One DFS over the labeled tree, filling every column.

        The traversal order is identical to
        :meth:`RankIndex.build <repro.core.rankindex.RankIndex.build>`,
        so ranks agree between the two indexes for the same generation.
        """
        index = cls(generation)
        label_of = labeling.label_of
        append = index._append_node
        counter = 0
        end = index.end
        # Stack entries: (node, parent_rank) to enter, (None, rank) to exit.
        stack: List[Tuple] = [(labeling.tree.root, NO_RANK)]
        while stack:
            node, info = stack.pop()
            if node is None:
                end[info] = counter - 1
                continue
            rank = counter
            counter += 1
            append(label_of(node), rank, info, node.kind, node.tag)
            stack.append((None, rank))
            for child in reversed(node.children):
                stack.append((child, rank))
        index.size = counter
        return index

    @classmethod
    def from_rank_rows(cls, rows: Iterable[Tuple], generation: int) -> "ColumnarIndex":
        """Build from persisted ``__ranks`` rows (rank order), as the
        paged store reads them back: ``(rank, label, end, parent_label,
        tag, kind_value, ...)``. Parents precede children in rank
        order, so parent labels always resolve during the single scan."""
        index = cls(generation)
        counter = 0
        rank_by_label = index.rank_by_label
        for row in rows:
            label = row[1]
            parent_label = row[3]
            parent_rank = NO_RANK if parent_label is None else rank_by_label[parent_label]
            kind_code = _CODE_BY_VALUE[row[5]]
            index._append_row(label, counter, parent_rank, kind_code, row[4])
            index.end.append(row[2])
            counter += 1
        index.size = counter
        return index

    def _append_node(self, label, rank: int, parent_rank: int, kind: NodeKind, tag: str) -> None:
        self._append_row(label, rank, parent_rank, _KIND_CODE[kind], tag)
        self.end.append(0)  # patched at subtree exit

    def _append_row(self, label, rank: int, parent_rank: int, kind_code: int, tag: str) -> None:
        self.labels_by_rank.append(label)
        self.rank_by_label[label] = rank
        self.parent.append(parent_rank)
        self.kind.append(kind_code)
        if kind_code == KIND_ELEMENT:
            bucket = self.tag_ranks.get(tag)
            if bucket is None:
                self.tag_ranks[tag] = bucket = array("q")
                self.tags.append(tag)
                tag_id = len(self.tags) - 1
            else:
                tag_id = self.tag_id[bucket[0]]
            bucket.append(rank)
            self.tag_id.append(tag_id)
            self.element_ranks.append(rank)
            self.structural.append(rank)
        else:
            self.tag_id.append(NO_RANK)
            if kind_code != KIND_ATTRIBUTE:
                self.structural.append(rank)
                if kind_code == KIND_TEXT:
                    self.text_ranks.append(rank)
                elif kind_code == KIND_COMMENT:
                    self.comment_ranks.append(rank)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def rank_of(self, label) -> int:
        """Preorder rank (raises KeyError for unknown labels)."""
        return self.rank_by_label[label]

    def label_at(self, rank: int):
        return self.labels_by_rank[rank]

    def tag_at(self, rank: int) -> Optional[str]:
        tid = self.tag_id[rank]
        return None if tid < 0 else self.tags[tid]

    def tag_rank_array(self, tag: str) -> array:
        """Ranks of the elements carrying *tag* (document order); an
        empty shared buffer for unknown tags."""
        return self.tag_ranks.get(tag, self._empty_ranks)

    def labels_for(self, ranks: Iterable[int]) -> List:
        by_rank = self.labels_by_rank
        return [by_rank[r] for r in ranks]

    # ------------------------------------------------------------------
    # Structure arithmetic
    # ------------------------------------------------------------------
    def children_ranks(self, rank: int, attributes: bool = False) -> List[int]:
        """Child ranks via the sibling chain ``r+1, end[r+1]+1, ...`` —
        pure array walks, no stored child lists."""
        end = self.end
        kind = self.kind
        wanted = KIND_ATTRIBUTE if attributes else None
        out: List[int] = []
        limit = end[rank]
        child = rank + 1
        while child <= limit:
            code = kind[child]
            if (code == KIND_ATTRIBUTE) == (wanted is not None):
                out.append(child)
            child = end[child] + 1
        return out

    def structural_slice_ranks(self, rank: int, or_self: bool = False) -> array:
        """Non-attribute ranks inside *rank*'s subtree interval."""
        structural = self.structural
        locate = bisect_left if or_self else bisect_right
        lo = locate(structural, rank)
        hi = bisect_right(structural, self.end[rank])
        return structural[lo:hi]

    def structural_slice(self, rank: int, or_self: bool = False) -> List:
        """Labels of the non-attribute subtree of *rank* (doc order)."""
        return self.labels_for(self.structural_slice_ranks(rank, or_self))

    def covers(self, upper_rank: int, lower_rank: int, self_or: bool = False) -> bool:
        if upper_rank == lower_rank:
            return self_or
        return upper_rank < lower_rank <= self.end[upper_rank]

    # ------------------------------------------------------------------
    # Interop / accounting
    # ------------------------------------------------------------------
    def as_rank_index(self) -> "RankIndex":
        """A :class:`RankIndex` sharing this generation's ranks — dict
        views over the same DFS, built once and cached."""
        from repro.core.rankindex import RankIndex

        index = self._rank_index
        if index is None:
            end = self.end
            rank_map: Dict[Hashable, int] = self.rank_by_label
            end_map = {
                label: end[rank] for label, rank in rank_map.items()
            }
            index = RankIndex(rank_map, end_map, self.generation)
            self._rank_index = index
        return index

    def buffer_bytes(self) -> int:
        """Bytes held by the packed structure buffers (labels and the
        rank dict are identity, not structure, and are excluded)."""
        total = 0
        for buffer in (
            self.end,
            self.parent,
            self.kind,
            self.tag_id,
            self.structural,
            self.element_ranks,
            self.text_ranks,
            self.comment_ranks,
        ):
            total += len(buffer) * buffer.itemsize
        for bucket in self.tag_ranks.values():
            total += len(bucket) * bucket.itemsize
        return total

    def bytes_per_node(self) -> float:
        return self.buffer_bytes() / self.size if self.size else 0.0

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"<ColumnarIndex nodes={self.size} tags={len(self.tags)} "
            f"generation={self.generation}>"
        )
