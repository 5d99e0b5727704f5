"""The unified node-access protocol.

The paper's central claim (§3.2, Fig. 6) is that rUID identifiers plus
the in-memory table K let every axis be resolved by *label arithmetic
with at most one fetch per node*. :class:`NodeStore` is the interface
that makes the claim testable across deployments: it exposes exactly
the operations the read path needs — tag lookup, rank/interval access,
label → node-record fetch, parent computation — and nothing that ties
a consumer to a live DOM.

Four implementations cover the system's deployment shapes:

* :class:`~repro.store.memory.MemoryNodeStore` wraps a live tree plus
  its labeling and rank index (the all-in-RAM configuration every
  experiment before E17 ran on);
* :class:`~repro.store.paged.PagedNodeStore` reads shredded documents
  through the pager's buffer pool, so documents larger than RAM stay
  queryable and every fetch is visible as page traffic;
* :class:`~repro.concurrent.snapshot.StructuralView` is the frozen
  per-generation snapshot the concurrent access layer hands to
  readers;
* :class:`~repro.store.sqlite.SqliteNodeStore` shreds into a SQLite
  accel table (the XPath Accelerator encoding) — the restart-durable
  shape, with whole axis steps pushed down as SQL range predicates.

Every store charges a :class:`StoreStats` ledger. ``fetches`` counts
label → record dereferences — the quantity the paper bounds at one per
result node — and the paged store adds the buffer-pool traffic those
fetches caused, so ``EXPLAIN ANALYZE`` can print physical counters per
query (docs/STORAGE_QUERY.md).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.xmltree.node import NodeKind, XmlNode

Label = Hashable


class NodeRecord:
    """The stored facts about one node: what a single fetch returns.

    Deliberately smaller than :class:`~repro.xmltree.node.XmlNode` —
    no parent/children pointers, no mutable attribute dict — because a
    record is what crosses the storage boundary, not a DOM.
    """

    __slots__ = ("label", "tag", "kind", "text")

    def __init__(self, label: Label, tag: str, kind: NodeKind, text: Optional[str]):
        self.label = label
        self.tag = tag
        self.kind = kind
        self.text = text

    def __repr__(self) -> str:
        return f"<NodeRecord {self.kind.value} {self.tag!r} label={self.label!r}>"


class StoreStats:
    """Physical access counters for one store.

    Plain unlocked ints: these sit on per-dereference hot paths, and
    every store is either single-writer (memory, paged) or effectively
    read-only (snapshot), so the lost-update window of ``+=`` is not
    worth a lock here. Ledgers that *are* shared across racing writers
    (IoStats, QueryStats) stay locked.
    """

    __slots__ = (
        "fetches",
        "tag_lookups",
        "rank_probes",
        "parent_hops",
        "columnar_builds",
        "columnar_slices",
        "columnar_tag_scans",
        "sql_queries",
        "sql_rows",
        "pushdown_steps",
    )

    def __init__(self) -> None:
        self.fetches = 0
        self.tag_lookups = 0
        self.rank_probes = 0
        self.parent_hops = 0
        self.columnar_builds = 0
        self.columnar_slices = 0
        self.columnar_tag_scans = 0
        # SQL-backed stores only: statements issued, rows drained from
        # cursors, and whole axis steps answered by SQL pushdown
        self.sql_queries = 0
        self.sql_rows = 0
        self.pushdown_steps = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "fetches": self.fetches,
            "tag_lookups": self.tag_lookups,
            "rank_probes": self.rank_probes,
            "parent_hops": self.parent_hops,
            "columnar_builds": self.columnar_builds,
            "columnar_slices": self.columnar_slices,
            "columnar_tag_scans": self.columnar_tag_scans,
            "sql_queries": self.sql_queries,
            "sql_rows": self.sql_rows,
            "pushdown_steps": self.pushdown_steps,
        }

    def __repr__(self) -> str:
        return f"<StoreStats fetches={self.fetches} tag_lookups={self.tag_lookups}>"


class NodeStore:
    """Label-addressed access to one document generation.

    Labels are opaque hashables: scheme label objects for the memory
    store, flattened storage key tuples for the paged store, and
    ``node_id`` ints for the snapshot view. Consumers never look inside
    a label — structure comes from ranks, intervals and
    :meth:`parent_of`, exactly the operations the numbering scheme
    guarantees are computable.

    All sequence-returning methods yield labels in document (preorder
    rank) order, excluding attribute nodes unless stated otherwise.
    """

    #: human-readable implementation tag for plans and tables
    store_kind: str = "abstract"
    #: the numbering scheme the store was built from
    scheme_name: str = "unknown"
    #: True when the store serves rank columns from contiguous array
    #: buffers, so set-at-a-time evaluation over raw ranks is cheaper
    #: than per-node probing; wrappers that charge per call (the
    #: resilient store) leave this False to keep their call accounting
    supports_batched: bool = False
    #: an axis-pushdown helper (``step(pres, axis, test, has_doc)``)
    #: the StoreEvaluator consults before its Python paths, or None;
    #: only stores whose dialect can answer whole steps natively (the
    #: SQL store) provide one
    axis_pushdown = None
    #: True when the store's labels *are* preorder ranks (plain ints),
    #: letting dialect-translating wrappers map them by rank
    labels_are_ranks: bool = False

    #: slotted so that slotted implementations (StructuralView) stay
    #: slotted; dict-backed implementations simply don't declare
    #: __slots__ of their own
    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- identity -------------------------------------------------------
    @property
    def generation(self) -> int:
        """Labeling generation this store serves."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of labeled nodes (attributes included)."""
        raise NotImplementedError

    def root_label(self) -> Label:
        """Label of the document's root element."""
        raise NotImplementedError

    # -- rank / interval access -----------------------------------------
    def rank_of(self, label: Label) -> int:
        """Preorder rank of *label* (raises UnknownLabelError)."""
        raise NotImplementedError

    def end_of(self, label: Label) -> int:
        """Rank of the last node in *label*'s subtree."""
        raise NotImplementedError

    def label_at(self, rank: int) -> Label:
        """Label holding preorder rank *rank*."""
        raise NotImplementedError

    # -- structure -------------------------------------------------------
    def parent_of(self, label: Label) -> Optional[Label]:
        """Parent's label, or None at the root. Computed by scheme
        arithmetic (memory) or from the arithmetic persisted at shred
        time (paged/snapshot) — never by chasing live DOM pointers."""
        raise NotImplementedError

    def children_of(self, label: Label) -> List[Label]:
        """Structural (non-attribute) children, document order."""
        raise NotImplementedError

    # -- record fetch ----------------------------------------------------
    def record(self, label: Label) -> NodeRecord:
        """One fetch: the stored record for *label*."""
        raise NotImplementedError

    def node_for(self, label: Label) -> XmlNode:
        """An :class:`XmlNode` carrying *label*'s content — the live
        node where one exists, a lazily materialised record node
        otherwise. Counts as a fetch."""
        raise NotImplementedError

    def nodes_for(self, labels: Sequence[Label]) -> List[XmlNode]:
        """:meth:`node_for` over a label list, in order (one fetch
        each). Stores with a cheaper bulk dereference override this."""
        node_for = self.node_for
        return [node_for(label) for label in labels]

    def label_for(self, node: XmlNode) -> Label:
        """Reverse lookup (raises UnknownLabelError for nodes this
        store never produced, e.g. transient attribute nodes)."""
        raise NotImplementedError

    # -- candidate enumeration -------------------------------------------
    def labels_with_tag(self, tag: str) -> List[Label]:
        """Element labels with *tag*, document order."""
        raise NotImplementedError

    def element_labels(self) -> List[Label]:
        raise NotImplementedError

    def text_labels(self) -> List[Label]:
        raise NotImplementedError

    def comment_labels(self) -> List[Label]:
        raise NotImplementedError

    def structural_labels(self) -> List[Label]:
        """Every non-attribute label, document order."""
        raise NotImplementedError

    def has_tag(self, tag: str) -> bool:
        """Synopsis check: can *tag* match anywhere at all?"""
        return bool(self.labels_with_tag(tag))

    def can_match_attribute(self, name: str) -> bool:
        """Synopsis check for attribute names: False only when no
        attribute called *name* exists anywhere. The default always
        answers True, so a store without an attribute synopsis never
        prunes."""
        return True

    # -- values ----------------------------------------------------------
    def attributes_of(self, label: Label) -> Tuple[Tuple[str, str], ...]:
        """Sorted (name, value) attribute pairs of an element."""
        raise NotImplementedError

    def attribute_labels(self, label: Label) -> List[Label]:
        """Labels of *materialised* attribute children (empty when the
        document keeps attributes in dict form only)."""
        raise NotImplementedError

    def string_value(self, label: Label) -> str:
        """XPath string-value of the node at *label*."""
        raise NotImplementedError

    # -- evaluation support ----------------------------------------------
    def order_by_id(self) -> Dict[int, int]:
        """``node_id`` → preorder rank for every node this store has
        handed out; used by evaluators to sort result sets."""
        raise NotImplementedError

    def tag_ranks(self, tag: str) -> Sequence[int]:
        """Preorder ranks of the elements carrying *tag*, aligned with
        :meth:`labels_with_tag`. Columnar stores return a shared
        ``array('q')`` buffer; this default computes one."""
        return array("q", (self.rank_of(lb) for lb in self.labels_with_tag(tag)))

    def parent_rank_array(self) -> Optional[Sequence[int]]:
        """rank → parent rank (−1 at the root) as one flat buffer, or
        None when the store has no columnar backing — consumers fall
        back to per-node :meth:`parent_of` hops."""
        return None

    # -- shared derived operations ---------------------------------------
    def descendant_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        """Structural descendants via the rank interval. Implementations
        with a better plan (contiguous id slices, range scans) override."""
        low = self.rank_of(label) + (0 if or_self else 1)
        high = self.end_of(label)
        out: List[Label] = []
        for rank in range(low, high + 1):
            candidate = self.label_at(rank)
            if self.record(candidate).kind is not NodeKind.ATTRIBUTE:
                out.append(candidate)
        return out

    def structural_labels_between(self, low: int, high: int) -> List[Label]:
        """Structural (non-attribute) labels with preorder rank in the
        inclusive interval ``[low, high]``, document order. Stores with
        a rank column answer with one bisect + slice; this default
        probes rank by rank."""
        from repro.errors import UnknownLabelError

        out: List[Label] = []
        for rank in range(max(low, 0), high + 1):
            try:
                candidate = self.label_at(rank)
            except UnknownLabelError:
                break
            if self.record(candidate).kind is not NodeKind.ATTRIBUTE:
                out.append(candidate)
        return out

    def ancestor_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        """Ancestors root-first, by parent hops."""
        chain: List[Label] = [label] if or_self else []
        current = self.parent_of(label)
        while current is not None:
            chain.append(current)
            current = self.parent_of(current)
        chain.reverse()
        return chain

    def path_of(self, label: Label) -> str:
        """Slash-joined tag path root → node (matches
        :meth:`XmlNode.path` for live trees) — ancestry comes from
        parent arithmetic, so it works on stores with no DOM."""
        chain = self.ancestor_labels(label, or_self=True)
        return "/" + "/".join(self.record(entry).tag for entry in chain)

    def stats_snapshot(self) -> Dict[str, int]:
        """Counter snapshot; paged stores add buffer-pool traffic."""
        return self.stats.as_dict()

    def stats_delta(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Difference between now and an earlier :meth:`stats_snapshot`."""
        now = self.stats_snapshot()
        return {key: now[key] - earlier.get(key, 0) for key in now}

    def bind(self, registry: Any, prefix: str = "store") -> None:
        """Expose the physical counters as ``prefix.*`` pull metrics."""
        registry.register_source(prefix, self.stats_snapshot)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.scheme_name} "
            f"gen={self.generation} nodes={self.size()}>"
        )
