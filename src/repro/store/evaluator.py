"""XPath evaluation against any :class:`~repro.store.base.NodeStore`.

:class:`StoreEvaluator` plugs the store protocol under the shared
:class:`~repro.query.evaluator.BaseEvaluator` semantics: every axis is
answered from ranks, intervals, parent arithmetic and candidate lists
— the operations the protocol guarantees — and labels are dereferenced
to nodes only for node tests and results, which is exactly the
paper's one-fetch-per-node discipline made concrete.

Against a :class:`~repro.store.memory.MemoryNodeStore` this behaves
like the per-context scheme evaluator; against a
:class:`~repro.store.paged.PagedNodeStore` the same code runs queries
over a shredded document through the buffer pool, with no live DOM in
sight.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError, UnknownLabelError, UnsupportedFeatureError
from repro.query.ast import BinaryOp, FunctionCall, LocationPath, NodeTest, Step
from repro.query.evaluator import CHILD_SCAN_FACTOR, BaseEvaluator, node_test_matches
from repro.query.stats import QueryStats
from repro.store.base import Label, NodeStore
from repro.xmltree.node import NodeKind, XmlNode

#: boolean-valued functions: as a predicate they filter, never index
_BOOLEAN_FUNCTIONS = frozenset({"not", "true", "false", "contains", "starts-with"})


def _no_position(expr) -> bool:
    """True when *expr* calls neither ``position()`` nor ``last()``
    outside a nested location path (a nested path counts positions in
    its own contexts)."""
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return False
        return all(_no_position(arg) for arg in expr.arguments)
    if isinstance(expr, BinaryOp):
        return _no_position(expr.left) and _no_position(expr.right)
    return True


def position_free(predicate) -> bool:
    """True when *predicate* keeps the same candidates whatever their
    positions: a location path, a comparison, ``and``/``or`` or a
    boolean function, with no ``position()``/``last()`` outside a
    nested path. A number, or anything number-valued such as
    ``count(x)``, is a position test and is never position-free."""
    if isinstance(predicate, LocationPath):
        return True
    if isinstance(predicate, BinaryOp) or (
        isinstance(predicate, FunctionCall) and predicate.name in _BOOLEAN_FUNCTIONS
    ):
        return _no_position(predicate)
    return False


def fuse_descendant_steps(steps: Sequence[Step]) -> Sequence[Step]:
    """Rewrite each ``descendant-or-self::node()`` (no predicates)
    followed by ``child::T[p...]`` into ``descendant::T[p...]`` when
    every ``p`` is :func:`position_free` — the abbreviated ``//T`` as
    one descendant interval scan. Positions differ between the two
    forms (siblings versus all descendants), so positional predicates
    keep the literal steps. Returns *steps* itself when nothing fuses."""
    fused: Optional[List[Step]] = None
    index = 0
    count = len(steps)
    while index < count:
        step = steps[index]
        if (
            index + 1 < count
            and step.axis == "descendant-or-self"
            and step.test.node_type == "node"
            and not step.predicates
            and steps[index + 1].axis == "child"
            and all(position_free(p) for p in steps[index + 1].predicates)
        ):
            if fused is None:
                fused = list(steps[:index])
            child = steps[index + 1]
            fused.append(Step("descendant", child.test, child.predicates))
            index += 2
            continue
        if fused is not None:
            fused.append(step)
        index += 1
    return steps if fused is None else tuple(fused)


class StoreEvaluator(BaseEvaluator):
    """Axis steps from NodeStore primitives.

    Keeps no generation-spanning caches of its own beyond the candidate
    rank-array cache (keyed by the store's generation, cleared on
    mismatch): every structural question goes back to the store, which
    owns invalidation. One evaluator instance therefore stays correct
    across updates as long as the store does.

    Against a store with columnar backing (``supports_batched``),
    predicate-free child/descendant steps run **set-at-a-time** over
    raw rank arrays — per-tag candidate ranks against the whole context
    frontier with a running-max interval scan — instead of one
    axis call per context node. A child step whose candidates
    outnumber its frontier by more than ``CHILD_SCAN_FACTOR`` takes
    the per-node path instead (one context's children are cheaper to
    list than every candidate is to scan). Wrapper stores that charge
    per call (the resilient store) keep the per-node path and its
    accounting.

    ``//T[p...]`` runs as one ``descendant::T[p...]`` step when every
    predicate is position-free (:func:`fuse_descendant_steps`); the
    navigational oracle keeps the literal steps.
    """

    strategy_name = "store"
    route_name = "store"

    #: axes the batched set-at-a-time path implements; vertical
    #: upward axes stay per-node (ancestor chains are short)
    _BATCHED_AXES = frozenset({"child", "descendant", "descendant-or-self"})

    def __init__(
        self,
        store: NodeStore,
        stats: Optional[QueryStats] = None,
        batched: bool = True,
        pushdown: bool = True,
    ):
        # Deliberately no super().__init__: BaseEvaluator would bind a
        # live tree; everything it reads through self.tree is
        # overridden below.
        self.store = store
        self.tree = None  # any accidental live-tree access fails loudly
        self.stats = stats if stats is not None else QueryStats()
        self.tracer = None
        self.document_node = XmlNode("#document", NodeKind.DOCUMENT)
        #: False forces the per-node path (the pre-columnar behaviour,
        #: kept for before/after benchmarking)
        self.batched = batched
        #: False disables store-native axis pushdown (stores that have
        #: none ignore this); kept switchable so the differential and
        #: property suites can pin SQL answers against the Python paths
        self.pushdown = pushdown
        # two-level candidate cache: (store id, generation) -> node
        # test token -> (labels, ranks). The outer key makes eviction
        # generation-precise — the concurrent layer drops exactly a
        # reclaimed generation's arrays without touching live ones —
        # while a store relabeling in place still invalidates its own
        # stale bucket on first use of the new generation.
        self._candidate_cache: Dict[
            Tuple[int, int], Dict[Tuple, Tuple[List[Label], Sequence[int]]]
        ] = {}

    # -- BaseEvaluator hooks ------------------------------------------------
    def doc_order(self) -> Dict[int, int]:
        # The store's map, not a copy: a paged store grows it as nodes
        # materialise, and sort_nodes must see those entries.
        return self.store.order_by_id()

    def path_steps(self, path: LocationPath) -> Sequence[Step]:
        return fuse_descendant_steps(path.steps)

    def select(self, expr, context: Optional[XmlNode] = None) -> List[XmlNode]:
        if context is None:
            context = self.store.node_for(self.store.root_label())
        result = self._eval(expr, context, 1, 1)
        if not isinstance(result, list):
            raise QueryError(f"expression yields a {type(result).__name__}, not nodes")
        return result

    def evaluate(self, expr, context: Optional[XmlNode] = None):
        if context is None:
            context = self.store.node_for(self.store.root_label())
        return self._eval(expr, context, 1, 1)

    def string_value_of(self, node: XmlNode) -> str:
        try:
            label = self.store.label_for(node)
        except UnknownLabelError:
            # Transient attribute node synthesized by this evaluator:
            # its text was frozen at synthesis time.
            return node.text or ""
        return self.store.string_value(label)

    def _document_axis(self, axis: str) -> List[XmlNode]:
        store = self.store
        if axis == "child":
            return [store.node_for(store.root_label())]
        if axis == "descendant":
            return self._nodes(store.structural_labels())
        if axis == "descendant-or-self":
            return [self.document_node, *self._nodes(store.structural_labels())]
        if axis == "self":
            return [self.document_node]
        return []

    # -- label plumbing -----------------------------------------------------
    def _nodes(self, labels: List[Label]) -> List[XmlNode]:
        node_for = self.store.node_for
        return [node_for(label) for label in labels]

    # -- batched fast path --------------------------------------------------
    def _candidates(self, test: NodeTest) -> Optional[List]:
        """``[labels, ranks]`` that can satisfy *test* — parallel
        sequences in document-rank order, cached per (store,
        generation). Per-tag ranks come from the store's columns;
        per-kind ranks stay None until :meth:`_candidate_ranks` needs
        them, because only a rank-filtered step reads them."""
        store = self.store
        cache_key = (id(store), store.generation)
        bucket = self._candidate_cache.get(cache_key)
        if bucket is None:
            # a store that relabeled in place leaves a stale bucket
            # under its old generation: drop it so the cache stays
            # bounded at one generation per live store
            stale = [
                key
                for key in self._candidate_cache
                if key[0] == cache_key[0] and key[1] != cache_key[1]
            ]
            for key in stale:
                del self._candidate_cache[key]
            bucket = self._candidate_cache[cache_key] = {}
        node_type = test.node_type
        if node_type is None:
            token = ("tag", test.name)
        elif node_type in ("node", "text", "comment"):
            token = ("kind", node_type)
        else:
            return None
        cached = bucket.get(token)
        if cached is not None:
            self.stats.count("candidate_cache_hits")
            return cached
        self.stats.count("candidate_cache_misses")
        if node_type is None and test.name is not None:
            entry = [store.labels_with_tag(test.name), store.tag_ranks(test.name)]
        elif node_type is None:
            entry = [store.element_labels(), None]
        elif node_type == "node":
            entry = [store.structural_labels(), None]
        elif node_type == "text":
            entry = [store.text_labels(), None]
        else:
            entry = [store.comment_labels(), None]
        bucket[token] = entry
        return entry

    def _candidate_ranks(self, entry: List) -> Sequence[int]:
        ranks = entry[1]
        if ranks is None:
            rank_of = self.store.rank_of
            ranks = entry[1] = array("q", (rank_of(lb) for lb in entry[0]))
        return ranks

    def evict_generation(self, generation: int) -> int:
        """Drop every cached candidate array built for *generation*.

        Called by the concurrent layer when epoch reclamation retires a
        generation's view: the arrays hold label lists pinned to that
        view, and evicting them here is what lets the view's buffers
        actually be freed. Returns the number of buckets dropped."""
        doomed = [key for key in self._candidate_cache if key[1] == generation]
        for key in doomed:
            del self._candidate_cache[key]
        if doomed:
            self.stats.count("candidate_cache_evictions", len(doomed))
        return len(doomed)

    def _eval_step(self, nodes: List[XmlNode], step: Step) -> List[XmlNode]:
        pushdown = self.store.axis_pushdown
        if (
            self.pushdown
            and pushdown is not None
            and not step.predicates
            and step.axis in pushdown.AXES
        ):
            result = self._eval_step_pushdown(nodes, step, pushdown)
            if result is not None:
                self.stats.count("pushdown_steps")
                if self.deadline is not None:
                    self.deadline.tick(len(result))
                return result
        if (
            self.batched
            and self.store.supports_batched
            and not step.predicates
            and step.axis in self._BATCHED_AXES
        ):
            result = self._eval_step_batched(nodes, step)
            if result is not None:
                self.stats.count("batched_steps")
                if self.deadline is not None:
                    # one weighted cancellation point per batched step
                    self.deadline.tick(len(result))
                return result
        self.stats.count("fallback_steps")
        return super()._eval_step(nodes, step)

    def _eval_step_pushdown(
        self, nodes: List[XmlNode], step: Step, pushdown
    ) -> Optional[List[XmlNode]]:
        """Whole step answered by the store's native engine (one SQL
        range predicate per axis); None means fall back — unlabelable
        context or a test the pushdown dialect cannot express."""
        store = self.store
        has_doc = False
        labels: List[Label] = []
        label_for = store.label_for
        try:
            for node in nodes:
                if node is self.document_node:
                    has_doc = True
                else:
                    labels.append(label_for(node))
        except UnknownLabelError:
            return None  # transient attribute context
        found = pushdown.step(labels, step.axis, step.test, has_doc)
        if found is None:
            return None
        out: List[XmlNode] = []
        if (
            has_doc
            and step.axis == "descendant-or-self"
            and node_test_matches(self.document_node, step.test, step.axis)
        ):
            out.append(self.document_node)
        out.extend(self._nodes(found))
        return out

    def _eval_step_batched(
        self, nodes: List[XmlNode], step: Step
    ) -> Optional[List[XmlNode]]:
        """Set-at-a-time step over raw rank arrays; None means fall
        back to the per-node path (unlabelable context, inexpressible
        test, missing parent column, or a child step whose candidates
        outnumber its frontier past the crossover)."""
        store = self.store
        has_doc = False
        labels: List[Label] = []
        label_for = store.label_for
        try:
            for node in nodes:
                if node is self.document_node:
                    has_doc = True
                else:
                    labels.append(label_for(node))
        except UnknownLabelError:
            return None  # transient attribute context
        entry = self._candidates(step.test)
        if entry is None:
            return None
        candidates = entry[0]
        axis = step.axis

        if axis == "child":
            context = set(labels)
            frontier = len(context) + (1 if has_doc else 0)
            if not frontier:
                return []
            if len(candidates) > CHILD_SCAN_FACTOR * frontier:
                return None  # candidate scan dearer than per-node children
            parent_ranks = store.parent_rank_array()
            if parent_ranks is None:
                return None
            context_ranks = {store.rank_of(lb) for lb in context}
            kept: List[Label] = []
            for position, cand_rank in enumerate(self._candidate_ranks(entry)):
                parent_rank = parent_ranks[cand_rank]
                if parent_rank < 0:
                    if has_doc:  # the root element, child of the doc node
                        kept.append(candidates[position])
                elif parent_rank in context_ranks:
                    kept.append(candidates[position])
            return self._nodes(kept)

        # descendant / descendant-or-self
        or_self = axis == "descendant-or-self"
        if has_doc:
            out: List[XmlNode] = []
            if or_self and node_test_matches(self.document_node, step.test, axis):
                out.append(self.document_node)
            out.extend(self._nodes(candidates))
            return out
        if not labels:
            return []
        # Contexts sorted by rank with a running max of subtree ends:
        # candidate x descends from some context iff the best end among
        # contexts at/before x's rank reaches x.
        rank_of = store.rank_of
        end_of = store.end_of
        spans = sorted((rank_of(lb), end_of(lb)) for lb in set(labels))
        span_ranks = [r for r, _ in spans]
        prefix_max: List[int] = []
        best = -1
        for _, subtree_end in spans:
            if subtree_end > best:
                best = subtree_end
            prefix_max.append(best)
        locate = bisect_right if or_self else bisect_left
        kept = []
        for position, cand_rank in enumerate(self._candidate_ranks(entry)):
            j = locate(span_ranks, cand_rank) - 1
            if j >= 0 and prefix_max[j] >= cand_rank:
                kept.append(candidates[position])
        return self._nodes(kept)

    # -- axes ---------------------------------------------------------------
    def axis_nodes(self, node: XmlNode, axis: str) -> List[XmlNode]:
        store = self.store
        if axis == "attribute":
            return self._attribute_nodes(node)
        try:
            label = store.label_for(node)
        except UnknownLabelError:
            return self._transient_axis(node, axis)
        if axis == "self":
            return [node]
        if axis == "parent":
            parent = store.parent_of(label)
            return [store.node_for(parent)] if parent is not None else []
        if axis in ("ancestor", "ancestor-or-self"):
            return self._nodes(
                store.ancestor_labels(label, or_self=axis == "ancestor-or-self")
            )
        if axis == "child":
            return self._nodes(store.children_of(label))
        if axis in ("descendant", "descendant-or-self"):
            return self._nodes(
                store.descendant_labels(label, or_self=axis == "descendant-or-self")
            )
        if axis in ("following-sibling", "preceding-sibling"):
            parent = store.parent_of(label)
            if parent is None:
                return []
            siblings = store.children_of(parent)
            position = siblings.index(label)
            if axis == "following-sibling":
                return self._nodes(siblings[position + 1 :])
            return self._nodes(siblings[:position])
        if axis == "following":
            # Everything ranked after this subtree's interval.
            end = store.end_of(label)
            return self._nodes(
                [
                    candidate
                    for candidate in store.structural_labels()
                    if store.rank_of(candidate) > end
                ]
            )
        if axis == "preceding":
            rank = store.rank_of(label)
            ancestors = set(store.ancestor_labels(label))
            return self._nodes(
                [
                    candidate
                    for candidate in store.structural_labels()
                    if store.rank_of(candidate) < rank and candidate not in ancestors
                ]
            )
        raise UnsupportedFeatureError(f"unsupported axis {axis!r}")

    def _transient_axis(self, node: XmlNode, axis: str) -> List[XmlNode]:
        """Axes from a synthesized attribute node (outside the store)."""
        if axis == "self":
            return [node]
        parent = node.parent
        if parent is None:
            return []
        if axis == "parent":
            return [parent]
        if axis in ("ancestor", "ancestor-or-self"):
            chain = self.axis_nodes(parent, "ancestor-or-self")
            if axis == "ancestor-or-self":
                chain = [*chain, node]
            return chain
        return []

    def _attribute_nodes(self, node: XmlNode) -> List[XmlNode]:
        try:
            label = self.store.label_for(node)
        except UnknownLabelError:
            return []
        materialised = self.store.attribute_labels(label)
        if materialised:
            return self._nodes(materialised)
        created: List[XmlNode] = []
        for name, value in self.store.attributes_of(label):
            attr = XmlNode(name, NodeKind.ATTRIBUTE, text=value)
            attr.parent = node  # navigable but not inserted as a child
            created.append(attr)
        return created
