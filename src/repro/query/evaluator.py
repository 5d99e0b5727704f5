"""XPath-subset evaluation.

Two interchangeable strategies implement the axis step — the
experiment E8 comparison:

* :class:`NavigationalEvaluator` walks the DOM tree pointer by pointer
  (the baseline any DOM implementation provides);
* :class:`SchemeEvaluator` generates axes from rUID identifiers via
  :class:`~repro.core.axes.AxisEngine` — the paper's §3.5 routines —
  and only dereferences labels to nodes for node tests and results.

Semantics follow XPath 1.0 for the supported core: node-sets are kept
in document order, predicates are evaluated with axis-order positions
(reverse axes count backwards), numeric predicates are position tests,
and comparisons use the existential node-set semantics.

The scheme evaluator additionally implements the query fast path:

* predicate-free steps over the main structural axes are evaluated
  **set-at-a-time** — candidates come from per-tag label lists in
  document-rank order and are filtered against the whole context
  frontier at once (memoised parents for ``child``, rank-interval
  containment for ``descendant``), so no per-step resort is needed;
* a **tag synopsis** short-circuits steps whose node test cannot match
  anywhere in the document;
* per-(node, axis) results are memoised for the per-context fallback
  path.

All caches are stamped with the labeling's generation and rebuilt when
a structural update advances it; cache traffic is counted in a
:class:`~repro.query.stats.QueryStats` ledger.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.scheme import Ruid2SchemeLabeling
from repro.errors import QueryError, UnknownLabelError, UnsupportedFeatureError
from repro.query.ast import (
    BinaryOp,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTest,
    Number,
    Step,
    Union_,
)
from repro.query.stats import QueryStats
from repro.query.synopsis import TagStatistics
from repro.xmltree.node import NodeKind, XmlNode
from repro.xmltree.tree import XmlTree

Value = Union[List[XmlNode], str, float, bool]

_REVERSE_AXES = frozenset({"ancestor", "ancestor-or-self", "preceding", "preceding-sibling", "parent"})

#: a batched child step scans every candidate with a matching test;
#: when the frontier is much smaller than that candidate list
#: (single-context predicate evaluation, typically) the per-node path
#: is cheaper — this factor picks the crossover for every evaluator
#: with a batched child step
CHILD_SCAN_FACTOR = 16


def string_value(node: XmlNode) -> str:
    """XPath string-value of a node."""
    if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT):
        return node.text or ""
    return node.text_content()


def node_test_matches(node: XmlNode, test: NodeTest, axis: str) -> bool:
    """Apply a node test, honouring the axis' principal node kind."""
    if node.kind is NodeKind.DOCUMENT:
        return test.node_type == "node"
    if test.node_type == "node":
        return True
    if test.node_type == "text":
        return node.kind is NodeKind.TEXT
    if test.node_type == "comment":
        return node.kind is NodeKind.COMMENT
    principal = NodeKind.ATTRIBUTE if axis == "attribute" else NodeKind.ELEMENT
    if node.kind is not principal:
        return False
    return test.name is None or node.tag == test.name


class BaseEvaluator:
    """Shared expression semantics; subclasses supply the axis step."""

    #: cooperative-cancellation budget for the running query; a class
    #: attribute (not set in __init__) because StoreEvaluator
    #: deliberately skips super().__init__
    deadline = None

    def __init__(self, tree: XmlTree, stats: Optional[QueryStats] = None):
        self.tree = tree
        self.stats = stats if stats is not None else QueryStats()
        #: optional trace recorder (``None`` keeps the step loop free of
        #: any span machinery; a :class:`~repro.obs.trace.NullTracer`
        #: keeps the machinery but makes every span a no-op)
        self.tracer = None
        self._doc_order: Optional[Dict[int, int]] = None
        #: the virtual document node above the root element; absolute
        #: paths start here so that ``/site`` and ``//site`` can match
        #: the root element itself
        self.document_node = XmlNode("#document", NodeKind.DOCUMENT)

    # -- ordering ---------------------------------------------------------
    def doc_order(self) -> Dict[int, int]:
        if self._doc_order is None:
            self._doc_order = self.tree.document_order_index()
        return self._doc_order

    def sort_nodes(self, nodes: Sequence[XmlNode]) -> List[XmlNode]:
        """Sort into document order, deduplicating by node identity.

        Every node gets an explicit, stable rank: the document node
        sorts before the root element; nodes outside the index
        (transient attribute nodes) sort directly after their parent
        element, keyed by name — never interleaved with indexed nodes
        at an arbitrary position.
        """
        order = self.doc_order()
        unique = {node.node_id: node for node in nodes}
        after_all = len(order)

        def key(node: XmlNode) -> Tuple[int, int, str]:
            rank = order.get(node.node_id)
            if rank is not None:
                return (rank, 0, "")
            if node.kind is NodeKind.DOCUMENT:
                return (-1, 0, "")
            parent = node.parent
            if parent is not None:
                parent_rank = order.get(parent.node_id, after_all)
            else:
                parent_rank = after_all
            return (parent_rank, 1, node.tag or "")

        return sorted(unique.values(), key=key)

    # -- deadline plumbing -------------------------------------------------
    def set_deadline(self, deadline) -> None:
        """Attach (or clear, with None) the query's cancellation budget,
        forwarding it to the evaluator's store so label probes become
        cancellation points too. Slotted stores that cannot carry a
        deadline attribute simply don't participate."""
        self.deadline = deadline
        store = getattr(self, "store", None)
        if store is not None:
            try:
                store.deadline = deadline
            except AttributeError:
                pass

    # -- axis step (strategy hook) -----------------------------------------
    def axis_nodes(self, node: XmlNode, axis: str) -> List[XmlNode]:
        """Nodes on *axis* from *node*, in document order."""
        raise NotImplementedError

    # -- string-value (strategy hook) ---------------------------------------
    def string_value_of(self, node: XmlNode) -> str:
        """XPath string-value of *node*.

        The default walks the live tree (:func:`string_value`); snapshot
        evaluators override it to read values frozen at snapshot-build
        time so comparisons never race a concurrent writer.
        """
        return string_value(node)

    # -- entry point --------------------------------------------------------
    def select(self, expr: Expr, context: Optional[XmlNode] = None) -> List[XmlNode]:
        """Evaluate *expr* to a node-set (document order)."""
        context = context if context is not None else self.tree.root
        result = self._eval(expr, context, 1, 1)
        if not isinstance(result, list):
            raise QueryError(f"expression yields a {type(result).__name__}, not nodes")
        return result

    def evaluate(self, expr: Expr, context: Optional[XmlNode] = None) -> Value:
        """Evaluate *expr* to whatever it denotes (node-set or scalar)."""
        context = context if context is not None else self.tree.root
        return self._eval(expr, context, 1, 1)

    # -- recursive evaluation -------------------------------------------------
    def _eval(self, expr: Expr, node: XmlNode, position: int, size: int) -> Value:
        if isinstance(expr, LocationPath):
            return self._eval_path(expr, node)
        if isinstance(expr, Union_):
            combined: List[XmlNode] = []
            for path in expr.paths:
                combined.extend(self._eval_path(path, node))
            return self.sort_nodes(combined)
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, node, position, size)
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, node, position, size)
        raise QueryError(f"cannot evaluate {expr!r}")

    def path_steps(self, path: LocationPath) -> Sequence[Step]:
        """The steps this evaluator runs for *path* — the literal
        steps here; an evaluator may rewrite them into an equivalent,
        cheaper sequence. EXPLAIN reads the same hook, so its rows
        describe the steps that actually run."""
        return path.steps

    def _eval_path(self, path: LocationPath, context: XmlNode) -> List[XmlNode]:
        current = [self.document_node] if path.absolute else [context]
        steps = self.path_steps(path)
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            # The zero-instrumentation hot path: no span machinery, no
            # attribute stringification. A disabled (null) tracer lands
            # here too, so "tracing off" costs one extra branch.
            for step in steps:
                current = self._eval_step(current, step)
            return current
        parent = tracer.current
        if parent is not None and parent.name == "evaluator.step":
            # Predicate sub-path: evaluated once per context node, so
            # spanning it would dominate the cost being measured. It
            # runs untraced under its step's span (docs/OBSERVABILITY.md);
            # detaching the tracer makes the whole subtree take the
            # zero-instrumentation branch.
            self.tracer = None
            try:
                for step in steps:
                    current = self._eval_step(current, step)
                return current
            finally:
                self.tracer = tracer
        # Step spans carry only what ANALYZE folds back onto the plan
        # (index, cardinalities, route); the static plan already knows
        # each step's test and predicate count. The path attribute
        # stays a raw AST node — exporters stringify it lazily.
        with tracer.span("evaluator.path", path=path):
            for index, step in enumerate(steps):
                with tracer.span(
                    "evaluator.step",
                    index=index,
                    axis=step.axis,
                    in_count=len(current),
                ) as span:
                    current = self._eval_step(current, step)
                    span.set(out_count=len(current))
        return current

    #: route label ANALYZE reports for this evaluator's steps
    route_name = "navigational"

    def plan_route(self, step: Step) -> Tuple[str, Optional[int]]:
        """(route, candidate estimate) EXPLAIN predicts for *step*.

        The base evaluator has one route and no synopsis, so no
        estimate; the scheme evaluator overrides this with its actual
        dispatch decision."""
        return self.route_name, None

    def _document_axis(self, axis: str) -> List[XmlNode]:
        """Axes evaluated at the virtual document node."""
        everything = [
            self.tree.root,
            *(
                d
                for d in self.tree.root.descendants()
                if d.kind is not NodeKind.ATTRIBUTE
            ),
        ]
        if axis == "child":
            return [self.tree.root]
        if axis == "descendant":
            return everything
        if axis == "descendant-or-self":
            return [self.document_node, *everything]
        if axis == "self":
            return [self.document_node]
        return []

    def _eval_step(self, nodes: List[XmlNode], step: Step) -> List[XmlNode]:
        gathered: List[XmlNode] = []
        deadline = self.deadline
        for node in nodes:
            if node is self.document_node:
                axis_result = self._document_axis(step.axis)
            else:
                axis_result = self.axis_nodes(node, step.axis)
            if deadline is not None:
                deadline.tick(len(axis_result))
            candidates = [
                candidate
                for candidate in axis_result
                if node_test_matches(candidate, step.test, step.axis)
            ]
            if step.axis in _REVERSE_AXES:
                candidates.reverse()  # predicate positions count backwards
            for predicate in step.predicates:
                candidates = self._filter(candidates, predicate)
            gathered.extend(candidates)
        return self.sort_nodes(gathered)

    def _filter(self, candidates: List[XmlNode], predicate: Expr) -> List[XmlNode]:
        kept: List[XmlNode] = []
        size = len(candidates)
        deadline = self.deadline
        for position, candidate in enumerate(candidates, start=1):
            if deadline is not None:
                deadline.tick()
            value = self._eval(predicate, candidate, position, size)
            if isinstance(value, float):
                keep = position == int(value)
            else:
                keep = _truth(value)
            if keep:
                kept.append(candidate)
        return kept

    # -- operators ----------------------------------------------------------
    def _eval_binary(
        self, expr: BinaryOp, node: XmlNode, position: int, size: int
    ) -> bool:
        if expr.op == "and":
            return _truth(self._eval(expr.left, node, position, size)) and _truth(
                self._eval(expr.right, node, position, size)
            )
        if expr.op == "or":
            return _truth(self._eval(expr.left, node, position, size)) or _truth(
                self._eval(expr.right, node, position, size)
            )
        left = self._eval(expr.left, node, position, size)
        right = self._eval(expr.right, node, position, size)
        return _compare(expr.op, left, right, sv=self.string_value_of)

    def _eval_function(
        self, call: FunctionCall, node: XmlNode, position: int, size: int
    ) -> Value:
        name = call.name
        args = [self._eval(arg, node, position, size) for arg in call.arguments]
        if name == "position":
            return float(position)
        if name == "last":
            return float(size)
        if name == "count":
            _require_nodeset(name, args, 0)
            return float(len(args[0]))
        if name == "not":
            return not _truth(args[0])
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "name":
            if args:
                _require_nodeset(name, args, 0)
                return args[0][0].tag if args[0] else ""
            return node.tag
        sv = self.string_value_of
        if name == "contains":
            return _string(args[0], sv=sv).find(_string(args[1], sv=sv)) >= 0
        if name == "starts-with":
            return _string(args[0], sv=sv).startswith(_string(args[1], sv=sv))
        if name == "string-length":
            return float(len(_string(args[0], sv=sv) if args else sv(node)))
        if name == "string":
            return _string(args[0], sv=sv) if args else sv(node)
        if name == "number":
            return _number(args[0], sv=sv) if args else _number(sv(node))
        raise UnsupportedFeatureError(f"unsupported function {name}()")


def _require_nodeset(name: str, args: List[Value], index: int) -> None:
    if not isinstance(args[index], list):
        raise QueryError(f"{name}() expects a node-set argument")


def _truth(value: Value) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, float):
        return value != 0.0
    if isinstance(value, str):
        return bool(value)
    return bool(value)


def _string(value: Value, sv=string_value) -> str:
    if isinstance(value, list):
        return sv(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return str(int(value)) if value == int(value) else str(value)
    return value


def _number(value: Value, sv=string_value) -> float:
    if isinstance(value, list):
        value = _string(value, sv=sv)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return float("nan")
    return value


def _compare(op: str, left: Value, right: Value, sv=string_value) -> bool:
    """XPath existential comparison over node-sets."""
    left_values = _comparable_values(left, sv=sv)
    right_values = _comparable_values(right, sv=sv)
    for lv in left_values:
        for rv in right_values:
            if _compare_scalars(op, lv, rv):
                return True
    return False


def _comparable_values(value: Value, sv=string_value) -> List[Value]:
    if isinstance(value, list):
        return [sv(node) for node in value]
    return [value]


def _compare_scalars(op: str, left: Value, right: Value) -> bool:
    if op in ("<", "<=", ">", ">="):
        left_num, right_num = _number(left), _number(right)
        if op == "<":
            return left_num < right_num
        if op == "<=":
            return left_num <= right_num
        if op == ">":
            return left_num > right_num
        return left_num >= right_num
    if isinstance(left, float) or isinstance(right, float):
        equal = _number(left) == _number(right)
    elif isinstance(left, bool) or isinstance(right, bool):
        equal = _truth(left) == _truth(right)
    else:
        equal = _string(left) == _string(right)
    return equal if op == "=" else not equal


class NavigationalEvaluator(BaseEvaluator):
    """Axis steps by pointer chasing over the DOM."""

    strategy_name = "navigational"

    def axis_nodes(self, node: XmlNode, axis: str) -> List[XmlNode]:
        if axis == "self":
            return [node]
        if axis == "parent":
            return [node.parent] if node.parent is not None else []
        if axis == "ancestor":
            return list(node.ancestors())[::-1]
        if axis == "ancestor-or-self":
            return [*list(node.ancestors())[::-1], node]
        if axis == "child":
            return [c for c in node.children if c.kind is not NodeKind.ATTRIBUTE]
        if axis == "descendant":
            return [d for d in node.descendants() if d.kind is not NodeKind.ATTRIBUTE]
        if axis == "descendant-or-self":
            return [node, *(d for d in node.descendants() if d.kind is not NodeKind.ATTRIBUTE)]
        if axis == "following-sibling":
            return node.following_siblings()
        if axis == "preceding-sibling":
            return node.preceding_siblings()
        if axis == "attribute":
            return self._attribute_nodes(node)
        if axis == "following":
            order = self.doc_order()
            rank = order[node.node_id]
            subtree = {d.node_id for d in node.iter_subtree()}
            return [
                other
                for other in self.tree.preorder()
                if order[other.node_id] > rank
                and other.node_id not in subtree
                and other.kind is not NodeKind.ATTRIBUTE
            ]
        if axis == "preceding":
            order = self.doc_order()
            rank = order[node.node_id]
            ancestors = {a.node_id for a in node.ancestors()}
            return [
                other
                for other in self.tree.preorder()
                if order[other.node_id] < rank
                and other.node_id not in ancestors
                and other.kind is not NodeKind.ATTRIBUTE
            ]
        raise UnsupportedFeatureError(f"unsupported axis {axis!r}")

    def _attribute_nodes(self, node: XmlNode) -> List[XmlNode]:
        materialised = [c for c in node.children if c.kind is NodeKind.ATTRIBUTE]
        if materialised:
            return materialised
        # Synthesize transient attribute nodes from the dict form.
        created = []
        for name in sorted(node.attributes):
            attr = XmlNode(name, NodeKind.ATTRIBUTE, text=node.attributes[name])
            attr.parent = node  # navigable but not inserted as a child
            created.append(attr)
        return created


class SchemeEvaluator(BaseEvaluator):
    """Axis steps from rUID identifier arithmetic (paper §3.5).

    Structural axes run through :class:`AxisEngine`; the ``attribute``
    axis (a value, not structure, concern) reuses the navigational
    fallback.

    On top of the per-context strategy this evaluator carries the
    query fast path (set-at-a-time steps, synopsis pruning, axis
    memos); pass ``batched=False`` to benchmark the legacy
    node-at-a-time behaviour. All derived state is generation-stamped:
    a structural update through the labeling invalidates it wholesale,
    so stale labels are never served.
    """

    strategy_name = "ruid"

    #: axes the batched (set-at-a-time) path implements
    _BATCHED_AXES = frozenset(
        {
            "self",
            "child",
            "parent",
            "descendant",
            "descendant-or-self",
            "ancestor",
            "ancestor-or-self",
        }
    )
    #: every axis this evaluator supports at all; synopsis pruning is
    #: restricted to these so unsupported axes still raise
    _KNOWN_AXES = _BATCHED_AXES | frozenset(
        {
            "preceding-sibling",
            "following-sibling",
            "preceding",
            "following",
            "attribute",
        }
    )
    #: per-(node, axis) memo entries kept before the cache stops growing
    _AXIS_CACHE_LIMIT = 8192

    def __init__(
        self,
        labeling: Ruid2SchemeLabeling,
        stats: Optional[QueryStats] = None,
        batched: bool = True,
        memoize: bool = True,
    ):
        super().__init__(labeling.tree, stats=stats)
        self.labeling = labeling
        self.batched = batched
        #: False disables the per-(node, axis) memo — with ``batched``
        #: also False this reproduces the legacy node-at-a-time
        #: behaviour for before/after benchmarking
        self.memoize = memoize
        #: the MemoryNodeStore this evaluator reads through; rebound
        #: per generation by :meth:`_ensure_caches` and surfaced so
        #: EXPLAIN ANALYZE can report physical access counters
        self.store = None
        self._fallback = NavigationalEvaluator(labeling.tree)
        self._cache_generation: Optional[int] = None
        self._rank: Dict = {}
        self._end: Dict = {}
        self._synopsis: Optional[TagStatistics] = None
        self._axis_cache: Dict[Tuple[int, str], List[XmlNode]] = {}
        self._doc_axis_cache: Dict[str, List[XmlNode]] = {}
        # candidate label lists (document-rank order), bound lazily
        # from the store on the first batched step of a generation
        self._tag_labels: Optional[Dict[str, List]] = None
        self._element_labels: Optional[List] = None
        self._text_labels: Optional[List] = None
        self._comment_labels: Optional[List] = None
        self._node_labels: Optional[List] = None

    # -- generation-stamped caches -----------------------------------------
    def _ensure_caches(self) -> None:
        """(Re)bind every derived structure to the labeling's current
        generation; a no-op (one int compare) when nothing changed."""
        generation = self.labeling.generation
        if generation == self._cache_generation:
            return
        # Local import: repro.store.evaluator pulls BaseEvaluator from
        # this module, so a top-level import would be circular.
        from repro.store.memory import MemoryNodeStore

        store = self.store
        if store is None or store.labeling is not self.labeling:
            store = MemoryNodeStore(self.labeling)
            self.store = store
        else:
            store.refresh()
        self._rank = store.rank_map
        self._end = store.end_map
        self._synopsis = TagStatistics(self.tree)
        self._axis_cache = {}
        self._doc_axis_cache = {}
        self._doc_order = None
        self._fallback = NavigationalEvaluator(self.tree)
        self._tag_labels = None
        self._element_labels = None
        self._text_labels = None
        self._comment_labels = None
        self._node_labels = None
        self._cache_generation = generation
        self.stats.count("rank_index_builds")

    def _build_candidates(self) -> None:
        """Bind the store's per-kind candidate lists (document-rank
        order, attributes excluded) as local attributes — hot loops
        index the raw lists without a method call per step."""
        store = self.store
        self._tag_labels = store.tag_labels()
        self._element_labels = store.element_labels()
        self._text_labels = store.text_labels()
        self._comment_labels = store.comment_labels()
        self._node_labels = store.structural_labels()

    def _candidates_for_test(self, test: NodeTest) -> Optional[Sequence]:
        """All labels that can satisfy *test* on an element-principal
        axis, in document-rank order (None: test not expressible)."""
        pair = self._candidate_arrays_for_test(test)
        return pair[0] if pair is not None else None

    def _candidate_arrays_for_test(
        self, test: NodeTest
    ) -> Optional[Tuple[Sequence, Sequence[int]]]:
        """(labels, ranks) that can satisfy *test* — two parallel
        sequences in document-rank order, the ranks a raw columnar
        buffer (None: test not expressible). The store builds both from
        the same per-tag/per-kind rank arrays, so they are aligned by
        construction."""
        node_type = test.node_type
        columnar = self.store.columnar
        if node_type is None:
            if test.name is None:
                return self._element_labels, columnar.element_ranks
            return (
                self._tag_labels.get(test.name, []),
                columnar.tag_rank_array(test.name),
            )
        if node_type == "node":
            return self._node_labels, columnar.structural
        if node_type == "text":
            return self._text_labels, columnar.text_ranks
        if node_type == "comment":
            return self._comment_labels, columnar.comment_ranks
        return None

    # -- step evaluation ----------------------------------------------------
    route_name = "per-node"

    def _eval_step(self, nodes: List[XmlNode], step: Step) -> List[XmlNode]:
        self._ensure_caches()
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if self._prunable(step):
            self.stats.count("synopsis_skips")
            if tracing:
                tracer.annotate_once(route="pruned")
            return []
        if self.batched and not step.predicates and step.axis in self._BATCHED_AXES:
            result = self._eval_step_batched(nodes, step)
            if result is not None:
                self.stats.count("batched_steps")
                # bulk-account the label→node dereferences this step
                # performed (one per emitted node) — the per-result
                # cost the paper's one-fetch claim bounds
                self.store.note_fetches(len(result))
                if self.deadline is not None:
                    # one weighted cancellation point per batched step:
                    # the item count forces a clock check on the next
                    # tick, bounding overrun to a single step's work
                    self.deadline.tick(len(result))
                if tracing:
                    tracer.annotate_once(route="batched")
                return result
        self.stats.count("fallback_steps")
        if tracing:
            # first write wins: predicate sub-paths re-enter this
            # dispatcher under the same open step span
            tracer.annotate_once(route="per-node")
        return super()._eval_step(nodes, step)

    def candidate_estimate(self, test: NodeTest) -> Optional[int]:
        """Synopsis cardinality of the nodes passing *test* on an
        element-principal axis (None when the synopsis cannot say)."""
        self._ensure_caches()
        synopsis = self._synopsis
        if test.node_type is None:
            if test.name is None:
                return synopsis.total_elements
            return synopsis.count(test.name)
        if test.node_type == "node":
            return None  # text/comment nodes are outside the synopsis
        return None

    def plan_route(self, step: Step) -> Tuple[str, Optional[int]]:
        """Predict the dispatch decision :meth:`_eval_step` will make.

        Mirrors the runtime logic exactly: synopsis pruning first, then
        the batched set-at-a-time path for predicate-free structural
        axes, else the per-node fallback. (A batched ``child`` step may
        still fall back at runtime when the frontier is tiny — ANALYZE
        reports the observed route alongside.)"""
        self._ensure_caches()
        if self._prunable(step):
            return "pruned", 0
        estimate = self.candidate_estimate(step.test)
        if self.batched and not step.predicates and step.axis in self._BATCHED_AXES:
            return "batched", estimate
        return "per-node", estimate

    def _prunable(self, step: Step) -> bool:
        """True when the synopsis proves the step's name test matches
        nothing anywhere in the document."""
        test = step.test
        if test.name is None or test.node_type is not None:
            return False
        if step.axis not in self._KNOWN_AXES:
            return False  # let the unsupported-axis error surface
        if step.axis == "attribute":
            return not self._synopsis.can_match_attribute(test.name)
        return not self._synopsis.can_match_element(test.name)

    def _eval_step_batched(
        self, nodes: List[XmlNode], step: Step
    ) -> Optional[List[XmlNode]]:
        """Set-at-a-time step over the whole frontier; None means the
        contexts cannot be labeled (transient nodes) — fall back."""
        if self._node_labels is None:
            self._build_candidates()
        has_doc = False
        labels: List = []
        label_of = self.labeling.label_of
        try:
            for node in nodes:
                if node is self.document_node:
                    has_doc = True
                else:
                    labels.append(label_of(node))
        except (KeyError, UnknownLabelError):
            return None
        axis = step.axis
        test = step.test
        pair = self._candidate_arrays_for_test(test)
        if pair is None:
            return None
        candidates, candidate_ranks = pair
        node_of = self.labeling.node_of
        rank = self._rank

        if axis == "self":
            out: List[XmlNode] = []
            if has_doc and node_test_matches(self.document_node, test, axis):
                out.append(self.document_node)
            ranked = []
            for label in set(labels):
                node = node_of(label)
                if node_test_matches(node, test, axis):
                    ranked.append((rank[label], node))
            ranked.sort(key=lambda pair: pair[0])
            out.extend(node for _, node in ranked)
            return out

        if axis == "child":
            context = set(labels)
            frontier = len(context) + (1 if has_doc else 0)
            if not frontier:
                return []
            if len(candidates) > CHILD_SCAN_FACTOR * frontier:
                return None  # candidate scan dearer than per-node memo
            # parenthood from the columnar parent-rank column: one
            # indexed array load per candidate, no label arithmetic
            parent_ranks = self.store.columnar.parent
            context_ranks = {rank[label] for label in context}
            out = []
            for position, cand_rank in enumerate(candidate_ranks):
                parent_rank = parent_ranks[cand_rank]
                if parent_rank < 0:
                    if has_doc:  # the root element, child of the doc node
                        out.append(node_of(candidates[position]))
                elif parent_rank in context_ranks:
                    out.append(node_of(candidates[position]))
            return out

        if axis in ("parent", "ancestor", "ancestor-or-self"):
            # The virtual document node has no parent/ancestors and is
            # never an ancestor result (matching the per-context path).
            parent_of = self.labeling.axes.parent
            found: set = set()
            if axis == "parent":
                for label in labels:
                    parent = parent_of(label)
                    if parent is not None:
                        found.add(parent)
            else:
                or_self = axis == "ancestor-or-self"
                for label in set(labels):
                    current = label if or_self else parent_of(label)
                    while current is not None and current not in found:
                        found.add(current)
                        current = parent_of(current)
            ranked = []
            for label in found:
                node = node_of(label)
                if node_test_matches(node, test, axis):
                    ranked.append((rank[label], node))
            ranked.sort(key=lambda pair: pair[0])
            return [node for _, node in ranked]

        # descendant / descendant-or-self
        or_self = axis == "descendant-or-self"
        if has_doc:
            out = []
            if or_self and node_test_matches(self.document_node, test, axis):
                out.append(self.document_node)
            out.extend(node_of(cand) for cand in candidates)
            return out
        if not labels:
            return []
        end = self._end
        # Contexts sorted by rank with a running max of subtree ends:
        # candidate x descends from some context iff the best end among
        # contexts at/before x's rank reaches x.
        context_spans = sorted((rank[label], end[label]) for label in set(labels))
        context_ranks = [r for r, _ in context_spans]
        prefix_max = []
        best = -1
        for _, subtree_end in context_spans:
            if subtree_end > best:
                best = subtree_end
            prefix_max.append(best)
        locate = bisect_right if or_self else bisect_left
        out = []
        for position, cand_rank in enumerate(candidate_ranks):
            j = locate(context_ranks, cand_rank) - 1
            if j >= 0 and prefix_max[j] >= cand_rank:
                out.append(node_of(candidates[position]))
        return out

    # -- per-context axis step (memoised) -----------------------------------
    def axis_nodes(self, node: XmlNode, axis: str) -> List[XmlNode]:
        if axis == "attribute":
            return self._fallback.axis_nodes(node, axis)
        self._ensure_caches()
        if self.memoize:
            cache = self._axis_cache
            key = (node.node_id, axis)
            cached = cache.get(key)
            if cached is not None:
                self.stats.count("axis_cache_hits")
                return cached
            self.stats.count("axis_cache_misses")
        engine = self.labeling.axes
        labels = engine.axis(self.labeling.label_of(node), axis)
        resolved = [self.labeling.node_of(label) for label in labels]
        self.store.note_fetches(len(resolved))
        if axis in ("ancestor", "ancestor-or-self"):
            resolved.reverse()  # engine returns nearest-first
        if self.memoize and len(cache) < self._AXIS_CACHE_LIMIT:
            cache[key] = resolved
        return resolved

    def _document_axis(self, axis: str) -> List[XmlNode]:
        cached = self._doc_axis_cache.get(axis)
        if cached is None:
            cached = super()._document_axis(axis)
            self._doc_axis_cache[axis] = cached
        return cached
