"""XPath-subset evaluation: shared semantics and the navigational oracle.

:class:`BaseEvaluator` holds the expression semantics every strategy
shares; a subclass supplies the axis step. Two implement it — the
experiment E8 comparison:

* :class:`NavigationalEvaluator` walks the DOM tree pointer by pointer
  (the baseline any DOM implementation provides, and the oracle the
  differential suites compare against);
* :class:`~repro.store.evaluator.StoreEvaluator` answers axes from
  rank columns, subtree intervals and parent arithmetic over any
  :class:`~repro.store.base.NodeStore` — the paper's §3.5 identifier
  arithmetic — and only dereferences labels to nodes for node tests
  and results. The engine's default ``"ruid"`` strategy runs it over
  a :class:`~repro.store.memory.MemoryNodeStore`.

Semantics follow XPath 1.0 for the supported core: node-sets are kept
in document order, predicates are evaluated with axis-order positions
(reverse axes count backwards), numeric predicates are position tests,
and comparisons use the existential node-set semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError, UnsupportedFeatureError
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
from repro.xmltree.node import NodeKind, XmlNode
from repro.xmltree.tree import XmlTree

Value = Union[List[XmlNode], str, float, bool]

_REVERSE_AXES = frozenset({"ancestor", "ancestor-or-self", "preceding", "preceding-sibling", "parent"})


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
                    span.attrs["out_count"] = len(current)
        return current

    #: route label ANALYZE reports for this evaluator's steps
    route_name = "navigational"

    def plan_route(self, step: Step) -> Tuple[str, Optional[int]]:
        """(route, candidate estimate) EXPLAIN predicts for *step*.

        The base evaluator has one route and no synopsis, so no
        estimate; the store evaluator overrides this with its actual
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
        return self.sort_nodes(self._gather_step(nodes, step))

    def _gather_step(self, nodes: List[XmlNode], step: Step) -> List[XmlNode]:
        """Each context's axis result, tested and filtered, concatenated
        unsorted; a reverse axis lists each context's result backwards."""
        gathered: List[XmlNode] = []
        for node in nodes:
            candidates = self._step_matches(node, step)
            if step.axis in _REVERSE_AXES:
                candidates.reverse()  # predicate positions count backwards
            for predicate in step.predicates:
                candidates = self._filter(candidates, predicate)
            gathered.extend(candidates)
        return gathered

    def _step_matches(self, node: XmlNode, step: Step) -> List[XmlNode]:
        """*node*'s axis result that passes the step's node test, in
        document order."""
        if node is self.document_node:
            axis_result = self._document_axis(step.axis)
        else:
            axis_result = self.axis_nodes(node, step.axis)
        if self.deadline is not None:
            self.deadline.tick(len(axis_result))
        return [
            candidate
            for candidate in axis_result
            if node_test_matches(candidate, step.test, step.axis)
        ]

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
