"""Query engine facade.

Compiles XPath-subset expressions once and evaluates them under a
chosen strategy — navigational DOM walking or rUID identifier
arithmetic — so experiments can hold the query fixed and swap the
engine (observation 3, §5).

Compiled plans live in a bounded LRU cache keyed by the query string;
hits, misses and evictions are charged to a shared
:class:`~repro.query.stats.QueryStats` ledger (the query-layer
counterpart of the storage layer's ``IoStats``). Evaluators are
re-created when the labeling's generation advances, so no evaluator
ever serves labels from before a structural update.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter_ns
from typing import List, Optional

from repro.core.partition import Partitioner
from repro.core.scheme import Ruid2SchemeLabeling
from repro.errors import QueryError, ReproError
from repro.obs.explain import PathPlan, QueryPlan, StepPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer
from repro.query.ast import Expr, LocationPath, Union_
from repro.query.evaluator import (
    BaseEvaluator,
    NavigationalEvaluator,
    SchemeEvaluator,
    string_value,
)
from repro.query.parser import parse_xpath
from repro.query.stats import QueryStats
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree

#: default number of compiled plans kept
PLAN_CACHE_SIZE = 128


class XPathEngine:
    """Compile-and-run XPath over one document.

    Parameters
    ----------
    tree:
        The document to query.
    labeling:
        Optional prebuilt 2-level rUID labeling; required for the
        ``"ruid"`` strategy (one is built on demand otherwise).
    partitioner:
        Partition strategy used if a labeling must be built.
    plan_cache_size:
        Maximum number of compiled plans retained (LRU eviction).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` (or
        :data:`~repro.obs.trace.NULL_TRACER`). When set, every select
        runs under a ``query`` span with per-step child spans.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`;
        a private one is created otherwise. The engine's
        :class:`QueryStats` ledger is bound into it as ``query.*``.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog`; selects
        crossing its threshold are retained with their EXPLAIN plan.
    store:
        Optional :class:`~repro.store.base.NodeStore` enabling the
        ``"store"`` strategy — the protocol-only evaluator that runs
        identically over memory, paged, and snapshot stores. ``tree``
        may be ``None`` when a store is supplied and only the
        ``"store"`` strategy is used.
    """

    def __init__(
        self,
        tree: Optional[XmlTree],
        labeling: Optional[Ruid2SchemeLabeling] = None,
        partitioner: Optional[Partitioner] = None,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        slow_log: Optional[SlowQueryLog] = None,
        store=None,
    ):
        self.tree = tree
        self.store = store
        self.stats = QueryStats()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.stats.bind(self.metrics, "query")
        self.tracer = tracer
        self.slow_log = slow_log
        self._labeling = labeling
        self._partitioner = partitioner
        self._plan_cache_size = max(1, plan_cache_size)
        self._compiled: "OrderedDict[str, Expr]" = OrderedDict()
        #: guards the LRU plan cache: ``move_to_end`` / ``popitem``
        #: interleaved from two threads corrupt an OrderedDict
        self._compile_lock = threading.Lock()
        self._evaluators: dict = {}
        #: guards evaluator construction + generation bookkeeping
        self._evaluator_lock = threading.Lock()
        self._evaluator_generation: Optional[int] = None
        self._latency_histograms: dict = {}

    # ------------------------------------------------------------------
    def observe(
        self,
        tracer: Optional[Tracer] = None,
        slow_log: Optional[SlowQueryLog] = None,
    ) -> "XPathEngine":
        """Attach (or replace) observability sinks after construction."""
        if tracer is not None:
            self.tracer = tracer
        if slow_log is not None:
            self.slow_log = slow_log
        return self

    @property
    def _observing(self) -> bool:
        return self.tracer is not None or self.slow_log is not None

    # ------------------------------------------------------------------
    def labeling(self) -> Ruid2SchemeLabeling:
        if self._labeling is None:
            self._labeling = Ruid2SchemeLabeling(
                self.tree, partitioner=self._partitioner
            )
        return self._labeling

    def compile(self, expression: str) -> Expr:
        """Parse an expression through the LRU plan cache.

        Repeated compilations of the same string return the identical
        plan object; the least recently used plan is evicted once the
        cache is full.
        """
        cache = self._compiled
        with self._compile_lock:
            compiled = cache.get(expression)
            if compiled is not None:
                self.stats.count("plan_hits")
                cache.move_to_end(expression)
                return compiled
        # parse outside the lock: plans are pure values, so two racing
        # compilations of one new expression just do redundant work and
        # the second insert wins the cache slot
        self.stats.count("plan_misses")
        compiled = parse_xpath(expression)
        with self._compile_lock:
            existing = cache.get(expression)
            if existing is not None:
                return existing
            cache[expression] = compiled
            if len(cache) > self._plan_cache_size:
                cache.popitem(last=False)
                self.stats.count("plan_evictions")
        return compiled

    def evaluator(self, strategy: str = "ruid") -> BaseEvaluator:
        """The evaluator for *strategy* ("ruid", "navigational" or
        "store").

        Evaluators are cached per strategy but dropped wholesale when
        the labeling's generation advances — a structural update must
        never be answered from pre-update state.
        """
        with self._evaluator_lock:
            if self._labeling is not None:
                generation = self._labeling.generation
                if generation != self._evaluator_generation:
                    self._evaluators.clear()
                    self._evaluator_generation = generation
            evaluator = self._evaluators.get(strategy)
            if evaluator is None:
                if strategy == "ruid":
                    evaluator = SchemeEvaluator(self.labeling(), stats=self.stats)
                    self._evaluator_generation = self._labeling.generation
                elif strategy == "navigational":
                    if self.tree is None:
                        raise QueryError("navigational strategy needs a tree")
                    evaluator = NavigationalEvaluator(self.tree, stats=self.stats)
                elif strategy == "store":
                    if self.store is None:
                        raise QueryError(
                            "store strategy needs a NodeStore "
                            "(pass store= to XPathEngine)"
                        )
                    # local import: repro.store imports this package
                    from repro.store.evaluator import StoreEvaluator

                    evaluator = StoreEvaluator(self.store, stats=self.stats)
                    self.store.bind(self.metrics, "store")
                else:
                    raise QueryError(f"unknown strategy {strategy!r}")
                self._evaluators[strategy] = evaluator
            return evaluator

    # ------------------------------------------------------------------
    def select(
        self,
        expression: str,
        strategy: str = "ruid",
        context: Optional[XmlNode] = None,
        deadline=None,
    ) -> List[XmlNode]:
        """Node-set result of *expression* (document order).

        *deadline* bounds the evaluation: a
        :class:`~repro.resilience.deadline.Deadline` (or a plain number
        of milliseconds) after which the evaluator's cooperative checks
        raise :class:`~repro.errors.QueryTimeout` with partial-work
        counters. Any :class:`~repro.errors.ReproError` raised during
        evaluation (timeout, storage fault, load shed) is counted in
        ``stats.errors.<Type>`` and captured by the slow log's failure
        ring before propagating.
        """
        compiled = self.compile(expression)
        evaluator = self.evaluator(strategy)
        if deadline is not None and not hasattr(deadline, "tick"):
            # local import: repro.resilience imports repro.errors only,
            # but keep the engine importable without the package loaded
            from repro.resilience.deadline import Deadline

            deadline = Deadline(float(deadline))
        if deadline is None and not self._observing:
            try:
                return evaluator.select(compiled, context)
            except ReproError as exc:
                self._note_failure(expression, strategy, exc, 0)
                raise
        return self._select_observed(
            expression, compiled, evaluator, strategy, context, deadline
        )

    def _select_observed(
        self,
        expression: str,
        compiled: Expr,
        evaluator: BaseEvaluator,
        strategy: str,
        context: Optional[XmlNode],
        deadline=None,
    ) -> List[XmlNode]:
        """The instrumented select path: a ``query`` span around the
        evaluation, a latency histogram observation, and a slow-log
        offer (with the static plan attached when it qualifies).
        Failures are ledgered per error type and retained in the slow
        log's failure ring, then re-raised."""
        tracer = self.tracer
        previous = evaluator.tracer
        if tracer is not None:
            evaluator.tracer = tracer
        if deadline is not None:
            evaluator.set_deadline(deadline)
        error: Optional[ReproError] = None
        start = perf_counter_ns()
        try:
            if tracer is not None:
                with tracer.span(
                    "query", expression=expression, strategy=strategy
                ) as span:
                    result = evaluator.select(compiled, context)
                    span.set(results=len(result))
            else:
                result = evaluator.select(compiled, context)
        except ReproError as exc:
            error = exc
        finally:
            evaluator.tracer = previous
            if deadline is not None:
                evaluator.set_deadline(None)
        elapsed = perf_counter_ns() - start
        with self._evaluator_lock:
            histogram = self._latency_histograms.get(strategy)
            if histogram is None:
                histogram = self.metrics.histogram(f"query.latency_ns.{strategy}")
                self._latency_histograms[strategy] = histogram
        histogram.observe(elapsed)
        if error is not None:
            self._note_failure(expression, strategy, error, elapsed)
            raise error
        slow_log = self.slow_log
        if slow_log is not None and elapsed >= slow_log.threshold_ns:
            slow_log.record(
                expression,
                strategy,
                elapsed,
                plan=self.explain(expression, strategy),
                results=len(result),
            )
        elif slow_log is not None:
            slow_log.note_seen()
        return result

    def _note_failure(
        self,
        expression: str,
        strategy: str,
        error: ReproError,
        elapsed_ns: int,
    ) -> None:
        """Charge a failed select to the per-error-type ledger and the
        slow log's failure ring (with the static plan when it can still
        be produced — a broken store must not mask the original error)."""
        self.stats.count_error(type(error).__name__)
        slow_log = self.slow_log
        if slow_log is None:
            return
        try:
            plan = self.explain(expression, strategy)
        except ReproError:
            plan = None
        slow_log.record_failure(
            expression, strategy, elapsed_ns, error, plan=plan
        )

    # ------------------------------------------------------------------
    # EXPLAIN / EXPLAIN ANALYZE
    # ------------------------------------------------------------------
    def explain(
        self,
        expression: str,
        strategy: str = "ruid",
        analyze: bool = False,
        context: Optional[XmlNode] = None,
    ) -> QueryPlan:
        """The compiled plan of *expression* — and, with ``analyze``,
        the measured per-step cardinalities and timings of one run.

        The static part reports, per location step, the route the
        evaluator will dispatch to (``batched`` set-at-a-time,
        ``per-node`` fallback, ``pruned`` by the tag synopsis, or
        ``navigational``) plus the synopsis' candidate estimate. The
        ANALYZE part executes the query under a private tracer and
        folds the resulting span tree back onto the plan: per step the
        call count, input/output node counts and wall time; the result
        node-set itself is identical to a plain :meth:`select` and is
        carried on ``plan.result``.
        """
        cached_before = expression in self._compiled
        compiled = self.compile(expression)
        evaluator = self.evaluator(strategy)
        plan = self._static_plan(expression, compiled, evaluator, strategy)
        plan.cache_hit = cached_before
        if analyze:
            self._analyze_into(plan, compiled, evaluator, context)
        return plan

    def _static_plan(
        self,
        expression: str,
        compiled: Expr,
        evaluator: BaseEvaluator,
        strategy: str,
    ) -> QueryPlan:
        plan = QueryPlan(expression=expression, strategy=strategy, cache_hit=False)
        if isinstance(compiled, Union_):
            paths = list(compiled.paths)
        elif isinstance(compiled, LocationPath):
            paths = [compiled]
        else:
            plan.scalar = True
            return plan
        for path in paths:
            path_plan = PathPlan(expression=str(path), absolute=path.absolute)
            for index, step in enumerate(evaluator.path_steps(path)):
                route, estimate = evaluator.plan_route(step)
                path_plan.steps.append(
                    StepPlan(
                        index=index,
                        axis=step.axis,
                        test=str(step.test),
                        predicates=len(step.predicates),
                        route=route,
                        estimate=estimate,
                    )
                )
            plan.paths.append(path_plan)
        return plan

    def _analyze_into(
        self,
        plan: QueryPlan,
        compiled: Expr,
        evaluator: BaseEvaluator,
        context: Optional[XmlNode],
    ) -> None:
        """Run the query under a private tracer and attribute the span
        tree to the plan's steps."""
        tracer = Tracer()
        previous = evaluator.tracer
        evaluator.tracer = tracer
        # Physical counters: the evaluator's NodeStore (scheme and
        # store strategies) charges fetches/rank probes as it runs, so
        # a before/after delta is this query's physical footprint.
        store = getattr(evaluator, "store", None)
        physical_before = store.stats_snapshot() if store is not None else None
        start = perf_counter_ns()
        try:
            with tracer.span("query.analyze", expression=plan.expression):
                if plan.scalar:
                    result: List[XmlNode] = []
                    plan.result_count = 0
                    evaluator.evaluate(compiled, context)
                else:
                    result = evaluator.select(compiled, context)
        finally:
            evaluator.tracer = previous
        plan.total_ns = perf_counter_ns() - start
        plan.analyzed = True
        if store is None:
            # SchemeEvaluator binds its MemoryNodeStore on first use —
            # created during this very run, so every count is ours.
            store = getattr(evaluator, "store", None)
        if store is not None:
            plan.physical = store.stats_delta(physical_before or {})
        if not plan.scalar:
            plan.result = result
            plan.result_count = len(result)
        root = next(
            (s for s in tracer.roots() if s.name == "query.analyze"), None
        )
        if root is None:  # ring buffer wrapped past the root: keep static plan
            return
        # Top-level path spans (direct children of the root) line up 1:1
        # with the plan's paths; nested predicate paths hang off step
        # spans and are deliberately excluded from step attribution.
        top_paths = [
            span
            for span in tracer.children_of(root)
            if span.name == "evaluator.path"
        ]
        for path_plan, path_span in zip(plan.paths, top_paths):
            for step_span in tracer.children_of(path_span):
                if step_span.name != "evaluator.step":
                    continue
                index = step_span.attrs.get("index")
                if index is None or not 0 <= index < len(path_plan.steps):
                    continue
                step = path_plan.steps[index]
                step.calls += 1
                step.time_ns = (step.time_ns or 0) + step_span.duration_ns
                step.in_count = step_span.attrs.get("in_count")
                step.out_count = step_span.attrs.get("out_count")
                observed = step_span.attrs.get("route")
                if observed is not None:
                    step.observed_route = observed

    def select_strings(
        self,
        expression: str,
        strategy: str = "ruid",
        context: Optional[XmlNode] = None,
    ) -> List[str]:
        """String-values of the result node-set."""
        return [string_value(node) for node in self.select(expression, strategy, context)]

    def count(self, expression: str, strategy: str = "ruid") -> int:
        return len(self.select(expression, strategy))

    def __repr__(self) -> str:
        return f"<XPathEngine tree={self.tree!r} cached={len(self._compiled)}>"
