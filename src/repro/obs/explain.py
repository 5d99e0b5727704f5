"""EXPLAIN / EXPLAIN ANALYZE plan structures.

The query layer builds these; this module only defines the shapes and
their renderings so the observability layer stays import-free of the
engine (the engine imports *us*).

An XPath plan is a list of per-path step rows — axis, node test,
predicate count, the route the store evaluator will take
(``pushdown`` to a store's SQL engine, ``batched`` set-at-a-time,
``per-node`` fallback, ``pruned`` by the store's synopsis, or plain
``navigational``) and the node test's candidate count. Under
ANALYZE each step additionally carries the measured input/output
cardinalities and nanosecond timings gathered from trace spans.

A twig plan mirrors the pattern tree: per pattern node the candidate
count, the structural-join algorithm chosen for descendant edges
(``nested`` vs ``stack`` — the cardinality cutoff of
:func:`~repro.query.joins.choose_join_algorithm`) and, analyzed, the
surviving match counts and timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _render(headers: Sequence[str], rows: Sequence[Sequence[Any]],
            title: Optional[str] = None) -> str:
    """Minimal aligned-column table (kept local: obs must not import
    the analysis layer)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def _ns_to_ms(value: Optional[int]) -> str:
    return "-" if value is None else f"{value / 1e6:.3f}"


@dataclass
class StepPlan:
    """One location step of a compiled path."""

    index: int
    axis: str
    test: str
    predicates: int
    route: str  # batched | per-node | pruned | navigational
    estimate: Optional[int] = None  # synopsis candidate estimate
    # -- ANALYZE fields --
    calls: int = 0
    in_count: Optional[int] = None
    out_count: Optional[int] = None
    time_ns: Optional[int] = None
    observed_route: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "axis": self.axis,
            "test": self.test,
            "predicates": self.predicates,
            "route": self.route,
            "estimate": self.estimate,
            "calls": self.calls,
            "in": self.in_count,
            "out": self.out_count,
            "time_ns": self.time_ns,
            "observed_route": self.observed_route,
        }


@dataclass
class PathPlan:
    """One top-level location path (a union arm, or the whole query)."""

    expression: str
    absolute: bool
    steps: List[StepPlan] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "expression": self.expression,
            "absolute": self.absolute,
            "steps": [step.as_dict() for step in self.steps],
        }


@dataclass
class QueryPlan:
    """EXPLAIN output for one XPath expression."""

    expression: str
    strategy: str
    cache_hit: bool
    paths: List[PathPlan] = field(default_factory=list)
    #: set when the top-level expression is not a location path/union
    scalar: bool = False
    analyzed: bool = False
    result_count: Optional[int] = None
    total_ns: Optional[int] = None
    #: the ANALYZE run's result node-set (not serialized)
    result: Optional[list] = None
    #: physical access counters charged by the run (store fetches,
    #: rank probes, buffer-pool page hits/misses for paged stores)
    physical: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "expression": self.expression,
            "strategy": self.strategy,
            "cache_hit": self.cache_hit,
            "scalar": self.scalar,
            "analyzed": self.analyzed,
            "result_count": self.result_count,
            "total_ns": self.total_ns,
            "physical": self.physical,
            "paths": [path.as_dict() for path in self.paths],
        }

    def step_rows(self) -> List[Tuple]:
        """Flat table rows over every path's steps."""
        rows: List[Tuple] = []
        for path_index, path in enumerate(self.paths):
            for step in path.steps:
                row: List[Any] = [
                    path_index,
                    step.index,
                    step.axis,
                    step.test,
                    step.predicates,
                    step.route,
                    "-" if step.estimate is None else step.estimate,
                ]
                if self.analyzed:
                    row += [
                        step.calls,
                        "-" if step.in_count is None else step.in_count,
                        "-" if step.out_count is None else step.out_count,
                        _ns_to_ms(step.time_ns),
                        step.observed_route or step.route,
                    ]
                rows.append(tuple(row))
        return rows

    def format(self) -> str:
        headers = ["path", "step", "axis", "test", "preds", "route", "est"]
        if self.analyzed:
            headers += ["calls", "in", "out", "ms", "observed"]
        header = (
            f"EXPLAIN{' ANALYZE' if self.analyzed else ''} "
            f"{self.expression!r} [{self.strategy}]"
            f"{' (plan cache hit)' if self.cache_hit else ''}"
        )
        if self.scalar:
            body = "scalar expression: no location-path steps"
        else:
            body = _render(headers, self.step_rows())
        footer = ""
        if self.analyzed:
            footer = (
                f"\nresults: {self.result_count}"
                f"   total: {_ns_to_ms(self.total_ns)} ms"
            )
            if self.physical:
                counters = "  ".join(
                    f"{key}={value}" for key, value in sorted(self.physical.items())
                )
                footer += f"\nphysical: {counters}"
        return f"{header}\n{body}{footer}"

    def __str__(self) -> str:
        return self.format()


# ----------------------------------------------------------------------
# Twig plans
# ----------------------------------------------------------------------
@dataclass
class TwigNodePlan:
    """One pattern node of a twig match plan."""

    tag: str  # "*" for the wildcard test
    axis: str  # edge from the parent pattern node
    depth: int
    candidates: int
    #: structural-join algorithm for this node's descendant edges, or
    #: "rparent" for the child-edge arithmetic, "-" for the root
    algorithm: str = "-"
    # -- ANALYZE fields --
    survivors: Optional[int] = None
    time_ns: Optional[int] = None
    skipped: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tag": self.tag,
            "axis": self.axis,
            "depth": self.depth,
            "candidates": self.candidates,
            "algorithm": self.algorithm,
            "survivors": self.survivors,
            "time_ns": self.time_ns,
            "skipped": self.skipped,
        }


@dataclass
class TwigPlan:
    """EXPLAIN output for one twig pattern over one labeling scheme."""

    pattern: str
    scheme: str
    nodes: List[TwigNodePlan] = field(default_factory=list)
    analyzed: bool = False
    match_count: Optional[int] = None
    total_ns: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "pattern": self.pattern,
            "scheme": self.scheme,
            "analyzed": self.analyzed,
            "match_count": self.match_count,
            "total_ns": self.total_ns,
            "nodes": [node.as_dict() for node in self.nodes],
        }

    def format(self) -> str:
        headers = ["node", "axis", "candidates", "algorithm"]
        if self.analyzed:
            headers += ["survivors", "ms"]
        rows = []
        for node in self.nodes:
            label = "  " * node.depth + node.tag
            row: List[Any] = [label, node.axis, node.candidates, node.algorithm]
            if self.analyzed:
                row += [
                    "(skipped)" if node.skipped
                    else ("-" if node.survivors is None else node.survivors),
                    _ns_to_ms(node.time_ns),
                ]
            rows.append(tuple(row))
        header = (
            f"EXPLAIN{' ANALYZE' if self.analyzed else ''} twig "
            f"{self.pattern!r} [{self.scheme}]"
        )
        footer = (
            f"\nmatches: {self.match_count}   total: {_ns_to_ms(self.total_ns)} ms"
            if self.analyzed
            else ""
        )
        return f"{header}\n{_render(headers, rows)}{footer}"

    def __str__(self) -> str:
        return self.format()
