"""What every workload shares: the result record, set-up repetition,
run-length rules and the per-layer metric names."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from . import percentiles

#: set-up runs per benchmark run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: timed samples a headline timing needs for a supported p90
MIN_SAMPLES = percentiles.min_samples_for(0.9)

#: a run may stretch past ``--seconds`` to reach MIN_SAMPLES, but never
#: past this multiple of it
MAX_STRETCH = 3.0

#: every per-layer metric, in report order; a workload that does not
#: exercise a layer reports 0 for it
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("xmltree.parse_s", "s"),
    ("core.label_build_s", "s"),
    ("store.shred_s", "s"),
    ("concurrent.view_build_s", "s"),
    ("query.compile_ms_per_query", "ms"),
    ("query.plan_hit_rate", "ratio"),
    ("query.eval_self_ms_per_query", "ms"),
    ("query.batched_step_share", "ratio"),
    ("query.fallback_step_share", "ratio"),
    ("query.candidate_cache_hit_rate", "ratio"),
    ("store.self_ms_per_query", "ms"),
    ("store.calls_per_query", "count"),
    ("store.fetches_per_result", "count"),
    ("store.rank_probes_per_result", "count"),
    ("store.sql_queries_per_query", "count"),
    ("store.sql_rows_per_result", "count"),
    ("store.pushdown_step_share", "ratio"),
    ("store.attach_ms", "ms"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.disk_reads_per_query", "count"),
    ("storage.wal_syncs_per_commit", "count"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.wal_commit_ms_per_write", "ms"),
    ("core.splice_ms_per_write", "ms"),
    ("core.areas_touched_per_write", "count"),
    ("core.frame_renumbered_share", "ratio"),
    ("concurrent.capture_ms_per_write", "ms"),
    ("concurrent.publish_ms_per_write", "ms"),
    ("concurrent.delta_builds_per_write", "count"),
    ("concurrent.full_builds_per_write", "count"),
    ("concurrent.compactions_per_write", "count"),
    ("concurrent.delta_fallbacks", "count"),
    ("concurrent.pin_ms", "ms"),
    ("concurrent.chain_depth_mean", "count"),
    ("resilience.admission_wait_ms_p90", "ms"),
    ("resilience.shed_rate", "ratio"),
    ("serving.site_eval_ms_per_request", "ms"),
    ("serving.candidates_per_result", "count"),
    ("serving.site_results", "count"),
    ("serving.merged_results", "count"),
    ("serving.messages_per_request", "count"),
    ("serving.sites_per_request", "count"),
    ("serving.routed_share", "ratio"),
    ("serving.executor_self_ms_per_request", "ms"),
    ("bench.loadgen_lateness_p90_ms", "ms"),
    ("xmltree.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("query.self_share", "ratio"),
    ("store.self_share", "ratio"),
    ("storage.self_share", "ratio"),
    ("concurrent.self_share", "ratio"),
    ("resilience.self_share", "ratio"),
    ("serving.self_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
)

#: layers whose self time the traced run splits out
LAYERS = ("xmltree", "core", "query", "store", "storage", "concurrent", "resilience", "serving")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 0
    note: str = ""


@dataclass
class Result:
    """One workload run: metrics plus the operation ledger."""

    workload: str
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: gated end-to-end metrics (the BENCHMARK.json names)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    #: the workload's metrics under their descriptive names (report only)
    detail: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: the traced run's span recorder, written out when the run ends
    trace: Optional[object] = None

    def layer(self, name: str, value: float) -> None:
        unit = dict(PER_LAYER)[name]
        self.per_layer[name] = Metric(float(value), unit)

    def fill_layers(self) -> None:
        """Report 0 for every layer metric this workload never touched."""
        for name, unit in PER_LAYER:
            self.per_layer.setdefault(name, Metric(0.0, unit))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(build: Callable[[], object]) -> Tuple[object, List[float]]:
    """Run *build* :data:`SETUP_REPEATS` times; keep the last state."""
    times: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous copy go before building anew
        began = perf_counter()
        state = build()
        times.append(perf_counter() - began)
    return state, times


class RunClock:
    """Decides when a closed-loop measurement has run long enough:
    *seconds* of timed work and :data:`MIN_SAMPLES` headline samples,
    stretched at most to :data:`MAX_STRETCH` times *seconds*."""

    def __init__(self, seconds: float, min_samples: int = MIN_SAMPLES):
        self.seconds = seconds
        self.min_samples = min_samples
        self.timed_s = 0.0

    def add(self, elapsed_s: float) -> None:
        self.timed_s += elapsed_s

    def done(self, samples: int) -> bool:
        if self.timed_s >= self.seconds * MAX_STRETCH:
            return True
        return self.timed_s >= self.seconds and samples >= self.min_samples


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timing(values_ms: List[float], unit: str = "ms") -> Tuple[Metric, Metric]:
    """(p50, p90) metrics of a latency sample."""
    summary = percentiles.summarize(values_ms)
    n = summary["n"]
    note = "" if summary["p90_supported"] else "p90 not supported by sample count"
    return Metric(summary["p50"], unit, n), Metric(summary["p90"], unit, n, note)


def summed(deltas) -> Dict[str, int]:
    """Counter dicts added key by key."""
    out: Dict[str, int] = {}
    for delta in deltas:
        for key, value in delta.items():
            out[key] = out.get(key, 0) + value
    return out


def query_layers(result: Result, delta: Dict[str, int]) -> None:
    """Plan-cache and step-route ratios from a ``QueryStats`` delta."""
    steps = delta["batched_steps"] + delta["fallback_steps"] + delta["pushdown_steps"]
    lookups = delta["plan_hits"] + delta["plan_misses"]
    candidates = delta["candidate_cache_hits"] + delta["candidate_cache_misses"]
    result.layer("query.plan_hit_rate", ratio(delta["plan_hits"], lookups))
    result.layer("query.batched_step_share", ratio(delta["batched_steps"], steps))
    result.layer("query.fallback_step_share", ratio(delta["fallback_steps"], steps))
    result.layer("query.candidate_cache_hit_rate",
                 ratio(delta["candidate_cache_hits"], candidates))


def layer_shares(result: Result, layer_self: Dict[str, int], total_ns: int,
                 unattributed_ns: int) -> None:
    """Record each layer's share of *total_ns* and the remainder."""
    for layer in LAYERS:
        result.layer(f"{layer}.self_share", ratio(layer_self.get(layer, 0), total_ns))
    result.layer("bench.unattributed_share", ratio(max(0, unattributed_ns), total_ns))


def overhead_pct(untraced_mean: float, traced_mean: float) -> float:
    return 100.0 * (traced_mean / untraced_mean - 1.0) if untraced_mean else 0.0



def setup_layers(result: Result, steps: Dict[str, float]) -> None:
    """The set-up steps' times as per-layer metrics."""
    result.layer("xmltree.parse_s", steps.get("parse_s", 0.0))
    result.layer("core.label_build_s", steps.get("label_s", 0.0))
    result.layer("store.shred_s", steps.get("shred_s", 0.0))
    result.layer("concurrent.view_build_s", steps.get("view_s", 0.0))
