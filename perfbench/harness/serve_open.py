"""serve-open: open loop on one asyncio event loop against a 4-site
scatter-gather cluster.

``ShardedCluster(site_count=4, replication_factor=1)`` serves the XMark
(scale 1.0) and DBLP (600 entries) documents, each cut into 8
``rank_block_shards``; ``ScatterGatherExecutor`` runs with bounded
admission as in E20 and no injected latency or faults. Requests follow
``poisson_schedule`` arrival times on a fixed ladder of 4 and 8 req/s;
the 4 req/s rung is the reporting rate. Each rung sends 6 whole
rounds of the 17 XMark and DBLP queries, so every rung supports its p90
and every query has the same share. Every request is timed from its
scheduled send time (``serve_p50_ms``, ``serve_p90_ms``, the ladder).

The gated ``query_p50_ms``, ``query_p90_ms`` and ``op_p50_ms`` come
from a closed pass through the same executor: 8 more rounds, each
request sent when the previous one has answered. The due-time tail
swings with how the seed's arrivals bunch and multiplies any slowdown
of the host, far past what a gate can bound; one request's service
alone does not.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter, perf_counter_ns
from typing import Dict, List

from repro.baselines.registry import get_scheme
from repro.concurrent import StructuralView
from repro.errors import ReproError
from repro.resilience import AdmissionController
from repro.serving import ScatterGatherExecutor, ServingSite, ShardedCluster, rank_block_shards
from repro.xmltree.parser import parse

from . import corpus
from .common import (
    Metric,
    Result,
    layer_shares,
    overhead_pct,
    peak_rss_mb,
    percentiles,
    ratio,
    repeated_setup,
    setup_layers,
    timing,
)
from .openloop import run_phase
from .oracle import NavigationalOracle, node_ids
from .probes import Patches
from .spans import SliceLog, SpanRecorder, layer_self_ns, self_times, union

SITES = 4
SHARDS_PER_DOC = 8
REPORT_RATE_HZ = 4.0
#: 8 req/s misses the limit today (16 and 32 miss it by seconds), so
#: the ladder stops at 8; a serving tier that meets it at 8 is the time
#: to add 16
LADDER_HZ = (4.0, 8.0)
#: rounds of the query set per rung: 6 x 17 = 102 requests, enough for
#: a p90 with ten samples beyond it; the closed pass sends 8 x 17 = 136
ROUNDS = 6
CLOSED_ROUNDS = 8
#: latency limit of the ladder (the E20 budget)
LIMIT_MS = 250.0
SERVED_DOCS = ("xmark", "dblp")


class Setup:
    def __init__(self, texts: Dict[str, str]):
        self.steps = {"parse_s": 0.0, "label_s": 0.0, "view_s": 0.0}
        self.trees = {}
        self.cluster = ShardedCluster(site_count=SITES, replication_factor=1)
        for name in SERVED_DOCS:
            began = perf_counter()
            tree = parse(texts[name])
            parsed = perf_counter()
            labeling = get_scheme("ruid2").build(tree)
            labeled = perf_counter()
            view = StructuralView.from_labeling(labeling)
            viewed = perf_counter()
            self.cluster.add_document(
                name, view, rank_block_shards(name, len(view.ids_by_rank), SHARDS_PER_DOC)
            )
            self.steps["parse_s"] += parsed - began
            self.steps["label_s"] += labeled - parsed
            self.steps["view_s"] += viewed - labeled
            self.trees[name] = tree
        self.executor = ScatterGatherExecutor(
            self.cluster,
            admission=AdmissionController(max_concurrent=64, max_queue=128, queue_timeout_s=0.5),
            max_rounds=8,
            breaker_threshold=50,
        )
        self.workload = [
            (doc, q) for doc, q in corpus.base_queries() if doc in SERVED_DOCS
        ]
        # warm-up: one request per query builds every site's caches
        for doc, expression in self.workload:
            self.executor.select_sync(doc, expression)


def _phase(setup: Setup, oracle_ids, rate_hz: float, count: int, seed: int,
           on_request=None, busy=None):
    arrivals = corpus.balanced_schedule(rate_hz, count, setup.workload, seed)

    def check(outcome) -> bool:
        return node_ids(outcome.nodes) == oracle_ids[(outcome.doc, outcome.expression)]

    return asyncio.run(
        run_phase(setup.executor.select, arrivals, rate_hz, check, on_request, busy)
    )


def _closed_phase(setup: Setup, oracle_ids, seed: int, result: Result) -> List[float]:
    """:data:`CLOSED_ROUNDS` rounds of the query set through the same
    executor, each request sent when the previous one has answered, so
    each latency is one request's service alone on the loop."""
    deck = corpus.Deck(setup.workload, random.Random(seed ^ 0xC105ED))
    requests = [deck.deal() for _ in range(CLOSED_ROUNDS * len(setup.workload))]

    async def serve() -> List[float]:
        latencies = []
        for doc, expression in requests:
            result.attempted += 1
            began = perf_counter_ns()
            try:
                nodes = await setup.executor.select(doc, expression)
            except ReproError:
                result.failed += 1
                continue
            latencies.append((perf_counter_ns() - began) / 1e6)
            if node_ids(nodes) != oracle_ids[(doc, expression)]:
                result.failed += 1
                result.wrong += 1
        return latencies

    return asyncio.run(serve())


def _tally(result: Result, phase) -> None:
    result.attempted += len(phase.outcomes)
    result.failed += phase.failed
    result.wrong += phase.count("wrong")


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("serve-open")
    texts = {name: corpus.document_text(name) for name in SERVED_DOCS}
    setup, setup_times = repeated_setup(lambda: Setup(texts))
    oracle_ids = {}
    for doc in SERVED_DOCS:
        oracle = NavigationalOracle(setup.trees[doc])
        for d, expression in setup.workload:
            if d == doc:
                oracle_ids[(doc, expression)] = oracle.ids(expression)
    setup_s = percentiles.median(setup_times)

    if not trace:
        rungs = []
        for index, rate in enumerate(LADDER_HZ):
            count = ROUNDS * len(setup.workload)
            phase = _phase(setup, oracle_ids, rate, count, seed * 31 + index)
            _tally(result, phase)
            rungs.append(phase)
        report = rungs[LADDER_HZ.index(REPORT_RATE_HZ)]
        p50, p90 = timing(report.latencies_ms())
        alone = _closed_phase(setup, oracle_ids, seed, result)
        alone_p50, alone_p90 = timing(alone)
        alone_p50.note = "one request at a time through the executor"
        alone_p90.note = alone_p90.note or alone_p50.note
        max_rate = 0.0
        lines = []
        for phase in rungs:
            rung_p90 = percentiles.quantile(phase.latencies_ms(), 0.9)
            ok = rung_p90 <= LIMIT_MS and phase.drain_ms <= LIMIT_MS
            if ok and phase.rate_hz > max_rate:
                max_rate = phase.rate_hz
            lines.append(
                f"rung {phase.rate_hz:g} req/s: n={len(phase.outcomes)} p90 {rung_p90:.1f} ms, "
                f"drain {phase.drain_ms:.1f} ms, failed {phase.failed} -> "
                f"{'meets' if ok else 'misses'} {LIMIT_MS:g} ms"
            )
        lateness = [o.lateness_ms for o in report.outcomes]
        result.end_to_end = {
            "setup_s": Metric(setup_s, "s", len(setup_times)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
            "query_p50_ms": alone_p50,
            "query_p90_ms": alone_p90,
            "op_p50_ms": Metric(alone_p50.value, "ms", alone_p50.samples,
                                "op = one served request, sent alone"),
        }
        result.detail = {
            "serve_p50_ms": p50,
            "serve_p90_ms": p90,
            "serve_max_rate_hz": Metric(max_rate, "1/s", len(rungs),
                                        f"ladder {'/'.join(f'{r:g}' for r in LADDER_HZ)}"),
            "bench.loadgen_lateness_p90_ms": Metric(
                percentiles.quantile(lateness, 0.9), "ms", len(lateness)),
        }
        result.notes.extend(lines)
        return result

    # traced run: the same schedule at the reporting rate twice,
    # untraced then traced, so the overhead compares like with like
    count = ROUNDS * len(setup.workload)
    plain = _phase(setup, oracle_ids, REPORT_RATE_HZ, count, seed * 31)
    _tally(result, plain)
    recorder = SpanRecorder()
    patches = Patches()
    executor = setup.executor
    cluster = setup.cluster
    patches.wrap_async(recorder, executor.admission, "acquire", "resilience.admission_acquire")
    patches.set(cluster, "call_site", _site_call(recorder, cluster.call_site))
    patches.wrap(recorder, ServingSite, "execute", "serving.site_execute")
    site_results = {name: 0 for name in cluster.sites}
    for name, site in cluster.sites.items():
        for doc in SERVED_DOCS:
            evaluator = site.evaluator_for(doc)
            patches.set(evaluator, "select", _counting(recorder, evaluator.select, site_results, name))

    async def request(select, outcome, log):
        with recorder.span("serving.select") as span:
            span.slices = log.slices
            nodes = await select(outcome.doc, outcome.expression)
            span.attrs["results"] = len(nodes)
            return nodes

    stats_before = executor.stats_snapshot()
    busy = SliceLog()
    try:
        traced = _phase(setup, oracle_ids, REPORT_RATE_HZ, count, seed * 31, request, busy)
    finally:
        patches.restore()
    busy_ns = sum(high - low for low, high in union(busy.slices))
    _tally(result, traced)
    stats = {k: v - stats_before.get(k, 0) for k, v in executor.stats_snapshot().items()}
    spans = recorder.spans
    own = self_times(spans)
    requests = len(traced.outcomes)
    merged = sum(s.attrs.get("results", 0) for s in spans if s.name == "serving.select")
    waits = [s.duration / 1e6 for s in spans if s.name == "resilience.admission_acquire"]
    sites_per_request: Dict[int, set] = {}
    for s in spans:
        if s.name == "serving.call_site":
            sites_per_request.setdefault(s.request, set()).add(s.attrs.get("site"))
    candidates = sum(site_results.values())
    lateness = [o.lateness_ms for o in traced.outcomes]

    setup_layers(result, setup.steps)
    result.layer("resilience.admission_wait_ms_p90", percentiles.quantile(waits, 0.9))
    result.layer("resilience.shed_rate", ratio(stats["shed"], stats["requests"]))
    result.layer("query.eval_self_ms_per_query",
                 sum(own[s.sid] for s in spans if s.name == "query.site_select") / 1e6 / requests)
    result.layer("serving.site_eval_ms_per_request",
                 sum(s.duration for s in spans if s.name == "serving.site_execute") / 1e6 / requests)
    result.layer("serving.candidates_per_result", ratio(candidates, merged))
    result.layer("serving.site_results", candidates)
    result.layer("serving.merged_results", merged)
    result.layer("serving.messages_per_request", ratio(stats["scatter_messages"], requests))
    result.layer("serving.sites_per_request",
                 ratio(sum(len(v) for v in sites_per_request.values()), requests))
    result.layer("serving.routed_share", ratio(stats["routed"], requests))
    result.layer("serving.executor_self_ms_per_request",
                 sum(own[s.sid] for s in spans if s.name == "serving.select") / 1e6 / requests)
    result.layer("bench.loadgen_lateness_p90_ms", percentiles.quantile(lateness, 0.9))
    attributed = sum(own.values())
    layer_shares(result, layer_self_ns(spans), busy_ns, busy_ns - attributed)
    result.layer("bench.trace_overhead_pct", overhead_pct(
        sum(o.service_ms for o in plain.outcomes) / len(plain.outcomes),
        sum(o.service_ms for o in traced.outcomes) / len(traced.outcomes)))
    result.notes.append(
        "candidates_per_result base: per-site results before the owned-rank filter "
        + ", ".join(f"{n}={c}" for n, c in sorted(site_results.items()))
        + f"; merged results {merged}"
    )
    result.notes.append(
        f"traced {requests} requests at {REPORT_RATE_HZ:g} req/s ({len(plain.outcomes)} "
        f"untraced for the overhead baseline); unattributed = the event loop's busy "
        f"time (every task's run slices) minus span self time; {len(spans)} spans"
    )
    result.trace = recorder
    result.fill_layers()
    return result


def _counting(recorder: SpanRecorder, select, site_results: Dict[str, int], site: str):
    """A site evaluator's ``select`` recorded as ``query.site_select``,
    its result count (before the owned-rank filter) added per site."""

    def traced(*args, **kwargs):
        with recorder.span("query.site_select") as span:
            nodes = select(*args, **kwargs)
            span.attrs["results"] = len(nodes)
        site_results[site] += len(nodes)
        return nodes

    return traced


def _site_call(recorder: SpanRecorder, call_site):
    """``ShardedCluster.call_site`` recorded as ``serving.call_site``
    with the contacted site's name."""

    async def traced(site_name, *args, **kwargs):
        with recorder.span("serving.call_site") as span:
            span.attrs["site"] = site_name
            return await call_site(site_name, *args, **kwargs)

    return traced
