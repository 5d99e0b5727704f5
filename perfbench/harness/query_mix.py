"""query-mix: closed loop, one client, ``XPathEngine.select`` with the
default strategy over three memory-resident documents.

The stream is dealt in shuffled blocks: every XMark/DBLP/Treebank base
query four times plus five fresh predicate-literal variants per template
(about 21% of the stream), so the parser and plan cache stay on the
path while each query's share stays fixed across seeds.
"""

from __future__ import annotations

import random
from time import perf_counter, perf_counter_ns
from typing import Dict, List

from repro.query.engine import XPathEngine
from repro.xmltree.parser import parse

from . import corpus
from .common import (
    MIN_SAMPLES,
    Metric,
    Result,
    RunClock,
    layer_shares,
    overhead_pct,
    peak_rss_mb,
    percentiles,
    query_layers,
    ratio,
    repeated_setup,
    setup_layers,
    summed,
    timing,
)
from .oracle import NavigationalOracle, node_ids
from .probes import Patches, StoreProxy
from .spans import SpanRecorder, layer_self_ns, self_times


class Setup:
    def __init__(self, texts: Dict[str, str]):
        self.steps = {"parse_s": 0.0, "label_s": 0.0}
        self.trees = {}
        self.engines: Dict[str, XPathEngine] = {}
        for name, text in texts.items():
            began = perf_counter()
            tree = parse(text)
            parsed = perf_counter()
            engine = XPathEngine(tree)
            engine.labeling()
            labeled = perf_counter()
            self.steps["parse_s"] += parsed - began
            self.steps["label_s"] += labeled - parsed
            self.trees[name] = tree
            self.engines[name] = engine
        # warm-up: every base query once builds the stores, columnar
        # indexes and candidate lists the timed loop then reuses
        for doc, expression in corpus.base_queries():
            self.engines[doc].select(expression)

    def stores(self):
        """The NodeStore each engine's default evaluator reads through."""
        return {name: engine.evaluator().store for name, engine in self.engines.items()}

    def index_bytes(self) -> float:
        """In-memory index bytes per node: columnar buffers + labels."""
        total_bytes = 0
        nodes = 0
        for name, store in self.stores().items():
            labeling = self.engines[name].labeling()
            total_bytes += store.columnar.buffer_bytes() + labeling.memory_bytes()
            nodes += store.columnar.size
        return total_bytes / nodes


def _measure(setup: Setup, oracles, stream_iter, seconds: float, result: Result,
             recorder=None, min_samples: int = MIN_SAMPLES):
    """Run the closed loop; returns per-select latencies (ms) and the
    total result count."""
    latencies: List[float] = []
    results = 0
    clock = RunClock(seconds, min_samples)
    engines = setup.engines
    while not clock.done(len(latencies)):
        for doc, expression in next(stream_iter):
            engine = engines[doc]
            if recorder is not None:
                with recorder.span("bench.select"):
                    began = perf_counter_ns()
                    nodes = engine.select(expression)
                    elapsed = perf_counter_ns() - began
            else:
                began = perf_counter_ns()
                nodes = engine.select(expression)
                elapsed = perf_counter_ns() - began
            latencies.append(elapsed / 1e6)
            clock.add(elapsed / 1e9)
            result.attempted += 1
            results += len(nodes)
            if node_ids(nodes) != oracles[doc].ids(expression):
                result.wrong += 1
    return latencies, results


def _blocks(seed: int):
    rng = random.Random(seed)
    while True:
        yield corpus.query_mix_block(rng)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("query-mix")
    texts = {name: corpus.document_text(name) for name in corpus.DOCUMENTS}
    setup, setup_times = repeated_setup(lambda: Setup(texts))
    oracles = {name: NavigationalOracle(tree) for name, tree in setup.trees.items()}
    stream = _blocks(seed)
    setup_s = percentiles.median(setup_times)

    if not trace:
        latencies, _results = _measure(setup, oracles, stream, seconds, result)
        p50, p90 = timing(latencies)
        timed_s = sum(latencies) / 1e3
        result.end_to_end = {
            "setup_s": Metric(setup_s, "s", len(setup_times)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "op_p50_ms": Metric(p50.value, "ms", p50.samples, "op = one select"),
        }
        result.detail = {
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "queries_per_s": Metric(len(latencies) / timed_s, "1/s", len(latencies)),
            "bytes_per_node": Metric(setup.index_bytes(), "B", 1),
        }
        result.failed = result.wrong
        return result

    # traced run: an untraced half for the overhead baseline, then the
    # same loop with every wrap point recording
    half = seconds / 2
    plain, _ = _measure(setup, oracles, stream, half, result)
    stats_before = {n: e.stats.snapshot() for n, e in setup.engines.items()}
    store_before = {n: s.stats_snapshot() for n, s in setup.stores().items()}
    recorder = SpanRecorder()
    patches = Patches()
    for engine in setup.engines.values():
        patches.wrap(recorder, engine, "compile", "query.compile")
        patches.wrap(recorder, engine, "select", "query.select")
        evaluator = engine.evaluator()
        patches.set(evaluator, "store", StoreProxy(evaluator.store, recorder))
    try:
        traced, results = _measure(setup, oracles, stream, half, result, recorder)
    finally:
        patches.restore()
    result.failed = result.wrong
    queries = len(traced)
    spans = recorder.spans
    own = self_times(spans)
    query_delta = summed(e.stats.delta_since(stats_before[n]) for n, e in setup.engines.items())
    store_delta = summed(s.stats_delta(store_before[n]) for n, s in setup.stores().items())

    compile_ns = sum(s.duration for s in spans if s.name == "query.compile")
    select_self = sum(own[s.sid] for s in spans if s.name == "query.select")
    store_spans = [s for s in spans if s.layer == "store"]

    setup_layers(result, setup.steps)
    query_layers(result, query_delta)
    result.layer("query.compile_ms_per_query", compile_ns / 1e6 / queries)
    result.layer("query.eval_self_ms_per_query", select_self / 1e6 / queries)
    result.layer("store.self_ms_per_query", sum(own[s.sid] for s in store_spans) / 1e6 / queries)
    result.layer("store.calls_per_query", len(store_spans) / queries)
    result.layer("store.fetches_per_result", ratio(store_delta["fetches"], results))
    result.layer("store.rank_probes_per_result", ratio(store_delta["rank_probes"], results))

    roots = [s for s in spans if s.parent is None]
    total_ns = sum(s.duration for s in roots)
    layer_shares(result, layer_self_ns(spans), total_ns, sum(own[s.sid] for s in roots))
    result.layer("bench.trace_overhead_pct", overhead_pct(
        sum(plain) / len(plain), sum(traced) / len(traced)))
    result.notes.append(
        f"traced {queries} selects ({len(plain)} untraced for the overhead baseline); "
        f"{len(spans)} spans"
    )
    result.trace = recorder
    result.fill_layers()
    return result

