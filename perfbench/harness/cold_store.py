"""cold-store: closed loop, one client, sessions alternating between the
paged store and the SQLite store.

An XMark document (scale 0.3) is shredded once per set-up into both
backends. Each session is a fresh attach (``PagedNodeStore`` over an
``XmlDatabase(page_size=1024, pool_pages=8)``, or
``SqliteNodeStore.attach`` on a file) followed by one pass of
``XMARK_QUERIES`` through ``XPathEngine(None, store=...)``. The pass
starts with the same query every session, so the open latency (attach
to first answer) measures the same work each time; the rest of the
pass is shuffled by the seed. That first answer is counted in the open
latency, not among the per-select latencies. Sessions come in pairs,
one per backend, so both backends have the same share of every sample.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from time import perf_counter, perf_counter_ns
from typing import Dict, List

from repro.core.scheme import Ruid2Scheme
from repro.generator import XMARK_QUERIES
from repro.query.engine import XPathEngine
from repro.storage.database import XmlDatabase
from repro.store import PagedNodeStore, SqliteNodeStore
from repro.xmltree.parser import parse

from . import corpus
from .common import (
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
from .oracle import StoredIdentity
from .probes import Patches, StoreProxy
from .spans import SpanRecorder, layer_self_ns, self_times

BACKENDS = ("paged", "sqlite")

#: where the SQLite files live: inside the checkout, removed at the end
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), ".perfbench_out")


class Setup:
    def __init__(self, text: str, directory: str):
        self.steps = {}
        began = perf_counter()
        self.tree = parse(text)
        parsed = perf_counter()
        self.labeling = Ruid2Scheme().build(self.tree)
        labeled = perf_counter()
        self.database = XmlDatabase(page_size=1024, pool_pages=8)
        self.document = self.database.store_document("doc", self.tree, self.labeling)
        PagedNodeStore(self.document)  # builds the ranks table once
        self.sqlite_path = os.path.join(directory, "doc.db")
        if os.path.exists(self.sqlite_path):
            os.remove(self.sqlite_path)
        SqliteNodeStore.shred("doc", self.labeling, path=self.sqlite_path).close()
        shredded = perf_counter()
        self.steps = {
            "parse_s": parsed - began,
            "label_s": labeled - parsed,
            "shred_s": shredded - labeled,
        }

    def attach(self, backend: str):
        if backend == "paged":
            return PagedNodeStore(self.document)
        return SqliteNodeStore.attach("doc", path=self.sqlite_path)

    def disk_bytes_per_node(self) -> Dict[str, float]:
        nodes = self.tree.size()
        pager = self.database.pager
        return {
            "paged": pager.page_count * pager.page_size / nodes,
            "sqlite": os.path.getsize(self.sqlite_path) / nodes,
        }


class Ledger:
    """Per-backend samples and counters of one measurement."""

    def __init__(self) -> None:
        self.open_ms: Dict[str, List[float]] = {b: [] for b in BACKENDS}
        self.query_ms: List[float] = []
        self.queries: Dict[str, int] = {b: 0 for b in BACKENDS}
        self.results: Dict[str, int] = {b: 0 for b in BACKENDS}
        self.store: Dict[str, Dict[str, int]] = {b: {} for b in BACKENDS}
        self.steps: Dict[str, Dict[str, int]] = {b: {} for b in BACKENDS}
        self.session_ms: List[float] = []


def _session(setup: Setup, identity: StoredIdentity, expected, backend: str,
             order: List[str], ledger: Ledger, result: Result, recorder=None,
             patches=None) -> None:
    """One fresh attach and one pass; everything between the attach
    call and the last answer is timed, identity checks are not."""
    attach = setup.attach
    began = perf_counter_ns()
    if recorder is not None:
        with recorder.span(f"store.attach_{backend}"):
            store = attach(backend)
        handed = StoreProxy(store, recorder)
    else:
        store = attach(backend)
        handed = store
    engine = XPathEngine(None, store=handed)
    if patches is not None:
        patches.wrap(recorder, engine, "select", "query.select")
        patches.wrap(recorder, engine, "compile", "query.compile")
    session_ns = perf_counter_ns() - began
    answers = []
    try:
        for index, expression in enumerate(order):
            if recorder is not None:
                with recorder.span("bench.select"):
                    start = perf_counter_ns()
                    nodes = engine.select(expression, "store")
                    elapsed = perf_counter_ns() - start
            else:
                start = perf_counter_ns()
                nodes = engine.select(expression, "store")
                elapsed = perf_counter_ns() - start
            session_ns += elapsed
            if index == 0:
                ledger.open_ms[backend].append((perf_counter_ns() - began) / 1e6)
            else:
                ledger.query_ms.append(elapsed / 1e6)
            answers.append((expression, nodes))
        ledger.session_ms.append(session_ns / 1e6)
        ledger.store[backend] = summed([ledger.store[backend], store.stats_snapshot()])
        ledger.steps[backend] = summed([ledger.steps[backend], engine.stats.snapshot()])
        for expression, nodes in answers:
            result.attempted += 1
            ledger.queries[backend] += 1
            ledger.results[backend] += len(nodes)
            if backend == "paged":
                got = identity.paged_key(store, nodes)
            else:
                got = identity.sqlite_key(store, nodes)
            if got != expected[expression]:
                result.wrong += 1
    finally:
        if backend == "sqlite":
            store.close()


def _measure(setup, identity, expected, orders, seconds, result, recorder=None,
             patches=None) -> Ledger:
    ledger = Ledger()
    clock = RunClock(seconds, min_samples=0)
    pair = 0
    while not clock.done(0):
        first = pair % 2  # alternate which backend leads the pair
        for backend in (BACKENDS[first], BACKENDS[1 - first]):
            before = len(ledger.session_ms)
            _session(setup, identity, expected, backend, next(orders), ledger,
                     result, recorder, patches)
            clock.add(ledger.session_ms[before] / 1e3)
        pair += 1
    return ledger


def _orders(seed: int):
    while True:
        for order in corpus.session_orders(seed, 64, XMARK_QUERIES):
            yield order
        seed += 1


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("cold-store")
    text = corpus.cold_xmark_text()
    os.makedirs(SCRATCH, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="cold-store-", dir=SCRATCH)
    try:
        return _run(result, text, directory, seed, seconds, trace)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(result, text, directory, seed, seconds, trace) -> Result:
    setup, setup_times = repeated_setup(lambda: Setup(text, directory))
    identity = StoredIdentity(setup.labeling)
    oracle = XPathEngine(setup.tree)
    expected = {
        q: identity.oracle_key(oracle.select(q, strategy="navigational"))
        for q in XMARK_QUERIES
    }
    orders = _orders(seed)
    setup_s = percentiles.median(setup_times)

    if not trace:
        io_before = setup.database.io_snapshot()
        ledger = _measure(setup, identity, expected, orders, seconds, result)
        io = setup.database.io_delta(io_before)
        result.failed = result.wrong
        p50, p90 = timing(ledger.query_ms)
        opens = {b: percentiles.quantile(ledger.open_ms[b], 0.5) for b in BACKENDS}
        sessions = len(ledger.session_ms)
        op = percentiles.geometric_mean(list(opens.values()))
        disk = setup.disk_bytes_per_node()
        result.end_to_end = {
            "setup_s": Metric(setup_s, "s", len(setup_times)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "op_p50_ms": Metric(op, "ms", sessions,
                                "op = session open; geometric mean of the per-backend medians"),
        }
        result.detail = {
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "open_p50_ms.paged": Metric(opens["paged"], "ms", len(ledger.open_ms["paged"])),
            "open_p50_ms.sqlite": Metric(opens["sqlite"], "ms", len(ledger.open_ms["sqlite"])),
            "bytes_per_node.paged": Metric(disk["paged"], "B", 1, "on disk"),
            "bytes_per_node.sqlite": Metric(disk["sqlite"], "B", 1, "on disk"),
        }
        result.notes.append(
            f"{sessions} sessions; paged disk reads {io['disk_reads']}, "
            f"buffer hits {io['buffer_hits']} / misses {io['buffer_misses']}"
        )
        return result

    half = seconds / 2
    plain = _measure(setup, identity, expected, orders, half, result)
    recorder = SpanRecorder()
    patches = Patches()
    io_before = setup.database.io_snapshot()
    try:
        ledger = _measure(setup, identity, expected, orders, half, result, recorder, patches)
    finally:
        patches.restore()
    io = setup.database.io_delta(io_before)
    result.failed = result.wrong
    spans = recorder.spans
    own = self_times(spans)
    queries = sum(ledger.queries.values())
    store_spans = [s for s in spans if s.layer == "store" and not s.name.startswith("store.attach")]
    attaches = [s for s in spans if s.name.startswith("store.attach")]
    steps = summed(ledger.steps.values())
    compile_ns = sum(s.duration for s in spans if s.name == "query.compile")
    select_self = sum(own[s.sid] for s in spans if s.name == "query.select")
    sql = ledger.store["sqlite"]
    sql_steps = ledger.steps["sqlite"]
    sql_all_steps = sql_steps["batched_steps"] + sql_steps["fallback_steps"] + sql_steps["pushdown_steps"]
    results_total = sum(ledger.results.values())
    fetches = ledger.store["paged"]["fetches"] + sql["fetches"]
    probes = ledger.store["paged"]["rank_probes"] + sql["rank_probes"]

    setup_layers(result, setup.steps)
    query_layers(result, steps)
    result.layer("query.compile_ms_per_query", compile_ns / 1e6 / queries)
    result.layer("query.eval_self_ms_per_query", select_self / 1e6 / queries)
    result.layer("store.self_ms_per_query", sum(own[s.sid] for s in store_spans) / 1e6 / queries)
    result.layer("store.calls_per_query", len(store_spans) / queries)
    result.layer("store.fetches_per_result", ratio(fetches, results_total))
    result.layer("store.rank_probes_per_result", ratio(probes, results_total))
    result.layer("store.sql_queries_per_query", ratio(sql["sql_queries"], ledger.queries["sqlite"]))
    result.layer("store.sql_rows_per_result", ratio(sql["sql_rows"], ledger.results["sqlite"]))
    result.layer("store.pushdown_step_share", ratio(sql_steps["pushdown_steps"], sql_all_steps))
    result.layer("store.attach_ms", sum(s.duration for s in attaches) / 1e6 / len(attaches))
    hits, misses = io["buffer_hits"], io["buffer_misses"]
    result.layer("storage.buffer_hit_rate", ratio(hits, hits + misses))
    result.layer("storage.disk_reads_per_query", ratio(io["disk_reads"], ledger.queries["paged"]))

    roots = [s for s in spans if s.parent is None]
    total_ns = sum(s.duration for s in roots)
    layer_shares(result, layer_self_ns(spans), total_ns,
                 sum(own[s.sid] for s in roots if s.name == "bench.select"))
    result.layer("bench.trace_overhead_pct", overhead_pct(
        sum(plain.session_ms) / len(plain.session_ms),
        sum(ledger.session_ms) / len(ledger.session_ms)))
    result.notes.append(
        f"traced {len(ledger.session_ms)} sessions ({len(plain.session_ms)} untraced "
        f"for the overhead baseline); {len(spans)} spans; pager disk reads and buffer "
        "hits are counts on the in-memory disk, not device time"
    )
    result.trace = recorder
    result.fill_layers()
    return result
