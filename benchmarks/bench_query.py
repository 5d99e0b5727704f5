"""E8 + E12 + E14 + E15 — query evaluation (paper §3.5, §4, observation 3).

E8 holds the XPath query set fixed and swaps the evaluation strategy:
rUID identifier arithmetic vs navigational DOM walking. The paper's
observation 3 expects rUID "quite competitive" in main memory; the
structural axes (ancestor/preceding/following-heavy queries) are where
the identifier arithmetic pays off.

E12 regenerates the §4 "database file/table selection" idea: tag
lookups routed to per-area tables via a structural pre-filter touch a
fraction of the tables a blind scan does.

E14 measures the query fast path: the literal-step, node-at-a-time
legacy (``StoreEvaluator(store, batched=False)``: no ``//`` fusion, no
set-at-a-time steps) vs the default batched evaluator (rank columns +
``//`` fusion + synopsis pruning) vs the navigational baseline, all
over the same ``MemoryNodeStore`` columns. Runs under pytest and as a
standalone CI smoke::

    python benchmarks/bench_query.py --quick

E15 prices the observability layer (docs/OBSERVABILITY.md): the same
query set evaluated bare (no tracer), under the no-op tracer, and
under full instrumentation (live tracer + metrics + slow-query log).
``--quick`` asserts the no-op tracer costs < 5% and full
instrumentation < 10%; ``--explain`` prints the EXPLAIN ANALYZE plan
of every query instead of timing anything.
"""

import argparse
import time

import pytest

from conftest import best_of_interleaved, emit, emits_table
from repro.analysis import format_table
from repro.core import Ruid2Scheme
from repro.generator import (
    DBLP_QUERIES,
    TREEBANK_QUERIES,
    XMARK_QUERIES,
    generate_dblp,
    generate_treebank,
    generate_xmark,
)
from repro.obs import NULL_TRACER, MetricsRegistry, SlowQueryLog, Tracer
from repro.query import XPathEngine
from repro.storage import XmlDatabase
from repro.store.evaluator import StoreEvaluator
from repro.store.memory import MemoryNodeStore


def _print_only(experiment, headers, rows, title):
    print()
    print(format_table(headers, rows, title=title))


@pytest.fixture(scope="module")
def xmark_engine(xmark_bench_tree):
    labeling = Ruid2Scheme(max_area_size=24).build(xmark_bench_tree)
    return XPathEngine(xmark_bench_tree, labeling=labeling)


@pytest.fixture(scope="module")
def dblp_engine(dblp_bench_tree):
    labeling = Ruid2Scheme(max_area_size=24).build(dblp_bench_tree)
    return XPathEngine(dblp_bench_tree, labeling=labeling)


@pytest.fixture(scope="module")
def treebank_engine():
    tree = generate_treebank(sentences=40, max_depth=16, seed=2002)
    labeling = Ruid2Scheme(max_area_size=24).build(tree)
    return XPathEngine(tree, labeling=labeling)


@pytest.mark.parametrize("strategy", ["ruid", "navigational"])
def test_xmark_query_set(benchmark, xmark_engine, strategy):
    compiled = [xmark_engine.compile(q) for q in XMARK_QUERIES]
    evaluator = xmark_engine.evaluator(strategy)

    def run():
        for expression in compiled:
            evaluator.select(expression)

    benchmark(run)


@pytest.mark.parametrize("strategy", ["ruid", "navigational"])
def test_dblp_query_set(benchmark, dblp_engine, strategy):
    compiled = [dblp_engine.compile(q) for q in DBLP_QUERIES]
    evaluator = dblp_engine.evaluator(strategy)

    def run():
        for expression in compiled:
            evaluator.select(expression)

    benchmark(run)


@pytest.mark.parametrize("strategy", ["ruid", "navigational"])
def test_treebank_query_set(benchmark, treebank_engine, strategy):
    compiled = [treebank_engine.compile(q) for q in TREEBANK_QUERIES]
    evaluator = treebank_engine.evaluator(strategy)

    def run():
        for expression in compiled:
            evaluator.select(expression)

    benchmark(run)


@emits_table
def test_e8_table(xmark_engine, dblp_engine, treebank_engine):
    rows = []
    for corpus, engine, queries in (
        ("xmark", xmark_engine, XMARK_QUERIES),
        ("dblp", dblp_engine, DBLP_QUERIES),
        ("treebank", treebank_engine, TREEBANK_QUERIES),
    ):
        for query in queries:
            navigational = engine.select(query, "navigational")
            start = time.perf_counter()
            for _ in range(3):
                engine.select(query, "navigational")
            nav_time = (time.perf_counter() - start) / 3
            ruid = engine.select(query, "ruid")
            start = time.perf_counter()
            for _ in range(3):
                engine.select(query, "ruid")
            ruid_time = (time.perf_counter() - start) / 3
            assert [n.node_id for n in navigational] == [n.node_id for n in ruid]
            rows.append(
                (
                    corpus,
                    query if len(query) <= 46 else query[:43] + "...",
                    len(navigational),
                    round(ruid_time * 1e3, 2),
                    round(nav_time * 1e3, 2),
                )
            )
    emit(
        "E8_queries",
        ("corpus", "query", "results", "ruid_ms", "nav_ms"),
        rows,
        "E8: XPath evaluation, rUID arithmetic vs navigational (3-run mean)",
    )


def _time_queries(evaluator, compiled, repeats=3):
    start = time.perf_counter()
    for _ in range(repeats):
        for expression in compiled:
            evaluator.select(expression)
    return (time.perf_counter() - start) * 1e3 / repeats


def run_fastpath_table(corpora, sink=emit, repeats=3):
    """Legacy per-node vs batched set-at-a-time vs navigational."""
    rows = []
    for corpus, tree, queries in corpora:
        labeling = Ruid2Scheme(max_area_size=24).build(tree)
        engine = XPathEngine(tree, labeling=labeling)
        compiled = [engine.compile(q) for q in queries]
        legacy = StoreEvaluator(MemoryNodeStore(labeling), batched=False)
        fast = engine.evaluator("ruid")
        nav = engine.evaluator("navigational")
        for evaluator in (legacy, fast, nav):  # warm every cache
            for expression in compiled:
                evaluator.select(expression)
        legacy_ms = _time_queries(legacy, compiled, repeats)
        fast_ms = _time_queries(fast, compiled, repeats)
        nav_ms = _time_queries(nav, compiled, repeats)
        for expression in compiled:  # all three agree, node for node
            expected = [n.node_id for n in nav.select(expression)]
            assert [n.node_id for n in legacy.select(expression)] == expected
            assert [n.node_id for n in fast.select(expression)] == expected
        counters = engine.stats.snapshot()
        rows.append(
            (
                corpus,
                len(queries),
                round(legacy_ms, 2),
                round(fast_ms, 2),
                round(nav_ms, 2),
                round(legacy_ms / fast_ms, 1),
                counters["batched_steps"],
                counters["synopsis_skips"],
            )
        )
    sink(
        "E14_fastpath",
        (
            "corpus",
            "queries",
            "legacy_ms",
            "fast_ms",
            "nav_ms",
            "speedup",
            "batched",
            "skips",
        ),
        rows,
        f"E14: evaluator fast path vs literal-step legacy, full query set "
        f"({repeats}-run mean)",
    )
    return rows


@emits_table
def test_e14_fastpath_table(xmark_bench_tree, dblp_bench_tree):
    treebank = generate_treebank(sentences=40, max_depth=16, seed=2002)
    rows = run_fastpath_table(
        (
            ("xmark", xmark_bench_tree, XMARK_QUERIES),
            ("dblp", dblp_bench_tree, DBLP_QUERIES),
            ("treebank", treebank, TREEBANK_QUERIES),
        )
    )
    # the tentpole claim: batched beats legacy by >= 2x on every corpus
    assert all(row[2] / row[3] >= 2.0 for row in rows)


@emits_table
def test_e12_table_routing(xmark_bench_tree):
    from repro.query import TagAreaSynopsis

    labeling = Ruid2Scheme(max_area_size=24).build(xmark_bench_tree)
    synopsis = TagAreaSynopsis(labeling.core)
    database = XmlDatabase(page_size=1024, pool_pages=128)
    document = database.store_document(
        "auction", xmark_bench_tree, labeling, partition_by_area=True
    )
    rows = []
    for tag in ("person", "item", "bidder", "price", "city"):
        all_rows, scanned_blind = document.nodes_with_tag_routed(tag)
        # structural pre-filter: the tag→area synopsis of section 4
        routed_rows, scanned_routed = document.nodes_with_tag_routed(
            tag, synopsis.areas_for(tag)
        )
        assert len(routed_rows) == len(all_rows)
        rows.append(
            (
                tag,
                len(all_rows),
                scanned_blind,
                scanned_routed,
                round(scanned_routed / scanned_blind, 3) if scanned_blind else 0.0,
            )
        )
    emit(
        "E12_routing",
        ("tag", "matches", "tables_blind", "tables_routed", "fraction"),
        rows,
        "E12: per-area table routing via global index (paper section 4)",
    )
    # routing must never scan more tables than the blind approach
    assert all(row[3] <= row[2] for row in rows)


def _query_pass(engine, queries):
    def run():
        for query in queries:
            engine.select(query)

    return run


def run_observability_table(corpora, sink=emit, repeats=3, trials=3, min_pass_ms=0.0):
    """E15: the cost of watching. Three engines over one labeling:
    bare (tracer ``None`` — the zero-instrumentation hot path), no-op
    tracer (instrumented code paths, null sink), and full (live
    tracer + metrics registry + slow-query log), timed interleaved
    (:func:`conftest.best_of_interleaved`)."""
    rows = []
    for corpus, tree, queries in corpora:
        labeling = Ruid2Scheme(max_area_size=24).build(tree)
        bare = XPathEngine(tree, labeling=labeling)
        noop = XPathEngine(tree, labeling=labeling, tracer=NULL_TRACER)
        tracer = Tracer()
        registry = MetricsRegistry()
        slow_log = SlowQueryLog()  # production default threshold
        full = XPathEngine(
            tree, labeling=labeling,
            tracer=tracer, registry=registry, slow_log=slow_log,
        )
        passes = [_query_pass(engine, queries) for engine in (bare, noop, full)]
        for run in passes:  # warm plan + candidate caches
            run()
        (bare_ms, noop_ms, full_ms), (_, noop_ratio, full_ratio) = best_of_interleaved(
            passes, repeats=repeats, trials=trials, min_pass_ms=min_pass_ms
        )
        rows.append(
            (
                corpus,
                len(queries),
                round(bare_ms, 2),
                round(noop_ms, 2),
                round(full_ms, 2),
                round((noop_ratio - 1.0) * 100, 1),
                round((full_ratio - 1.0) * 100, 1),
                len(tracer.finished()) + tracer.dropped,
                slow_log.slow_count,
            )
        )
    sink(
        "E15_observability",
        (
            "corpus",
            "queries",
            "bare_ms",
            "noop_ms",
            "full_ms",
            "noop_pct",
            "full_pct",
            "spans",
            "slow",
        ),
        rows,
        f"E15: observability overhead, bare vs no-op tracer vs full "
        f"(ms: best of {trials} interleaved rounds; pct: median paired ratio)",
    )
    return rows


@emits_table
def test_e15_observability_table(xmark_bench_tree, dblp_bench_tree):
    treebank = generate_treebank(sentences=40, max_depth=16, seed=2002)
    corpora = (
        ("xmark", xmark_bench_tree, XMARK_QUERIES),
        ("dblp", dblp_bench_tree, DBLP_QUERIES),
        ("treebank", treebank, TREEBANK_QUERIES),
    )
    run_observability_table(corpora)
    # EXPLAIN ANALYZE must account for every query in the E14 suite:
    # each non-scalar step carries a call count, cardinalities and a
    # wall time, and the analyzed result matches a plain select.
    # (Overhead percentages are asserted only in the --quick smoke —
    # shared CI runners make timing ratios too noisy for tier-1.)
    for _corpus, tree, queries in corpora:
        labeling = Ruid2Scheme(max_area_size=24).build(tree)
        engine = XPathEngine(tree, labeling=labeling)
        for query in queries:
            plan = engine.explain(query, analyze=True)
            assert plan.analyzed
            expected = [n.node_id for n in engine.select(query)]
            assert [n.node_id for n in plan.result] == expected
            assert plan.result_count == len(expected)
            for path_plan in plan.paths:
                for step in path_plan.steps:
                    assert step.calls >= 1, (query, step)
                    assert step.time_ns is not None, (query, step)
                    assert step.in_count is not None, (query, step)
                    assert step.out_count is not None, (query, step)


def _print_explains(corpora):
    for corpus, tree, queries in corpora:
        labeling = Ruid2Scheme(max_area_size=24).build(tree)
        engine = XPathEngine(tree, labeling=labeling)
        print(f"\n=== {corpus} ===")
        for query in queries:
            print()
            print(engine.explain(query, analyze=True).format())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small documents only (CI smoke; does not overwrite results)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN ANALYZE for every query instead of timing",
    )
    args = parser.parse_args()
    # smoke mode prints but must not clobber the checked-in tables
    sink = _print_only if args.quick else emit
    if args.quick:
        corpora = (
            ("xmark", generate_xmark(scale=0.1, seed=2002), XMARK_QUERIES),
            ("dblp", generate_dblp(entries=150, seed=2002), DBLP_QUERIES),
        )
    else:
        corpora = (
            ("xmark", generate_xmark(scale=0.3, seed=2002), XMARK_QUERIES),
            ("dblp", generate_dblp(entries=600, seed=2002), DBLP_QUERIES),
            (
                "treebank",
                generate_treebank(sentences=40, max_depth=16, seed=2002),
                TREEBANK_QUERIES,
            ),
        )
    if args.explain:
        _print_explains(corpora)
        return
    rows = run_fastpath_table(corpora, sink=sink)
    # CI gate: the warm default evaluator must not be slower than the
    # navigational baseline, and must beat its own legacy form >= 2x.
    for corpus, _queries, legacy_ms, fast_ms, nav_ms, _s, _b, _k in rows:
        assert fast_ms <= nav_ms, (
            f"{corpus}: fast path {fast_ms}ms slower than navigational {nav_ms}ms"
        )
        assert legacy_ms / fast_ms >= 2.0, (
            f"{corpus}: fast path only {legacy_ms / fast_ms:.1f}x over legacy"
        )
    # quick mode takes many short interleaved rounds: the overhead
    # percentages the gate below asserts on are medians of per-round
    # ratios, which a burst of machine noise in a few rounds cannot move
    obs_rows = run_observability_table(
        corpora,
        sink=sink,
        repeats=1 if args.quick else 3,
        trials=41 if args.quick else 3,
        min_pass_ms=2.0 if args.quick else 0.0,
    )
    if args.quick:
        # CI gate for the observability layer: the no-op tracer must
        # cost < 5% over the bare hot path, full instrumentation < 10%.
        for corpus, _q, _b, _n, _f, noop_pct, full_pct, _s, _sl in obs_rows:
            assert noop_pct < 5.0, (
                f"{corpus}: no-op tracer overhead {noop_pct}% >= 5%"
            )
            assert full_pct < 10.0, (
                f"{corpus}: full instrumentation overhead {full_pct}% >= 10%"
            )
    print("\nok")


if __name__ == "__main__":
    main()
