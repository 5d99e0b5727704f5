"""E8 + E14 extension — structural joins over labels.

The structural join (ancestor ⋈ descendant on two node sets) is the
database operator numbering schemes exist for (Li–Moon [6], Zhang et
al. [11] in the paper's related work). This bench compares the
stack-tree sort-merge join against the nested-loop baseline, per
scheme, on the auction corpus.

The E14 tables measure the query fast path's join-side pieces:
rank-index merges vs comparator sorts inside the stack-tree join, and
the compiled-plan LRU cache cold vs warm. Runs under pytest and as a
standalone CI smoke::

    python benchmarks/bench_joins.py --quick
"""

import argparse
import time

import pytest

from conftest import best_of_interleaved, emit, emits_table
from repro.analysis import format_table
from repro.baselines import get_scheme
from repro.core import Ruid2Scheme
from repro.generator import XMARK_QUERIES, generate_xmark
from repro.query import XPathEngine, nested_loop_join, stack_tree_join

_JOIN_SCHEMES = ("uid", "ruid2", "dewey", "prepost", "region")


def _print_only(experiment, headers, rows, title):
    print()
    print(format_table(headers, rows, title=title))


@pytest.fixture(scope="module")
def join_inputs(xmark_bench_tree):
    persons = xmark_bench_tree.find_by_tag("person")
    names = xmark_bench_tree.find_by_tag("name")
    return persons, names


@pytest.mark.parametrize("scheme_name", _JOIN_SCHEMES)
def test_stack_join(benchmark, xmark_bench_tree, join_inputs, scheme_name):
    labeling = get_scheme(scheme_name).build(xmark_bench_tree)
    persons, names = join_inputs
    a_labels = [labeling.label_of(n) for n in persons]
    d_labels = [labeling.label_of(n) for n in names]
    benchmark(lambda: stack_tree_join(labeling, a_labels, d_labels))


@pytest.mark.parametrize("scheme_name", ["ruid2", "region"])
def test_nested_join(benchmark, xmark_bench_tree, join_inputs, scheme_name):
    labeling = get_scheme(scheme_name).build(xmark_bench_tree)
    persons, names = join_inputs
    a_labels = [labeling.label_of(n) for n in persons]
    d_labels = [labeling.label_of(n) for n in names]
    benchmark.pedantic(
        lambda: nested_loop_join(labeling, a_labels, d_labels), rounds=3, iterations=1
    )


@emits_table
def test_join_table(xmark_bench_tree, join_inputs):
    persons, names = join_inputs
    rows = []
    for scheme_name in _JOIN_SCHEMES:
        labeling = get_scheme(scheme_name).build(xmark_bench_tree)
        a_labels = [labeling.label_of(n) for n in persons]
        d_labels = [labeling.label_of(n) for n in names]
        start = time.perf_counter()
        stack_pairs = stack_tree_join(labeling, a_labels, d_labels)
        stack_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        nested_pairs = nested_loop_join(labeling, a_labels, d_labels)
        nested_ms = (time.perf_counter() - start) * 1e3
        assert stack_pairs == nested_pairs
        rows.append(
            (
                scheme_name,
                len(a_labels),
                len(d_labels),
                len(stack_pairs),
                round(stack_ms, 2),
                round(nested_ms, 2),
            )
        )
    emit(
        "E8_joins",
        ("scheme", "|A|", "|D|", "pairs", "stack_ms", "nested_ms"),
        rows,
        "E8 extension: person ⋈ name structural join per scheme",
    )
    # the sort-merge join must beat the quadratic baseline everywhere
    assert all(row[4] < row[5] for row in rows)


def run_join_sort_table(tree, sink=emit, repeats=5, trials=1, min_pass_ms=0.0):
    """Stack-tree join: comparator-sort path vs rank-index path, timed
    interleaved (:func:`conftest.best_of_interleaved`)."""
    persons = tree.find_by_tag("person")
    names = tree.find_by_tag("name")
    rows = []
    for scheme_name in _JOIN_SCHEMES:
        labeling = get_scheme(scheme_name).build(tree)
        a_labels = [labeling.label_of(n) for n in persons]
        d_labels = [labeling.label_of(n) for n in names]

        def comparator():
            return stack_tree_join(labeling, a_labels, d_labels, use_rank_index=False)

        def ranked():
            return stack_tree_join(labeling, a_labels, d_labels)

        # one untimed call each: the first ranked join builds the rank
        # and columnar indexes, which are not what this table prices
        comparator_pairs = comparator()
        assert ranked() == comparator_pairs
        (comparator_ms, ranked_ms), _ = best_of_interleaved(
            [comparator, ranked], repeats=repeats, trials=trials, min_pass_ms=min_pass_ms
        )
        rows.append(
            (
                scheme_name,
                len(comparator_pairs),
                round(comparator_ms, 2),
                round(ranked_ms, 2),
                round(comparator_ms / ranked_ms, 1),
            )
        )
    sink(
        "E14_join_sort",
        ("scheme", "pairs", "comparator_ms", "rank_ms", "speedup"),
        rows,
        f"E14: stack-tree join, comparator sort vs rank index "
        f"(best of {trials} interleaved rounds)",
    )
    return rows


def run_plan_cache_table(tree, sink=emit):
    """Compiled-plan LRU cache: cold parse vs warm lookup latency."""
    labeling = Ruid2Scheme(max_area_size=24).build(tree)
    engine = XPathEngine(tree, labeling=labeling)
    queries = list(XMARK_QUERIES)
    start = time.perf_counter()
    for query in queries:
        engine.compile(query)
    cold_us = (time.perf_counter() - start) * 1e6 / len(queries)
    warm_rounds = 50
    start = time.perf_counter()
    for _ in range(warm_rounds):
        for query in queries:
            engine.compile(query)
    warm_us = (time.perf_counter() - start) * 1e6 / (len(queries) * warm_rounds)
    stats = engine.stats
    rows = [
        (
            len(queries),
            round(cold_us, 1),
            round(warm_us, 2),
            round(cold_us / warm_us, 1),
            stats.plan_hits,
            stats.plan_misses,
            stats.plan_evictions,
        )
    ]
    sink(
        "E14_plan_cache",
        ("plans", "cold_us", "warm_us", "speedup", "hits", "misses", "evictions"),
        rows,
        "E14: compiled-plan LRU cache, per-query compile latency",
    )
    return rows


@emits_table
def test_e14_join_sort_table(xmark_bench_tree):
    rows = run_join_sort_table(xmark_bench_tree)
    # the rank-index merge must not lose to the comparator sort
    assert all(row[3] <= row[2] for row in rows)


@emits_table
def test_e14_plan_cache_table(xmark_bench_tree):
    rows = run_plan_cache_table(xmark_bench_tree)
    ((_plans, cold_us, warm_us, _s, hits, misses, evictions),) = rows
    assert warm_us < cold_us
    assert misses == len(XMARK_QUERIES) and evictions == 0
    assert hits == 50 * len(XMARK_QUERIES)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small documents only (CI smoke; does not overwrite results)",
    )
    args = parser.parse_args()
    # smoke mode prints but must not clobber the checked-in tables
    sink = _print_only if args.quick else emit
    scale = 0.1 if args.quick else 0.3
    tree = generate_xmark(scale=scale, seed=2002)
    # many short interleaved rounds: each side's best is taken from
    # quiet moments of the same stretch of machine time
    join_rows = run_join_sort_table(tree, sink=sink, repeats=1, trials=31, min_pass_ms=2.0)
    for scheme_name, _pairs, comparator_ms, rank_ms, _speedup in join_rows:
        assert rank_ms <= comparator_ms, (
            f"{scheme_name}: rank-index join {rank_ms}ms slower "
            f"than comparator {comparator_ms}ms"
        )
    plan_rows = run_plan_cache_table(tree, sink=sink)
    assert plan_rows[0][2] < plan_rows[0][1], "warm plan lookup slower than cold parse"
    print("\nok")


if __name__ == "__main__":
    main()
