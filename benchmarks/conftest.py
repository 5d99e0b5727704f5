"""Shared benchmark fixtures.

Every bench regenerates one experiment of DESIGN.md's index (E1-E12),
prints its result table, and also writes it to
``benchmarks/results/<experiment>.txt`` so the output survives
pytest's stdout capture. Run with::

    pytest benchmarks/ --benchmark-only
    pytest benchmarks/ -s          # to watch the tables scroll by
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import functools
import inspect
import statistics
import time

import pytest

from repro.analysis import format_table
from repro.generator import generate_dblp, generate_xmark

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def pytest_collection_modifyitems(items):
    """Everything collected from benchmarks/ carries the bench marker
    (deselect repo-wide with ``-m 'not bench'``)."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def emits_table(func):
    """Make a table-generating test visible to ``--benchmark-only``.

    pytest-benchmark skips tests that never touch the ``benchmark``
    fixture under ``--benchmark-only``; the experiment tables must
    regenerate in that mode too, so this wrapper runs the test body as
    a single-round benchmark.
    """
    original_params = list(inspect.signature(func).parameters)

    @functools.wraps(func)
    def wrapper(benchmark, **kwargs):
        benchmark.pedantic(lambda: func(**kwargs), rounds=1, iterations=1)

    wrapper.__signature__ = inspect.Signature(
        [inspect.Parameter("benchmark", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [
            inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY)
            for name in original_params
        ]
    )
    return wrapper


def emit(experiment: str, headers, rows, title: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    table = format_table(headers, rows, title=title)
    print()
    print(table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")


def best_of_interleaved(passes, repeats=3, trials=3, min_pass_ms=0.0):
    """Time each zero-argument callable in *passes* over *trials*
    interleaved rounds; each measurement averages *repeats* calls.

    Within a round the passes run back to back — in alternating order
    from one round to the next — so drift in machine speed hits all of
    them alike. With *min_pass_ms*, *repeats* first grows until the
    slowest pass's measurement lasts at least that long.

    Returns ``(best, ratios)``: per pass, its best-of-*trials* wall time
    (ms), and the median over rounds of its time divided by
    ``passes[0]``'s time in the same round. The paired median is the
    steadier overhead estimate on a shared machine: a ratio of two
    minima mixes the quietest moment of each pass, which need not
    coincide."""
    if min_pass_ms > 0:
        slowest = 0.0
        for run in passes:
            start = time.perf_counter()
            run()
            slowest = max(slowest, (time.perf_counter() - start) * 1e3)
        if slowest > 0:
            repeats = max(repeats, int(min_pass_ms / slowest) + 1)
    times = [[] for _ in passes]
    order = list(range(len(passes)))
    for _ in range(trials):
        for slot in order:
            run = passes[slot]
            start = time.perf_counter()
            for _ in range(repeats):
                run()
            times[slot].append((time.perf_counter() - start) * 1e3 / repeats)
        order.reverse()
    best = [min(samples) for samples in times]
    ratios = [
        statistics.median(mine / base for mine, base in zip(samples, times[0]))
        for samples in times
    ]
    return best, ratios


@pytest.fixture(scope="session")
def xmark_bench_tree():
    """~2k-node auction document (the data-centric workload)."""
    return generate_xmark(scale=0.3, seed=2002)


@pytest.fixture(scope="session")
def dblp_bench_tree():
    """~3k-node flat bibliography (the shallow-wide workload)."""
    return generate_dblp(entries=600, seed=2002)
