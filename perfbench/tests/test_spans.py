"""Self-time arithmetic on hand-built span trees."""

import asyncio

from harness.spans import (
    Span,
    SpanRecorder,
    SliceLog,
    SlicedAwaitable,
    intersect,
    layer_self_ns,
    self_times,
    union,
)


def _span(sid, name, start, end, parent=None, slices=None):
    span = Span(sid, name, start, parent, 0)
    span.end = end
    span.slices = slices
    return span


def test_union_and_intersection():
    assert union([(5, 7), (0, 2), (1, 3), (7, 9), (4, 4)]) == [(0, 3), (5, 9)]
    assert intersect([(0, 10)], [(2, 3), (5, 12)]) == [(2, 3), (5, 10)]


def test_self_time_subtracts_covered_children_once():
    # root 0..100; children 10..30 and 20..50 overlap (a cover of 40),
    # a grandchild inside the first child
    spans = [
        _span(0, "bench.op", 0, 100),
        _span(1, "query.select", 10, 30, parent=0),
        _span(2, "store.fetch", 20, 50, parent=0),
        _span(3, "store.fetch", 12, 18, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: 60, 1: 14, 2: 30, 3: 6}
    assert layer_self_ns(spans) == {"bench": 60, "query": 14, "store": 36}


def test_properly_nested_self_times_partition_the_root():
    spans = [
        _span(0, "bench.op", 0, 100),
        _span(1, "query.select", 10, 90, parent=0),
        _span(2, "store.fetch", 20, 30, parent=1),
        _span(3, "store.fetch", 40, 45, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: 20, 1: 65, 2: 10, 3: 5}
    assert sum(own.values()) == 100


def test_async_root_counts_only_its_run_slices():
    # the request ran 0..10 and 40..50; a child ran inline at 2..5, and
    # a scattered call ran in another task at 20..30
    spans = [
        _span(0, "serving.select", 0, 50, slices=[(0, 10), (40, 50)]),
        _span(1, "resilience.admission_acquire", 2, 5, parent=0),
        _span(2, "serving.call_site", 20, 30, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 17, 1: 3, 2: 10}


def test_recorder_nests_through_asyncio_tasks():
    recorder = SpanRecorder()

    async def leaf():
        with recorder.span("serving.call_site"):
            await asyncio.sleep(0)

    async def request():
        with recorder.span("serving.select"):
            await asyncio.gather(leaf(), leaf())

    async def main():
        await asyncio.gather(request(), request())

    asyncio.run(main())
    roots = [s for s in recorder.spans if s.parent is None]
    leaves = [s for s in recorder.spans if s.name == "serving.call_site"]
    assert len(roots) == 2 and len(leaves) == 4
    assert {s.request for s in roots} == {0, 1}
    for leaf_span in leaves:
        parent = recorder.spans[leaf_span.parent]
        assert parent.name == "serving.select"
        assert leaf_span.request == parent.request


def test_sliced_awaitable_records_each_step():
    log = SliceLog()

    async def body():
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return 7

    async def main():
        return await asyncio.ensure_future(SlicedAwaitable(body(), log))

    assert asyncio.run(main()) == 7
    assert len(log.slices) == 3
    assert all(end >= start for start, end in log.slices)
