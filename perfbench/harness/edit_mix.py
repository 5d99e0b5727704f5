"""edit-mix: closed loop, one client, writes beside snapshot reads.

``ConcurrentDocument(scheme="ruid2", wal=Wal(group_commit_size=4))`` on
XMark (scale 1.0) takes the edits of ``generate_update_workload`` (80%
inserts, uniform depth, seeded). Each edit is followed by 3 selects,
each on a fresh pin, dealt from a shuffled deck of ``XMARK_QUERIES``.
After every write, and outside the timed interval, the live tree is
re-evaluated navigationally and each read is compared node for node.

Flush policy, the same on both sides of any comparison: group commit
of 4 logical commits per sync, the default delta chain limit, and one
explicit ``flush_commits()`` when the edits end. ``Wal._sync`` only
counts a simulated sync, so the WAL reports syncs, batches and bytes
as counts, never as device time.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns
from typing import List

import repro.concurrent.document as concurrent_document
from repro.concurrent.document import ConcurrentDocument
from repro.generator import UpdateWorkloadConfig, generate_update_workload
from repro.storage.wal import Wal
from repro.xmltree.node import NodeKind, XmlNode
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
    timing,
)
from .oracle import NavigationalOracle, node_ids
from .probes import Patches
from .spans import SpanRecorder, layer_self_ns, self_times

READS_PER_WRITE = 3
GROUP_COMMIT_SIZE = 4
#: edits planned per run: MIN_SAMPLES writes and room to spare for a
#: faster write path within the same run length
PLANNED_EDITS = 300


class Setup:
    def __init__(self, text: str, seed: int):
        began = perf_counter()
        tree = parse(text)
        parsed = perf_counter()
        self.plan = generate_update_workload(
            tree,
            UpdateWorkloadConfig(operations=PLANNED_EDITS, insert_fraction=0.8, depth_bias="uniform"),
            seed=seed,
        )
        planned = perf_counter()
        self.wal = Wal(group_commit_size=GROUP_COMMIT_SIZE)
        self.document = ConcurrentDocument(tree, scheme="ruid2", wal=self.wal)
        labeled = perf_counter()
        with self.document.pin():
            pass  # first pin builds the generation's full view
        viewed = perf_counter()
        # warm-up: every read query once on the settled document
        for expression in corpus.DOCUMENTS["xmark"][1]:
            self.document.select(expression)
        self.steps = {
            "parse_s": parsed - began,
            "label_s": labeled - planned,
            "view_s": viewed - labeled,
        }


class Ledger:
    def __init__(self) -> None:
        self.write_ms: List[float] = []
        self.read_ms: List[float] = []
        self.relabels: List[int] = []
        self.areas: List[int] = []
        self.frame_renumbered = 0
        self.chain_depths: List[int] = []


def _edit(document: ConcurrentDocument, op):
    target = op.locate(document.tree)
    if op.kind == "insert":
        node = XmlNode(op.tag, NodeKind.ELEMENT)
        return lambda: document.insert(target, op.position, node)
    return lambda: document.delete(target)


def _measure(setup: Setup, plan_iter, deck, oracle: NavigationalOracle, seconds: float,
             result: Result, recorder=None, min_samples: int = MIN_SAMPLES) -> Ledger:
    ledger = Ledger()
    document = setup.document
    clock = RunClock(seconds, min_samples)
    while not clock.done(len(ledger.write_ms)):
        op = next(plan_iter, None)
        if op is None:
            result.notes.append("edit plan exhausted before the run length was reached")
            break
        write = _edit(document, op)
        if recorder is not None:
            with recorder.span("bench.write"):
                began = perf_counter_ns()
                report = write()
                elapsed = perf_counter_ns() - began
        else:
            began = perf_counter_ns()
            report = write()
            elapsed = perf_counter_ns() - began
        result.attempted += 1
        ledger.write_ms.append(elapsed / 1e6)
        clock.add(elapsed / 1e9)
        ledger.relabels.append(report.relabeled_count)
        ledger.areas.append(report.areas_touched)
        ledger.frame_renumbered += bool(report.frame_renumbered)
        ledger.chain_depths.append(document.stats_snapshot()["delta_chain_depth"])
        oracle.invalidate()  # the live tree changed; re-evaluate lazily
        for _ in range(READS_PER_WRITE):
            expression = deck.deal()
            if recorder is not None:
                with recorder.span("bench.read"):
                    began = perf_counter_ns()
                    with document.pin() as snapshot:
                        with recorder.span("query.snapshot_select"):
                            nodes = snapshot.select(expression)
                    elapsed = perf_counter_ns() - began
            else:
                began = perf_counter_ns()
                with document.pin() as snapshot:
                    nodes = snapshot.select(expression)
                elapsed = perf_counter_ns() - began
            result.attempted += 1
            ledger.read_ms.append(elapsed / 1e6)
            clock.add(elapsed / 1e9)
            if node_ids(nodes) != oracle.ids(expression):
                result.wrong += 1
    return ledger


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("edit-mix")
    text = corpus.document_text("xmark")
    setup, setup_times = repeated_setup(lambda: Setup(text, seed))
    oracle = NavigationalOracle(setup.document.tree)
    plan_iter = iter(setup.plan)
    deck = corpus.read_deck(seed)
    setup_s = percentiles.median(setup_times)

    if not trace:
        ledger = _measure(setup, plan_iter, deck, oracle, seconds, result)
        setup.wal.flush_commits()
        result.failed = result.wrong
        write_p50, write_p90 = timing(ledger.write_ms)
        read_p50, read_p90 = timing(ledger.read_ms)
        result.end_to_end = {
            "setup_s": Metric(setup_s, "s", len(setup_times)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
            "query_p50_ms": read_p50,
            "query_p90_ms": read_p90,
            "op_p50_ms": Metric(write_p50.value, "ms", write_p50.samples,
                                "op = one insert/delete incl. publish and WAL commit"),
        }
        result.detail = {
            "write_p50_ms": write_p50,
            "write_p90_ms": write_p90,
            "read_after_write_p50_ms": read_p50,
            "relabels_per_write": Metric(
                sum(ledger.relabels) / len(ledger.relabels), "count", len(ledger.relabels)),
        }
        stats = setup.wal.wal_stats
        result.notes.append(
            f"{len(ledger.write_ms)} writes, {len(ledger.read_ms)} reads; WAL (simulated "
            f"syncs, counts only): {stats.logical_commits} commits, {stats.syncs} syncs, "
            f"{stats.batch_records} batches, {setup.wal.size_bytes()} bytes"
        )
        return result

    half = seconds / 2
    plain = _measure(setup, plan_iter, deck, oracle, half, result, min_samples=0)
    recorder = SpanRecorder()
    patches = Patches()
    document = setup.document
    wal = setup.wal
    patches.wrap(recorder, document.labeling, "insert", "core.splice_insert")
    patches.wrap(recorder, document.labeling, "delete", "core.splice_delete")
    patches.wrap(recorder, concurrent_document, "capture_insert", "concurrent.capture_insert")
    patches.wrap(recorder, concurrent_document, "capture_delete", "concurrent.capture_delete")
    patches.wrap(recorder, wal, "append_commit", "storage.wal_append_commit")
    patches.wrap(recorder, wal, "flush_commits", "storage.wal_flush_commits")
    patches.wrap(recorder, document, "pin", "concurrent.pin")
    concurrent_before = document.stats_snapshot()
    query_before = document.stats.snapshot()
    full_hist, delta_hist = document.build_histograms()
    publish_before = full_hist.total + delta_hist.total
    wal_before = wal.wal_stats.as_dict()
    wal_bytes_before = wal.size_bytes()
    try:
        ledger = _measure(setup, plan_iter, deck, oracle, half, result, recorder, 0)
        with recorder.span("bench.flush"):
            wal.flush_commits()
    finally:
        patches.restore()
    result.failed = result.wrong
    writes = len(ledger.write_ms)
    concurrent = {k: v - concurrent_before.get(k, 0) for k, v in document.stats_snapshot().items()}
    publish_ns = full_hist.total + delta_hist.total - publish_before
    wal_delta = {k: v - wal_before[k] for k, v in wal.wal_stats.as_dict().items()}
    spans = recorder.spans
    own = self_times(spans)

    def total_ns(*names):
        return sum(s.duration for s in spans if s.name in names)

    splice_ns = total_ns("core.splice_insert", "core.splice_delete")
    capture_ns = total_ns("concurrent.capture_insert", "concurrent.capture_delete")
    wal_ns = total_ns("storage.wal_append_commit", "storage.wal_flush_commits")
    pins = [s.duration for s in spans if s.name == "concurrent.pin"]
    write_roots = [s for s in spans if s.name == "bench.write"]
    write_total = sum(s.duration for s in write_roots)
    # the publish runs inside the write, outside every wrapped call, so
    # it is taken from the document's own build-cost histograms
    write_unattributed = sum(own[s.sid] for s in write_roots) - publish_ns

    setup_layers(result, setup.steps)
    result.layer("storage.wal_syncs_per_commit", ratio(wal_delta["syncs"], wal_delta["logical_commits"]))
    result.layer("storage.wal_bytes_per_write", ratio(wal.size_bytes() - wal_bytes_before, writes))
    result.layer("storage.wal_commit_ms_per_write", wal_ns / 1e6 / writes)
    result.layer("core.splice_ms_per_write", splice_ns / 1e6 / writes)
    result.layer("core.areas_touched_per_write", sum(ledger.areas) / writes)
    result.layer("core.frame_renumbered_share", ledger.frame_renumbered / writes)
    result.layer("concurrent.capture_ms_per_write", capture_ns / 1e6 / writes)
    result.layer("concurrent.publish_ms_per_write", publish_ns / 1e6 / writes)
    result.layer("concurrent.delta_builds_per_write", concurrent["snapshot_builds_delta"] / writes)
    result.layer("concurrent.full_builds_per_write", concurrent["snapshot_builds_full"] / writes)
    result.layer("concurrent.compactions_per_write", concurrent["snapshot_compactions"] / writes)
    result.layer("concurrent.delta_fallbacks", concurrent["delta_fallbacks"])
    result.layer("concurrent.pin_ms", sum(pins) / 1e6 / len(pins))
    result.layer("concurrent.chain_depth_mean", sum(ledger.chain_depths) / writes)
    query_layers(result, document.stats.delta_since(query_before))
    reads = len(ledger.read_ms)
    result.layer("query.eval_self_ms_per_query",
                 sum(own[s.sid] for s in spans if s.name == "query.snapshot_select") / 1e6 / reads)

    roots = [s for s in spans if s.parent is None]
    layer_self = layer_self_ns(spans)
    layer_self["concurrent"] = layer_self.get("concurrent", 0) + publish_ns
    unattributed = sum(own[s.sid] for s in roots) - publish_ns
    layer_shares(result, layer_self, sum(s.duration for s in roots), unattributed)
    result.layer("bench.trace_overhead_pct", overhead_pct(
        (sum(plain.write_ms) + sum(plain.read_ms)) / len(plain.write_ms),
        (sum(ledger.write_ms) + sum(ledger.read_ms)) / writes))
    mean_write = write_total / 1e6 / writes
    result.notes.append(
        f"write accounting (mean ms over {writes} writes): {mean_write:.3f} = splice "
        f"{splice_ns / 1e6 / writes:.3f} + capture {capture_ns / 1e6 / writes:.3f} + publish "
        f"{publish_ns / 1e6 / writes:.3f} + WAL {total_ns('storage.wal_append_commit') / 1e6 / writes:.3f}"
        f" + unattributed {write_unattributed / 1e6 / writes:.3f}; write p50 "
        f"{percentiles.quantile(ledger.write_ms, 0.5):.3f}"
    )
    result.notes.append(
        f"flush policy: group_commit_size={GROUP_COMMIT_SIZE}, default delta_chain_limit, "
        f"explicit flush_commits() at the end; WAL syncs are simulated and counted, "
        f"{wal_delta['syncs']} syncs / {wal_delta['logical_commits']} commits / "
        f"{wal_delta['batch_records']} batches"
    )
    result.trace = recorder
    result.fill_layers()
    return result

