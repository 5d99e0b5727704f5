"""Due-time latency: a stalled event loop must show as lateness."""

import asyncio
import time

from harness.corpus import ScheduledRequest
from harness.openloop import run_phase
from repro.errors import Overloaded


def test_stall_shows_as_lateness_and_latency():
    stall_s = 0.08

    async def select(doc, expression):
        if expression == "stall":
            time.sleep(stall_s)  # blocks the whole event loop
        return []

    arrivals = [ScheduledRequest(0.01, "d", "stall")] + [
        ScheduledRequest(0.01 + 0.01 * i, "d", "q") for i in range(1, 5)
    ]
    phase = asyncio.run(run_phase(select, arrivals, 100.0))
    late = phase.outcomes[1:]
    # every request due during the stall starts late, by about the
    # remainder of the stall, and its latency counts that wait even
    # though its own service took no time
    for outcome in late:
        due_offset = (outcome.due_ns - phase.outcomes[0].due_ns) / 1e9
        assert outcome.lateness_ms >= (stall_s - due_offset) * 1e3 - 5
        assert outcome.latency_ms >= outcome.lateness_ms
        assert outcome.service_ms < 5
    assert max(o.lateness_ms for o in late) >= stall_s * 1e3 * 0.5


def test_failures_count_and_miss_the_limit():
    async def select(doc, expression):
        if expression == "shed":
            raise Overloaded("full")
        return ["x"]

    arrivals = [ScheduledRequest(0.001 * i, "d", q) for i, q in enumerate(["ok", "shed", "ok"], 1)]
    phase = asyncio.run(
        run_phase(select, arrivals, 1000.0, check=lambda o: o.expression == "ok")
    )
    assert [o.status for o in phase.outcomes] == ["ok", "shed", "ok"]
    assert phase.failed == 1
    latencies = phase.latencies_ms(limit_ms=250.0)
    assert latencies[1] == 250.0
    wrong = asyncio.run(run_phase(select, arrivals, 1000.0, check=lambda o: False))
    assert wrong.count("wrong") == 2 and wrong.failed == 3
