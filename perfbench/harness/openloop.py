"""Open-loop driver that times every request from when it was due.

``repro.serving.loadgen.OpenLoopLoadGenerator`` starts a request's
clock when its task first runs, so a stalled event loop hides the
queueing it causes. This driver fires a precomputed schedule on one
event loop and measures each request from its *scheduled* send time:
``latency = completion - due`` and ``lateness = task start - due``.
A request that fails in any way (shed, timed out, site unavailable,
other typed error, wrong answer) is counted as failed and as missing
every latency limit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence

from repro.errors import Overloaded, QueryTimeout, ReproError, SiteUnavailableError

from .spans import SliceLog, SlicedAwaitable


@dataclass
class Outcome:
    index: int
    doc: str
    expression: str
    due_ns: int = 0
    started_ns: int = 0
    done_ns: int = 0
    status: str = "pending"  # ok | wrong | shed | timeout | unavailable | error
    nodes: Optional[list] = None

    @property
    def latency_ms(self) -> float:
        """From the scheduled send time to the answer."""
        return (self.done_ns - self.due_ns) / 1e6

    @property
    def service_ms(self) -> float:
        """From the task's first run to the answer."""
        return (self.done_ns - self.started_ns) / 1e6

    @property
    def lateness_ms(self) -> float:
        """How late the request's task first ran."""
        return (self.started_ns - self.due_ns) / 1e6


@dataclass
class PhaseResult:
    rate_hz: float
    outcomes: List[Outcome] = field(default_factory=list)
    last_due_ns: int = 0
    last_done_ns: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status != "ok")

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def drain_ms(self) -> float:
        """From the last scheduled send to the last completion."""
        return max(0.0, (self.last_done_ns - self.last_due_ns) / 1e6)

    def latencies_ms(self, limit_ms: float = float("inf")) -> List[float]:
        """Due-time latencies, failures counted as missing *limit_ms*."""
        return [
            o.latency_ms if o.status == "ok" else limit_ms for o in self.outcomes
        ]


async def run_phase(
    select: Callable,
    arrivals: Sequence,
    rate_hz: float,
    check: Optional[Callable[[Outcome], bool]] = None,
    on_request: Optional[Callable] = None,
    busy: Optional[SliceLog] = None,
) -> PhaseResult:
    """Fire *arrivals* (``offset_s``/``doc``/``expression``) at
    ``await select(doc, expression)`` on the running loop.

    *check* judges each answer (False marks it ``wrong``) once the
    whole phase has completed. *on_request*, when given,
    wraps each request coroutine (the traced run records a root span
    there) and receives the request's :class:`SliceLog`. *busy*, when
    given, collects the run slices of every task the phase creates, so
    the loop's busy time can be told from its idle time.
    """
    loop = asyncio.get_running_loop()
    if busy is not None:
        loop.set_task_factory(_slicing_factory(busy))
    result = PhaseResult(rate_hz=rate_hz)
    base_loop = loop.time()
    base_ns = perf_counter_ns()
    tasks = []

    async def one(outcome: Outcome, log: SliceLog) -> None:
        outcome.started_ns = perf_counter_ns()
        try:
            if on_request is not None:
                nodes = await on_request(select, outcome, log)
            else:
                nodes = await select(outcome.doc, outcome.expression)
        except Overloaded:
            outcome.status = "shed"
        except QueryTimeout:
            outcome.status = "timeout"
        except SiteUnavailableError:
            outcome.status = "unavailable"
        except ReproError:
            outcome.status = "error"
        else:
            outcome.status = "ok"
            outcome.nodes = nodes
        outcome.done_ns = perf_counter_ns()

    for index, arrival in enumerate(arrivals):
        delay = base_loop + arrival.offset_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(
            index=index,
            doc=arrival.doc,
            expression=arrival.expression,
            due_ns=base_ns + int(arrival.offset_s * 1e9),
        )
        result.outcomes.append(outcome)
        log = SliceLog()
        tasks.append(asyncio.ensure_future(SlicedAwaitable(one(outcome, log), log)))
    await asyncio.gather(*tasks)
    # answers are judged after the phase, so checking costs no request
    # any latency or lateness
    for outcome in result.outcomes:
        if outcome.status == "ok" and check is not None and not check(outcome):
            outcome.status = "wrong"
        outcome.nodes = None
    if result.outcomes:
        result.last_due_ns = result.outcomes[-1].due_ns
        result.last_done_ns = max(o.done_ns for o in result.outcomes)
    return result


def _slicing_factory(log: SliceLog):
    """A task factory that records every task's run slices in *log*."""

    def factory(loop, coro, **kwargs):
        async def sliced():
            return await SlicedAwaitable(coro, log)

        return asyncio.Task(sliced(), loop=loop, **kwargs)

    return factory
