"""Deadline propagation and cooperative cancellation.

A query with no deadline can hold its worker thread hostage: one
pathological expression over a large corpus occupies a slot until it
finishes, and under load those slots are exactly what admission
control is rationing. The serving-tier discipline ("The Tail at
Scale") is to give every request a budget at the edge, carry it
through each layer, and *stop working* the moment the budget is gone
— returning a typed :class:`~repro.errors.QueryTimeout` that tells the
caller how much work had been done.

Cancellation here is cooperative: evaluator loops, store probes and
twig joins call :meth:`Deadline.tick` at their natural step points.
Checking the clock on every tick would tax the hot path (the batched
store evaluator processes thousands of nodes per step), so ``tick``
only consults the clock every ``check_interval`` calls — a countdown,
not a modulo, so the common case is one decrement and one compare.

The clock is injectable so tests can march time forward manually and
make timeout behaviour fully deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import QueryTimeout


class Deadline:
    """A wall-clock budget carried through one query's evaluation.

    Parameters
    ----------
    budget_ms:
        Total budget in milliseconds, measured from construction.
    clock:
        Monotonic nanosecond clock; defaults to
        :func:`time.monotonic_ns`. Inject a fake for tests.
    check_interval:
        Number of :meth:`tick` calls between real clock reads. 1 checks
        every tick; the default 64 keeps per-node overhead to a
        decrement on the hot path while bounding overshoot to 64 steps.
    """

    __slots__ = (
        "budget_ms",
        "clock",
        "check_interval",
        "_start_ns",
        "_deadline_ns",
        "_countdown",
        "steps",
        "items",
    )

    def __init__(
        self,
        budget_ms: float,
        clock: Optional[Callable[[], int]] = None,
        check_interval: int = 64,
    ):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_ms}")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.budget_ms = float(budget_ms)
        self.clock = clock if clock is not None else time.monotonic_ns
        self.check_interval = check_interval
        self._start_ns = self.clock()
        self._deadline_ns = self._start_ns + int(budget_ms * 1e6)
        self._countdown = check_interval
        #: cancellation points passed so far (partial-work counter)
        self.steps = 0
        #: nodes/candidates processed across those points
        self.items = 0

    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        """Wall time since construction, in milliseconds."""
        return (self.clock() - self._start_ns) / 1e6

    def remaining_ms(self) -> float:
        """Budget left; negative once the deadline has passed."""
        return (self._deadline_ns - self.clock()) / 1e6

    def expired(self) -> bool:
        """True once the budget is spent (always reads the clock)."""
        return self.clock() >= self._deadline_ns

    # ------------------------------------------------------------------
    def tick(self, items: int = 0) -> None:
        """Pass one cancellation point; raise on an expired budget.

        *items* counts the units of work this point represents (one for
        a per-node loop iteration, the batch size for a set-at-a-time
        step) and feeds the partial-work counters attached to the
        eventual :class:`QueryTimeout`.
        """
        self.steps += 1
        if items:
            self.items += items
        # weight the countdown by batch size so a set-at-a-time step
        # that swallowed thousands of nodes forces a clock check at
        # the very next tick instead of 63 batches later
        self._countdown -= 1 + items
        if self._countdown > 0:
            return
        self._countdown = self.check_interval
        if self.clock() >= self._deadline_ns:
            self._raise()

    def check(self) -> None:
        """Unconditional clock check (for loop entry / coarse points)."""
        if self.clock() >= self._deadline_ns:
            self._raise()

    def _raise(self) -> None:
        elapsed = self.elapsed_ms()
        raise QueryTimeout(
            f"query exceeded its {self.budget_ms:.0f} ms deadline "
            f"({elapsed:.1f} ms elapsed, {self.steps} steps, "
            f"{self.items} items processed)",
            elapsed_ms=elapsed,
            budget_ms=self.budget_ms,
            steps=self.steps,
            items=self.items,
        )

    def __repr__(self) -> str:
        return (
            f"<Deadline budget={self.budget_ms:.0f}ms "
            f"remaining={self.remaining_ms():.1f}ms steps={self.steps}>"
        )
