"""Query-layer cache and planning counters.

The storage layer charges :class:`~repro.storage.iostats.IoStats` for
every simulated disk touch; :class:`QueryStats` is the same ledger for
the query fast path, so experiments can report cache effectiveness
(plan cache, candidate cache, synopsis pruning, step routes) alongside
the I/O numbers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


@dataclass
class QueryStats:
    """Counters for the query fast path's caches and planner.

    A ledger may be shared by several evaluators running on different
    threads (the concurrent access layer does exactly that), so every
    increment goes through :meth:`count`, which serialises the
    read-modify-write under a per-ledger lock. ``+=`` on a plain
    attribute is *not* atomic in CPython — two racing threads can lose
    increments.
    """

    #: compiled-plan LRU cache
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    #: steps answered without touching data because the tag synopsis
    #: proves the node test cannot match
    synopsis_skips: int = 0
    #: steps evaluated set-at-a-time over the whole frontier
    batched_steps: int = 0
    #: steps answered wholesale by a store's native engine (SQL axis
    #: pushdown) without any Python axis evaluation
    pushdown_steps: int = 0
    #: StoreEvaluator per-tag candidate rank-array cache, keyed by
    #: (store, generation)
    candidate_cache_hits: int = 0
    candidate_cache_misses: int = 0
    candidate_cache_evictions: int = 0
    #: steps that fell back to the per-context path (predicates,
    #: sibling/horizontal axes, attribute axis)
    fallback_steps: int = 0
    #: queries that raised (any ReproError), across all error types
    queries_failed: int = 0
    #: per-error-type failure counts, keyed by exception class name;
    #: kept out of the dataclass fields (a dict field would break the
    #: registry's number-only flattening) and merged into
    #: :meth:`as_dict` as ``errors.<Type>`` scalars
    _error_counts: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: serialises counter mutation across threads (not a counter)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Atomically add *amount* to counter field *name*."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def count_error(self, error_type: str) -> None:
        """Record one failed query of exception class *error_type*."""
        with self._lock:
            self.queries_failed += 1
            self._error_counts[error_type] = (
                self._error_counts.get(error_type, 0) + 1
            )

    def error_counts(self) -> Dict[str, int]:
        """Per-error-type failure counts (copy)."""
        with self._lock:
            return dict(self._error_counts)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        """Every counter field, derived from the dataclass fields —
        adding a field can never silently drift out of the exported
        dict (or out of a registry this ledger is bound to) — plus one
        ``errors.<Type>`` scalar per error class seen."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_")
        }
        with self._lock:
            for error_type, count in self._error_counts.items():
                out[f"errors.{error_type}"] = count
        return out

    def snapshot(self) -> Dict[str, int]:
        return self.as_dict()

    def delta_since(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Difference between now and an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - earlier.get(key, 0) for key in now}

    def reset(self) -> None:
        """Zero every counter field (field-driven, like :meth:`as_dict`)."""
        with self._lock:
            for f in fields(self):
                if not f.name.startswith("_"):
                    setattr(self, f.name, f.default)
            self._error_counts.clear()

    def bind(self, registry: "MetricsRegistry", prefix: str = "query") -> None:
        """Expose this ledger through *registry* as ``prefix.*`` pull
        metrics; the registry always reads live values, so the two can
        never disagree."""
        registry.register_source(prefix, self.as_dict)

    def __repr__(self) -> str:
        return (
            f"<QueryStats plans {self.plan_hits}/{self.plan_hits + self.plan_misses}"
            f" batched={self.batched_steps} per-node={self.fallback_steps}"
            f" skips={self.synopsis_skips}>"
        )
