"""Concurrent access layer: snapshot reads, an incremental delta-
publishing write path with area-scoped writer admission, and parallel
query fan-out (docs/CONCURRENCY.md)."""

from repro.concurrent.arealocks import AreaLockManager
from repro.concurrent.database import ConcurrentXmlDatabase
from repro.concurrent.delta import (
    DeltaCaptureError,
    DeltaView,
    TreeEdit,
    capture_delete,
    capture_insert,
    finish_delete,
)
from repro.concurrent.document import (
    DELTA_CHAIN_LIMIT,
    ConcurrentDocument,
    PinnedSnapshot,
)
from repro.concurrent.epoch import EpochReclaimer
from repro.concurrent.parallel import ParallelQueryExecutor
from repro.concurrent.rwlock import ReadWriteLock
from repro.concurrent.snapshot import StructuralView

__all__ = [
    "AreaLockManager",
    "ConcurrentDocument",
    "ConcurrentXmlDatabase",
    "DELTA_CHAIN_LIMIT",
    "DeltaCaptureError",
    "DeltaView",
    "EpochReclaimer",
    "ParallelQueryExecutor",
    "PinnedSnapshot",
    "ReadWriteLock",
    "StructuralView",
    "TreeEdit",
    "capture_delete",
    "capture_insert",
    "finish_delete",
]
