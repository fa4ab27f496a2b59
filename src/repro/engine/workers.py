"""Persistent execution backends: ``sync`` and ``threads``.

The paper scales the sublist algorithm across 1–8 C-90 CPUs by
dividing the virtual processors among physical ones (Section 5); the
serving engine mirrors that by dividing *shards* among workers, on a
backend chosen by ``Engine(executor=...)`` and kept for the engine's
life (a pool built inside every ``run_batch`` call would put pool
construction on the hot path):

``sync``
    No pool.  Shards execute one after another on the calling thread —
    the reference driver everything else must match bit for bit.
``threads``
    One long-lived, lazily-created ``ThreadPoolExecutor`` reused across
    batches.  Shards run concurrently on it; NumPy releases the GIL in
    the bulk operations, so large fused kernels overlap.  A batch of
    one shard, or a backend one worker wide, runs inline instead.

Every kernel runs in this process, through :func:`run_fused_kernel`.
Fault containment lives in the engine: a shard that raises is retried
with its members as shards of one.  Both backends are lazy (no pool
exists until the first dispatch that needs one) and idempotently
closable (``Engine.close()`` / the engine context manager tear workers
down exactly once).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.forest import Forest, forest_scan, wyllie_scan
from ..core.operators import Operator
from ..core.stats import ScanStats
from ..kernels.backend import KernelBackend, resolve_backend
from ..sanitize import runtime as sanitize
from ..trace.tracer import Tracer

__all__ = [
    "EXECUTORS",
    "ExecutionBackend",
    "SyncBackend",
    "ThreadBackend",
    "create_backend",
    "run_fused_kernel",
]

#: Accepted values for ``Engine(executor=...)``.
EXECUTORS = ("sync", "threads")


def run_fused_kernel(
    forest: Forest,
    op: Operator,
    inclusive: bool,
    algorithm: str,
    kstats: ScanStats,
    outs: list[np.ndarray],
    tracer: Tracer | None = None,
    kernel_backend: KernelBackend | None = None,
) -> list[np.ndarray]:
    """Execute one shard's forest with the routed algorithm.

    This is the single kernel dispatch every shard goes through.
    Member *k*'s scan is written into ``outs[k]``; the return value is
    always ``outs``.  The sublist kernel reads every member where it
    lies; Wyllie jumps pointers over one node array
    (:func:`~repro.core.forest.wyllie_scan`).  ``kernel_backend`` is
    the caller's resolved backend for the sublist kernel's hot loops
    (``docs/kernels.md``); Wyllie has no pluggable loops.
    """
    if algorithm == "wyllie":
        wyllie_scan(forest, outs, op, stats=kstats)
    else:  # "sublist" and any future routable default
        forest_scan(forest, outs, op, stats=kstats, trace=tracer, kernel_backend=kernel_backend)
    if inclusive:
        for out, values in zip(outs, forest.values):
            out[...] = op.combine(out, values)
    return outs


class ExecutionBackend:
    """Driver interface the engine talks to.

    ``map_shards`` runs the engine's containment wrapper over every
    shard, on a pool when :meth:`pooled` says so.  Pools are created
    lazily and torn down exactly once by :meth:`close` (idempotent;
    ``pools_created`` / ``closes_effective`` expose the lifecycle for
    tests).

    ``kernels`` is the kernel backend every kernel dispatched through
    this backend runs on, resolved once, at construction
    (``docs/kernels.md``).
    """

    name = "sync"

    def __init__(self) -> None:
        self.kernels = resolve_backend()
        self.pools_created = 0
        self.closes_effective = 0
        self._closed = False
        self._lock = threading.Lock()

    def pooled(self, shards: Sequence[Any]) -> bool:
        """Whether :meth:`map_shards` runs these shards on a pool."""
        return False

    def map_shards(self, fn: Callable[[Any], Any], shards: Sequence[Any]) -> list[Any]:
        return [fn(shard) for shard in shards]

    def close(self) -> None:
        """Tear down worker pools; safe to call any number of times."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.closes_effective += 1
        self._shutdown()

    def _shutdown(self) -> None:  # pragma: no cover - overridden where pools exist
        pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{self.name!r} execution backend is closed "
                "(Engine.close() already tore its workers down)"
            )


class SyncBackend(ExecutionBackend):
    """No pool: the reference driver.  ``map_shards`` is a plain loop."""

    name = "sync"


class ThreadBackend(ExecutionBackend):
    """One persistent, lazily-created thread pool shared by every batch."""

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                )
                self.pools_created += 1
                sanitize.note_pool(self._pool, "threads")
            return self._pool

    def pooled(self, shards: Sequence[Any]) -> bool:
        """Two or more shards go to the pool, unless it is one worker
        wide: then the calling thread runs them, as a sync backend would."""
        return len(shards) > 1 and self.max_workers != 1

    def map_shards(self, fn: Callable[[Any], Any], shards: Sequence[Any]) -> list[Any]:
        if not self.pooled(shards):
            return [fn(shard) for shard in shards]
        return list(self._ensure_pool().map(fn, shards))

    def _shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
            sanitize.note_pool_closed(pool)


def create_backend(executor: str, max_workers: int | None = None) -> ExecutionBackend:
    """Build the backend for ``Engine(executor=...)``."""
    if executor == "sync":
        return SyncBackend()
    if executor == "threads":
        return ThreadBackend(max_workers)
    raise ValueError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS}"
    )
