"""Batched list-ranking execution engine.

The paper's central lesson is that list ranking pays off only when many
independent traversals are kept at full vector width: the sublist
algorithm wins precisely because it batches *m* sublist walks into one
lock-step loop.  This subsystem applies the same discipline one level
up — across *requests*.  Many independent ``rank``/``scan`` calls are
coalesced into fused multi-list executions (one forest scan per shard
of up to ``FUSE_NODES`` nodes), routed to an algorithm by the Section 4
cost model, and memoized in a structural result cache.

Modules
-------

``queue``    request/response types and the bounded submission queue
             (backpressure by request count and queued nodes)
``errors``   the per-request error channel: structured failures,
             probe-time validation, ``EngineRequestError``
``batch``    working-set sharding and batch fusion into one forest
``router``   cost-model algorithm routing from a cost table (the
             paper's C-90 table, or a fitted profile)
``cache``    LRU result cache keyed by a structural fingerprint
``workers``  persistent execution backends: ``sync`` / ``threads``
``engine``   the :class:`Engine` facade: one shard path for every
             routable request (a lone request is a forest of one),
             backend-driven shard execution, per-batch stats

The public surface re-exported here is loaded lazily (PEP 562) so that
``core.list_scan`` can import ``engine.router`` for ``auto`` routing
without creating an import cycle through :class:`Engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

__all__ = [
    "Engine",
    "EngineStats",
    "ScanRequest",
    "ScanResponse",
    "SubmissionQueue",
    "BackpressureError",
    "QueueClosedError",
    "LatencyHistogram",
    "RequestError",
    "EngineRequestError",
    "validate_request",
    "Router",
    "route_algorithm",
    "ResultCache",
    "fingerprint",
    "FusedBatch",
    "shard_requests",
    "EXECUTORS",
    "ExecutionBackend",
    "SyncBackend",
    "ThreadBackend",
    "create_backend",
    "run_fused_kernel",
]

_EXPORTS = {
    "Engine": ("repro.engine.engine", "Engine"),
    "EngineStats": ("repro.engine.engine", "EngineStats"),
    "ScanRequest": ("repro.engine.queue", "ScanRequest"),
    "ScanResponse": ("repro.engine.queue", "ScanResponse"),
    "SubmissionQueue": ("repro.engine.queue", "SubmissionQueue"),
    "BackpressureError": ("repro.engine.queue", "BackpressureError"),
    "QueueClosedError": ("repro.engine.queue", "QueueClosedError"),
    "LatencyHistogram": ("repro.engine.histogram", "LatencyHistogram"),
    "RequestError": ("repro.engine.errors", "RequestError"),
    "EngineRequestError": ("repro.engine.errors", "EngineRequestError"),
    "validate_request": ("repro.engine.errors", "validate_request"),
    "Router": ("repro.engine.router", "Router"),
    "route_algorithm": ("repro.engine.router", "route_algorithm"),
    "ResultCache": ("repro.engine.cache", "ResultCache"),
    "fingerprint": ("repro.engine.cache", "fingerprint"),
    "FusedBatch": ("repro.engine.batch", "FusedBatch"),
    "shard_requests": ("repro.engine.batch", "shard_requests"),
    "EXECUTORS": ("repro.engine.workers", "EXECUTORS"),
    "ExecutionBackend": ("repro.engine.workers", "ExecutionBackend"),
    "SyncBackend": ("repro.engine.workers", "SyncBackend"),
    "ThreadBackend": ("repro.engine.workers", "ThreadBackend"),
    "create_backend": ("repro.engine.workers", "create_backend"),
    "run_fused_kernel": ("repro.engine.workers", "run_fused_kernel"),
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .batch import FusedBatch, shard_requests
    from .cache import ResultCache, fingerprint
    from .engine import Engine, EngineStats
    from .errors import EngineRequestError, RequestError, validate_request
    from .histogram import LatencyHistogram
    from .queue import (
        BackpressureError,
        QueueClosedError,
        ScanRequest,
        ScanResponse,
        SubmissionQueue,
    )
    from .router import Router, route_algorithm
    from .workers import (
        EXECUTORS,
        ExecutionBackend,
        SyncBackend,
        ThreadBackend,
        create_backend,
        run_fused_kernel,
    )


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
