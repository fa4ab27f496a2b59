"""Serving-layer configuration.

One frozen dataclass carries every knob of the front-end so the CLI,
the tests and embedded uses construct servers the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .protocol import MAX_FRAME_BYTES

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Configuration for :class:`repro.serve.server.ScanServer`.

    Batching
    --------
    max_batch:
        Most requests drained into one ``run_batch`` call.  The server
        flushes whenever its queue is non-empty and no flush is
        running, so a batch is whatever arrived during the previous
        flush, up to this cap.  ``1`` disables batching: every request
        runs alone.

    Fairness
    --------
    rate / burst:
        Per-client token bucket: sustained requests/second and burst
        allowance.  ``rate=None`` disables rate limiting.
    max_inflight:
        Per-client cap on admitted-but-unanswered requests
        (``None`` = unlimited).

    Shedding
    --------
    Admission never blocks: when the engine's submission queue is full
    the request is rejected with a structured ``overloaded`` error and
    a ``retry_after`` hint instead of stalling the connection.

    Lifecycle
    ---------
    allow_shutdown:
        Honor the ``{"type": "shutdown"}`` admin message (used by the
        CI smoke job to stop the loopback server cleanly).  Off by
        default: a remote peer must not be able to stop the server.
    stats_interval:
        Seconds between stats-snapshot lines on stderr (0 disables).

    Limits
    ------
    max_frame_bytes:
        Largest frame body or JSONL line admitted; a larger one is
        answered with ``bad-message`` and the connection closes.  The
        default, :data:`repro.serve.protocol.MAX_FRAME_BYTES`, admits
        a 2^22-node scan with int64 values as a frame.
    """

    host: str = "127.0.0.1"
    port: int = 8090
    max_batch: int = 1024
    rate: float | None = None
    burst: float = 32.0
    max_inflight: int | None = 256
    allow_shutdown: bool = False
    stats_interval: float = 0.0
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.rate is not None and self.rate <= 0.0:
            raise ValueError("rate must be positive (or None)")
        if self.burst < 1.0:
            raise ValueError("burst must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
