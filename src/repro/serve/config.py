"""Serving-layer configuration.

One frozen dataclass carries every knob of the front-end so the CLI,
the tests and embedded uses construct servers the same way.  The
defaults are tuned for a loopback demo: a 50 ms p95 SLO with a batch
window adapting between 0.5 ms and half the SLO.
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
    flush_size:
        Flush as soon as this many requests are pending (the *size*
        trigger).  ``1`` disables batching entirely — the baseline the
        adaptive window is benchmarked against.
    max_batch:
        Hard cap on requests drained into one ``run_batch`` call.
    slo_p95 / min_window / max_window / initial_window:
        The adaptive *deadline* trigger (see
        :class:`repro.serve.window.AdaptiveWindow`): the oldest queued
        request never waits longer than the current window, and the
        window is retuned after every flush so observed p95 latency
        tracks ``slo_p95``.  ``initial_window=None`` starts at
        ``max_window`` (laziest legal window, adapts down under load).

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
    flush_size: int = 64
    max_batch: int = 1024
    slo_p95: float = 0.050
    min_window: float = 0.0005
    max_window: float = 0.025
    initial_window: float | None = None
    rate: float | None = None
    burst: float = 32.0
    max_inflight: int | None = 256
    allow_shutdown: bool = False
    stats_interval: float = 0.0
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.flush_size < 1:
            raise ValueError("flush_size must be >= 1")
        if self.max_batch < self.flush_size:
            raise ValueError("max_batch must be >= flush_size")
        if self.slo_p95 <= 0.0:
            raise ValueError("slo_p95 must be positive")
        if not 0.0 < self.min_window <= self.max_window:
            raise ValueError("need 0 < min_window <= max_window")
        if self.rate is not None and self.rate <= 0.0:
            raise ValueError("rate must be positive (or None)")
        if self.burst < 1.0:
            raise ValueError("burst must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
