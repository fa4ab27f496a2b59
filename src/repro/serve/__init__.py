"""Async serving front-end for the batched engine.

Where ``repro.engine`` batches requests arriving *in one process*,
this package batches requests arriving *over the network*: an asyncio
TCP server admits scan/rank requests from many concurrent clients into
the engine's bounded submission queue, flushes whatever is queued
through ``Engine.run_batch`` whenever the engine is free, and sheds
load with structured errors when saturated — the serving-system
realization of the paper's core economics (throughput comes from
keeping many independent walks fused at full vector width, never from
waiting for more of them).

Modules
-------

``config``    :class:`ServeConfig` — every front-end knob in one
              frozen dataclass
``protocol``  wire dialects (length-prefixed frames with raw array
              sections / JSONL / ``GET /stats``), request parsing onto
              :class:`~repro.engine.queue.ScanRequest`, structured
              error serialization
``fairness``  :class:`ClientGovernor` — per-client token buckets and
              in-flight caps
``server``    :class:`ScanServer` — the asyncio front-end itself
``client``    :func:`run_bench` — the benchmark/load client used by
              ``repro-c90 bench-client``, the tests, and CI

Lazy re-exports (PEP 562) keep ``import repro.serve`` cheap — the
server pulls in the engine only when actually constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

__all__ = [
    "ServeConfig",
    "ScanServer",
    "ClientGovernor",
    "TokenBucket",
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "encode_line",
    "decode_message",
    "parse_request",
    "response_to_wire",
    "error_to_wire",
    "run_bench",
]

_EXPORTS = {
    "ServeConfig": ("repro.serve.config", "ServeConfig"),
    "ScanServer": ("repro.serve.server", "ScanServer"),
    "ClientGovernor": ("repro.serve.fairness", "ClientGovernor"),
    "TokenBucket": ("repro.serve.fairness", "TokenBucket"),
    "ProtocolError": ("repro.serve.protocol", "ProtocolError"),
    "FrameDecoder": ("repro.serve.protocol", "FrameDecoder"),
    "encode_frame": ("repro.serve.protocol", "encode_frame"),
    "encode_line": ("repro.serve.protocol", "encode_line"),
    "decode_message": ("repro.serve.protocol", "decode_message"),
    "parse_request": ("repro.serve.protocol", "parse_request"),
    "response_to_wire": ("repro.serve.protocol", "response_to_wire"),
    "error_to_wire": ("repro.serve.protocol", "error_to_wire"),
    "run_bench": ("repro.serve.client", "run_bench"),
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .client import run_bench
    from .config import ServeConfig
    from .fairness import ClientGovernor, TokenBucket
    from .protocol import (
        FrameDecoder,
        ProtocolError,
        decode_message,
        encode_frame,
        encode_line,
        error_to_wire,
        parse_request,
        response_to_wire,
    )
    from .server import ScanServer


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
