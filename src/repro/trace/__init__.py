"""Phase-level tracing and model-vs-observed telemetry.

The paper's Section 4 analysis predicts a *trajectory* — the live
sublist count ``g(s) = m·e^(−m·s/n)`` and the Eq. 6 pack schedule —
but aggregate counters can never confirm one.  This subsystem records
the trajectory itself and checks it against the model:

``tracer``
    :class:`Tracer` / :class:`Span` / :class:`Event` — the span-tree
    recorder.  Off by default everywhere; injectable clock for
    deterministic tests; thread-local span stacks so the engine's
    parallel shard driver traces cleanly.
``compare``
    :func:`compare_trace` — overlay a traced run on the Section 4
    predictions (Eq. 2 trajectory, Eq. 6/7 schedule) and return
    structured deviation metrics.
``export``
    JSON span trees, JSONL streams, and the human tree view behind
    ``repro-c90 trace``.

Hooks: ``list_scan(trace=…)``, ``forest_list_scan(trace=…)`` (the one
sublist scan, which ``sublist_list_scan`` wraps for a single list) and
``Engine(trace=…)``.

The cheap core (``tracer``) loads eagerly so kernels can import it
without dragging in the analysis stack; ``compare``/``export`` load
lazily (PEP 562) because ``compare`` imports the schedule/prediction
machinery, which must stay import-cycle-free from ``core``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .tracer import (
    NULL_TRACER,
    Event,
    Span,
    Tracer,
    counting_clock,
    null_span,
    resolve_trace,
)

__all__ = [
    "Event",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "resolve_trace",
    "null_span",
    "counting_clock",
    "TrajectoryPoint",
    "DeviationReport",
    "compare_trace",
    "find_scan_span",
    "deviation_ok",
    "jsonable",
    "span_to_dict",
    "trace_to_dict",
    "to_json",
    "write_jsonl",
    "format_tree",
]

_LAZY = {
    "TrajectoryPoint": ("repro.trace.compare", "TrajectoryPoint"),
    "DeviationReport": ("repro.trace.compare", "DeviationReport"),
    "compare_trace": ("repro.trace.compare", "compare_trace"),
    "find_scan_span": ("repro.trace.compare", "find_scan_span"),
    "deviation_ok": ("repro.trace.compare", "deviation_ok"),
    "jsonable": ("repro.trace.export", "jsonable"),
    "span_to_dict": ("repro.trace.export", "span_to_dict"),
    "trace_to_dict": ("repro.trace.export", "trace_to_dict"),
    "to_json": ("repro.trace.export", "to_json"),
    "write_jsonl": ("repro.trace.export", "write_jsonl"),
    "format_tree": ("repro.trace.export", "format_tree"),
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .compare import (
        DeviationReport,
        TrajectoryPoint,
        compare_trace,
        deviation_ok,
        find_scan_span,
    )
    from .export import (
        format_tree,
        jsonable,
        span_to_dict,
        to_json,
        trace_to_dict,
        write_jsonl,
    )


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
