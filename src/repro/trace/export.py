"""Trace serialization: JSON span trees, JSONL streams, human tree view.

Three consumers, three shapes:

* :func:`trace_to_dict` / :func:`to_json` — the nested span tree as
  plain JSON, the shape the CI bench-smoke artifact and
  ``repro-c90 trace --json`` emit;
* :func:`write_jsonl` — one JSON object per span (with ``id`` /
  ``parent_id`` links), the append-friendly shape log pipelines want;
* :func:`format_tree` — the human view ``repro-c90 trace`` prints.

Attribute values pass through :func:`jsonable`, which flattens NumPy
scalars and arrays so traces recorded from kernel internals serialize
without a custom encoder.
"""

from __future__ import annotations

import json
from contextlib import suppress
from collections.abc import Iterable
from typing import Any, IO

from .tracer import Event, Span, Tracer

__all__ = [
    "jsonable",
    "span_to_dict",
    "trace_to_dict",
    "to_json",
    "write_jsonl",
    "format_tree",
]


def jsonable(value: Any) -> Any:
    """Coerce a value into something ``json.dumps`` accepts.

    NumPy scalars become Python numbers, arrays become lists, dict and
    sequence containers recurse, and anything else unrecognized falls
    back to ``repr`` (a trace must never fail to serialize because a
    caller attached an exotic attribute).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):  # NumPy scalar (0-d)
        with suppress(TypeError, ValueError):
            return jsonable(item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # NumPy array
        with suppress(TypeError, ValueError):
            return jsonable(tolist())
    return repr(value)


def _event_to_dict(event: Event) -> dict[str, Any]:
    return {
        "name": event.name,
        "t": jsonable(event.t),
        "attrs": jsonable(event.attrs),
    }


def span_to_dict(span: Span) -> dict[str, Any]:
    """Nested dict form of one span subtree."""
    return {
        "name": span.name,
        "t0": jsonable(span.t0),
        "t1": jsonable(span.t1),
        "duration": jsonable(span.duration),
        "attrs": jsonable(span.attrs),
        "events": [_event_to_dict(e) for e in span.events],
        "children": [span_to_dict(c) for c in span.children],
    }


def trace_to_dict(trace: Tracer | Span | Iterable[Span]) -> dict[str, Any]:
    """The whole trace (a tracer, one span, or an iterable of spans)
    as ``{"roots": [...]}``."""
    if isinstance(trace, Tracer):
        roots: Iterable[Span] = list(trace.roots)
    elif isinstance(trace, Span):
        roots = [trace]
    else:
        roots = list(trace)
    return {"roots": [span_to_dict(root) for root in roots]}


def to_json(trace: Tracer | Span | Iterable[Span], indent: int | None = 2) -> str:
    """JSON text of :func:`trace_to_dict`."""
    return json.dumps(trace_to_dict(trace), indent=indent)


def write_jsonl(
    trace: Tracer | Span | Iterable[Span],
    fp: IO[str],
) -> int:
    """Write one JSON object per span (events inline), DFS order.

    Each line carries ``id`` and ``parent_id`` so the tree is
    reconstructable from a flat stream; returns the number of lines.
    """
    if isinstance(trace, Tracer):
        roots: list[Span] = list(trace.roots)
    elif isinstance(trace, Span):
        roots = [trace]
    else:
        roots = list(trace)
    count = 0
    next_id = iter(range(1, 1 << 62))

    def emit(span: Span, parent_id: int | None) -> None:
        nonlocal count
        span_id = next(next_id)
        row = {
            "id": span_id,
            "parent_id": parent_id,
            "name": span.name,
            "t0": jsonable(span.t0),
            "t1": jsonable(span.t1),
            "duration": jsonable(span.duration),
            "attrs": jsonable(span.attrs),
            "events": [_event_to_dict(e) for e in span.events],
        }
        fp.write(json.dumps(row) + "\n")
        count += 1
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return count


def _format_duration(duration: float) -> str:
    """Human duration: seconds-scale clocks get units, integers (from
    deterministic test clocks) print raw."""
    if isinstance(duration, int) or duration == int(duration):
        if duration >= 1e4 or duration != duration:
            return f"{duration:g}"
        return f"{int(duration)}"
    if duration >= 1.0:
        return f"{duration:.3f}s"
    if duration >= 1e-3:
        return f"{duration * 1e3:.2f}ms"
    return f"{duration * 1e6:.1f}us"


def _format_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        value = jsonable(value)
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        elif isinstance(value, (dict, list)):
            parts.append(f"{key}={json.dumps(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def format_tree(
    trace: Tracer | Span | Iterable[Span],
    events: bool = True,
    max_events: int = 40,
) -> str:
    """Render a span forest as an indented tree.

    ``events=False`` hides event lines; otherwise up to ``max_events``
    events print per span (the rest are summarized), so a trace of a
    long Phase 1 stays readable.
    """
    if isinstance(trace, Tracer):
        roots: list[Span] = list(trace.roots)
    elif isinstance(trace, Span):
        roots = [trace]
    else:
        roots = list(trace)
    lines: list[str] = []

    def emit(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("`- " if is_last else "|- ")
        attrs = _format_attrs(span.attrs)
        head = f"{prefix}{connector}{span.name} [{_format_duration(span.duration)}]"
        if attrs:
            head += f"  {attrs}"
        lines.append(head)
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "|  ")
        if events and span.events:
            shown = span.events[:max_events]
            for event in shown:
                lines.append(
                    f"{child_prefix}. {event.name}  {_format_attrs(event.attrs)}"
                )
            if len(span.events) > max_events:
                lines.append(
                    f"{child_prefix}. … {len(span.events) - max_events} more "
                    f"event(s)"
                )
        for i, child in enumerate(span.children):
            emit(child, child_prefix, i == len(span.children) - 1, False)

    for root in roots:
        emit(root, "", True, True)
    return "\n".join(lines)
