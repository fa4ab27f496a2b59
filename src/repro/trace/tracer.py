"""Low-overhead span/event tracing for the scan kernels and the engine.

The paper's evaluation method is phase-resolved: every claim in
Section 4 is about *when* something happens inside a run — how many
sublists are still live after ``s`` traversal steps, where the pack
points fall, how the phases share the total time.  Aggregate counters
(``core.stats.ScanStats``) cannot answer those questions after the
fact, so this module records the trajectory itself:

* a :class:`Span` is one timed region (a phase, a shard execution, a
  whole batch) with attributes, child spans and typed :class:`Event`
  points (a pack, a cache probe, a routing decision);
* a :class:`Tracer` owns the span forest.  It is **off by default**
  everywhere: kernels take ``trace=None`` and guard every hook with a
  plain ``is not None`` check, so the untraced hot path pays a handful
  of branches per *pack* (never per element).

Design constraints, in order:

1. **Determinism** — the clock is injectable.  Tests drive a counting
   clock so span durations are exact integers and the structural
   invariants (children nest inside parents, durations sum) are
   checkable without tolerances.
2. **Overhead** — hooks fire per phase and per pack, which is
   O(packs) ≈ O(log-ish) work against the O(n) scan.  A *disabled*
   tracer (``NULL_TRACER``, or ``trace="off"``) still accepts every
   hook call and no-ops, which is what the overhead benchmark
   measures; ``trace=None`` skips the calls entirely.
3. **Thread safety** — span stacks are thread-local (the engine's
   thread-pool driver executes shards concurrently); structural
   mutations (attaching roots/children) take a lock.  A span started
   in a worker thread attaches to an explicit ``parent=`` span so the
   batch tree stays connected across threads.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

__all__ = [
    "Event",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "resolve_trace",
    "null_span",
    "counting_clock",
]


class Event:
    """One typed point-in-time record inside a span.

    ``name`` identifies the event type (``"pack"``, ``"cache_hit"``,
    ``"route"``, …); ``attrs`` carries the payload (live counts, the
    predicted winner, …); ``t`` is the tracer clock reading.
    """

    __slots__ = ("name", "t", "attrs")

    def __init__(self, name: str, t: float, attrs: dict[str, Any]):
        self.name = name
        self.t = t
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, t={self.t!r}, {self.attrs!r})"


class Span:
    """One timed region of a traced run.

    ``t1`` is ``None`` while the span is open; :attr:`duration` of an
    unfinished span is 0.  Children appear in start order; events in
    emission order.
    """

    __slots__ = ("name", "t0", "t1", "attrs", "children", "events")

    def __init__(self, name: str, t0: float, attrs: dict[str, Any] | None = None):
        self.name = name
        self.t0 = t0
        self.t1: float | None = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list["Span"] = []
        self.events: list[Event] = []

    @property
    def duration(self) -> float:
        """Elapsed clock units; 0 while the span is still open."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Span | None:
        """First span named ``name`` in this subtree (DFS), or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree, in DFS order."""
        return [span for span in self.walk() if span.name == name]

    def events_named(self, name: str) -> list[Event]:
        """This span's own events of one type, in emission order."""
        return [event for event in self.events if event.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, t0={self.t0!r}, t1={self.t1!r}, "
            f"{len(self.children)} children, {len(self.events)} events)"
        )


class _NoopHandle:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_HANDLE = _NoopHandle()


def null_span(name: str, parent: Span | None = None, **attrs: Any) -> _NoopHandle:
    """Stand-in for ``tracer.span`` when no tracer is attached.

    Kernels bind ``span = tracer.span if tracer is not None else
    null_span`` once per invocation, so the traced and untraced paths
    share one code shape.
    """
    return _NOOP_HANDLE


class _SpanHandle:
    """Context manager that opens/closes one :class:`Span`."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Span | None,
        attrs: dict[str, Any],
    ):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = Span(self._name, tracer.clock(), self._attrs)
        stack = tracer._stack()
        parent = self._parent
        if parent is None and stack:
            parent = stack[-1]
        with tracer._lock:
            if parent is None:
                tracer.roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)
        self.span = span
        return span

    def __exit__(self, *exc: object) -> bool:
        span = self.span
        if span is not None:
            span.t1 = self._tracer.clock()
            stack = self._tracer._stack()
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # pragma: no cover - unbalanced exit guard
                stack.remove(span)
        return False


class Tracer:
    """Collects a forest of spans and events from one or more runs.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time; defaults to
        :func:`time.perf_counter`.  Inject :func:`counting_clock` (or
        any monotonic callable) for deterministic tests.
    enabled:
        A disabled tracer accepts every hook and records nothing —
        the shared :data:`NULL_TRACER` is how ``trace="off"`` keeps
        the instrumented call sites while shedding all bookkeeping.
    """

    __slots__ = ("clock", "enabled", "roots", "_local", "_lock")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ):
        self.clock = clock if clock is not None else time.perf_counter
        self.enabled = bool(enabled)
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self, name: str, parent: Span | None = None, **attrs: Any
    ) -> _SpanHandle | _NoopHandle:
        """Open a span as a context manager.

        ``parent`` pins the span under an explicit parent (needed when
        the opening thread differs from the parent's); otherwise the
        current thread's innermost open span is the parent and a span
        opened with an empty stack becomes a root.
        """
        if not self.enabled:
            return _NOOP_HANDLE
        return _SpanHandle(self, name, parent, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a typed event on the current thread's open span.

        Events emitted with no open span are dropped (the disabled
        path and a mis-nested caller behave identically: no record).
        """
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].events.append(Event(name, self.clock(), attrs))

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the current thread's open span."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].attrs.update(attrs)

    def current(self) -> Span | None:
        """The current thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop every recorded span (open handles keep working)."""
        with self._lock:
            self.roots = []
        self._local = threading.local()

    def last_root(self) -> Span | None:
        """The most recently started root span, if any."""
        with self._lock:
            return self.roots[-1] if self.roots else None


#: Shared disabled tracer: every hook is a cheap no-op.  ``trace="off"``
#: resolves here, so call sites stay instrumented while recording
#: nothing — the configuration the overhead benchmark measures.
NULL_TRACER = Tracer(enabled=False)


def resolve_trace(trace: None | str | Tracer) -> Tracer | None:
    """Normalize a ``trace=`` argument.

    ``None`` → ``None`` (hooks skipped entirely); ``"off"`` → the
    shared disabled tracer (hooks called, nothing recorded); a
    :class:`Tracer` instance passes through.
    """
    if trace is None:
        return None
    if isinstance(trace, Tracer):
        return trace
    if trace == "off":
        return NULL_TRACER
    raise TypeError(
        f"trace must be None, 'off' or a Tracer, got {trace!r}"
    )


def counting_clock(start: int = 0) -> Callable[[], int]:
    """A deterministic clock: each call returns ``start, start+1, …``.

    With this clock every span/event timestamp is a distinct integer
    in call order, so tests can assert exact nesting and duration
    arithmetic with no floating-point or wall-clock tolerance.
    """
    counter = iter(range(start, 1 << 62))
    return lambda: next(counter)
