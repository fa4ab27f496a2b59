"""Request/response types and the bounded submission queue.

A :class:`ScanRequest` is one list-scan problem — a linked list, an
operator, the inclusive/exclusive flag and an algorithm preference
(``"auto"`` by default, which lets the cost-model router decide per
fused batch).  Callers enqueue requests into a :class:`SubmissionQueue`
and the engine drains them in FIFO order into fused executions.

Backpressure
------------

The queue bounds both the number of pending requests and the total
number of queued *nodes* (the quantity that actually costs memory and
time).  ``submit`` blocks while the queue is full; with ``block=False``
or an expired ``timeout`` it raises :class:`BackpressureError` so a
serving layer can shed load instead of buffering without bound.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..sanitize.runtime import hb_publish
from ..lists.generate import LinkedList

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids a cycle)
    from .errors import RequestError

__all__ = [
    "ScanRequest",
    "ScanResponse",
    "SubmissionQueue",
    "BackpressureError",
    "QueueClosedError",
]

_REQUEST_IDS = itertools.count(1)


class BackpressureError(RuntimeError):
    """The submission queue is full and the caller chose not to wait."""


class QueueClosedError(RuntimeError):
    """The submission queue was closed while (or before) submitting.

    Raised by :meth:`SubmissionQueue.submit` once :meth:`SubmissionQueue.close`
    has run — including for submitters that were *blocked on
    backpressure* when the close happened: they are woken and get this
    exception instead of hanging on a queue no drain will ever empty.
    ``Engine.close()`` turns the same condition into structured
    ``shutdown`` :class:`~repro.engine.errors.RequestError` responses
    for requests already queued.
    """


@dataclass
class ScanRequest:
    """One list-scan problem submitted to the engine.

    Parameters
    ----------
    lst:
        The linked list to scan.  The engine never mutates it (fused
        executions work on concatenated copies).
    op:
        Operator instance or name; normalized to an :class:`Operator`.
    inclusive:
        Include each node's own value (default: exclusive prescan).
    algorithm:
        ``"auto"`` (default) defers the choice to the cost-model
        router; any other :data:`~repro.core.list_scan.ALGORITHMS`
        member forces that algorithm for this request.
    tag:
        Opaque caller correlation data, echoed on the response.

    ``submitted_at`` is stamped (``time.perf_counter``) by
    :meth:`SubmissionQueue.submit`; a traced engine turns it into the
    per-request ``queue_wait`` event.  Requests handed straight to
    ``run_batch`` without queueing keep ``None`` and record no wait.
    """

    lst: LinkedList
    op: Operator | str = SUM
    inclusive: bool = False
    algorithm: str = "auto"
    tag: object | None = None
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    submitted_at: float | None = None

    def __post_init__(self) -> None:
        self.op = get_operator(self.op)

    @property
    def n(self) -> int:
        """Number of nodes in the request's list."""
        return self.lst.n


@dataclass
class ScanResponse:
    """The engine's answer to one :class:`ScanRequest`.

    ``algorithm`` is the algorithm that actually produced the result
    (after routing); ``batch_lists`` is how many requests were fused
    into the execution that served this one (1 for a lone or cached
    request).

    Error channel: ``ok`` is True iff the request produced a result.
    On failure ``result`` is ``None`` and ``error`` carries a
    structured :class:`~repro.engine.errors.RequestError` — the batch
    as a whole never raises for one bad request.  ``coalesced`` marks
    a response served by another identical request's execution in the
    same batch (intra-batch deduplication).
    """

    request_id: int
    result: np.ndarray | None = None
    algorithm: str = ""
    cached: bool = False
    coalesced: bool = False
    batch_lists: int = 1
    n: int = 0
    tag: object | None = None
    ok: bool = True
    error: RequestError | None = None


class SubmissionQueue:
    """Bounded FIFO of pending :class:`ScanRequest` objects.

    Parameters
    ----------
    max_requests:
        Maximum number of queued requests (``None`` = unbounded).
    max_nodes:
        Maximum total ``lst.n`` across queued requests (``None`` =
        unbounded).  A request with ``n > max_nodes`` can never satisfy
        the bound, so it is exempted rather than wedged: it is admitted
        when the queue is empty, or — for a blocking submit — as soon
        as it reaches the front of the waiter line, so a steady stream
        of small submitters cannot starve it forever.
    clock:
        Zero-argument callable stamping ``submitted_at`` on admission
        (the source of the traced ``queue_wait`` telemetry); defaults
        to :func:`time.perf_counter`.  Injectable so tests can drive a
        deterministic counting clock — the ``injectable-clock`` lint
        rule forbids direct wall-clock calls in this module.
    """

    def __init__(
        self,
        max_requests: int | None = 1024,
        max_nodes: int | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be >= 1 (or None)")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be >= 1 (or None)")
        self.max_requests = max_requests
        self.max_nodes = max_nodes
        self.clock = clock if clock is not None else time.perf_counter
        self._items: list[ScanRequest] = []
        self._nodes = 0
        self._cond = threading.Condition()
        self._waiters: list[int] = []  # tickets of blocked submitters, FIFO
        self._tickets = itertools.count()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def pending_nodes(self) -> int:
        """Total nodes across queued requests."""
        with self._cond:
            return self._nodes

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def _has_room(self, request: ScanRequest, at_front: bool = False) -> bool:
        if not self._items:
            return True  # never wedge on a single over-sized request
        if self.max_requests is not None and len(self._items) >= self.max_requests:
            return False
        if self.max_nodes is not None and self._nodes + request.n > self.max_nodes:
            # An over-sized request (n > max_nodes) can never satisfy
            # the node bound.  Waiting for an empty queue would starve
            # it behind a steady stream of small submitters, so a
            # blocking submitter is admitted as soon as it is the
            # frontmost waiter instead.
            if request.n > self.max_nodes:
                return at_front
            return False
        return True

    def submit(
        self,
        request: ScanRequest,
        block: bool = True,
        timeout: float | None = None,
    ) -> int:
        """Enqueue a request; returns its ``request_id``.

        Raises :class:`BackpressureError` when the queue is full and
        ``block`` is False (immediately) or ``timeout`` seconds elapse
        without room appearing, and :class:`QueueClosedError` when the
        queue has been closed — including when the close happens while
        this submitter is blocked waiting for room.
        """
        with self._cond:
            if self._closed:
                raise QueueClosedError("submission queue is closed")
            if not self._has_room(request):
                if not block:
                    raise BackpressureError(
                        f"queue full ({len(self._items)} requests, "
                        f"{self._nodes} nodes pending)"
                    )
                ticket = next(self._tickets)
                self._waiters.append(ticket)
                try:
                    admitted = self._cond.wait_for(
                        lambda: self._closed
                        or self._has_room(
                            request, at_front=self._waiters[0] == ticket
                        ),
                        timeout=timeout,
                    )
                finally:
                    self._waiters.remove(ticket)
                    self._cond.notify_all()  # let the next waiter re-check
                if self._closed:
                    raise QueueClosedError(
                        "submission queue closed while waiting for room"
                    )
                if not admitted:
                    raise BackpressureError(
                        f"queue still full after {timeout}s "
                        f"({len(self._items)} requests pending)"
                    )
            request.submitted_at = self.clock()
            self._items.append(request)
            self._nodes += request.n
            # handoff edge: everything the submitter did to the request
            # happens-before the engine thread that drains it
            hb_publish(("request", request.request_id))
            self._cond.notify_all()
            return request.request_id

    def drain(self, max_requests: int | None = None) -> list[ScanRequest]:
        """Pop up to ``max_requests`` requests in FIFO order (all by
        default) and wake any submitter blocked on backpressure."""
        with self._cond:
            k = len(self._items) if max_requests is None else min(
                max_requests, len(self._items)
            )
            batch = self._items[:k]
            del self._items[:k]
            self._nodes -= sum(r.n for r in batch)
            self._cond.notify_all()
            return batch

    def close(self) -> list[ScanRequest]:
        """Close the queue; returns the requests still pending.

        Idempotent (a second close returns ``[]``).  Every submitter
        blocked on backpressure is woken and raises
        :class:`QueueClosedError`; later ``submit`` calls raise
        immediately.  The caller owns the returned requests —
        ``Engine.close()`` answers each with a structured ``shutdown``
        error so no request vanishes silently.
        """
        with self._cond:
            if self._closed:
                return []
            self._closed = True
            pending = self._items
            self._items = []
            self._nodes = 0
            self._cond.notify_all()
            return pending
