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
time).  ``submit`` never waits: on a full queue it raises
:class:`BackpressureError` at once, so a serving layer sheds load
instead of buffering without bound, and a caller that submits then
flushes from one thread cannot wedge on its own queue.
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
    """The submission queue is full."""


class QueueClosedError(RuntimeError):
    """The submission queue was closed before submitting.

    Raised by :meth:`SubmissionQueue.submit` once
    :meth:`SubmissionQueue.close` has run.  ``Engine.close()`` answers
    the requests already queued with structured ``shutdown``
    :class:`~repro.engine.errors.RequestError` responses.
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
        the bound, so it is exempted rather than refused forever: it is
        admitted when the queue is empty.
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
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def pending_nodes(self) -> int:
        """Total nodes across queued requests."""
        with self._lock:
            return self._nodes

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _has_room(self, request: ScanRequest) -> bool:
        if not self._items:
            return True  # never refuse a lone over-sized request
        if self.max_requests is not None and len(self._items) >= self.max_requests:
            return False
        return self.max_nodes is None or self._nodes + request.n <= self.max_nodes

    def submit(self, request: ScanRequest) -> int:
        """Enqueue a request; returns its ``request_id``.

        Never waits: raises :class:`BackpressureError` at once when the
        queue is full, and :class:`QueueClosedError` once the queue has
        been closed.
        """
        with self._lock:
            if self._closed:
                raise QueueClosedError("submission queue is closed")
            if not self._has_room(request):
                raise BackpressureError(
                    f"queue full ({len(self._items)} requests, "
                    f"{self._nodes} nodes pending)"
                )
            request.submitted_at = self.clock()
            self._items.append(request)
            self._nodes += request.n
            # handoff edge: everything the submitter did to the request
            # happens-before the engine thread that drains it
            hb_publish(("request", request.request_id))
            return request.request_id

    def drain(self, max_requests: int | None = None) -> list[ScanRequest]:
        """Pop up to ``max_requests`` requests in FIFO order (all by
        default)."""
        with self._lock:
            k = len(self._items) if max_requests is None else min(
                max_requests, len(self._items)
            )
            batch = self._items[:k]
            del self._items[:k]
            self._nodes -= sum(r.n for r in batch)
            return batch

    def close(self) -> list[ScanRequest]:
        """Close the queue; returns the requests still pending.

        Idempotent (a second close returns ``[]``); later ``submit``
        calls raise :class:`QueueClosedError`.  The caller owns the
        returned requests — ``Engine.close()`` answers each with a
        structured ``shutdown`` error so no request vanishes silently.
        """
        with self._lock:
            if self._closed:
                return []
            self._closed = True
            pending = self._items
            self._items = []
            self._nodes = 0
            return pending
