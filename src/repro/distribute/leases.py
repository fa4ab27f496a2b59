"""Bounded admission for shared-memory chunk leases.

The out-of-core contract is a *fixed* resident budget no matter how
large the list is, so chunk buffers cannot simply be allocated as fast
as driver threads can dispatch them.  :class:`LeaseGate` is the
admission valve: every in-flight chunk reserves its byte footprint
before creating segments and returns it after the parent releases
them, blocking excess dispatchers until memory frees up.  Segment
*ownership* stays where it always was — created by the parent via the
``engine.workers`` export helpers into a per-task lease list and
closed+unlinked in that task's ``finally`` — the gate only bounds how
many such lists exist at once.

The gate is instrumented for the sanitizer suite: reservations flow
through the resource ledger (an admit without a matching return is a
``lease-bytes`` leak at settlement), and the condition-variable wait
uses :func:`~repro.sanitize.runtime.cv_wait` so the race detector sees
the hidden release/reacquire inside ``Condition.wait``.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterator
from contextlib import contextmanager

from ..sanitize.runtime import cv_wait, guarded, note_lease_admitted, note_lease_returned

__all__ = ["LeaseGate"]

_gate_ids = itertools.count()


class LeaseGate:
    """Counting byte-semaphore with oversize admission.

    A reservation larger than the whole budget is admitted once the
    gate is empty (otherwise a single chunk bigger than the budget
    would deadlock); it simply runs alone.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._outstanding = 0
        self._peak = 0
        self._cv = threading.Condition()
        # one race-checked cell per gate: sharded scans running at once
        # each hold their own gate, under their own lock
        self._cell = f"lease.gate.{next(_gate_ids)}"

    @property
    def outstanding_bytes(self) -> int:
        with guarded(self._cv, self._cell, "read"):
            return self._outstanding

    @property
    def peak_bytes(self) -> int:
        """High-water mark of reserved bytes (budget-compliance telemetry)."""
        with guarded(self._cv, self._cell, "read"):
            return self._peak

    @contextmanager
    def admit(self, nbytes: int) -> Iterator[None]:
        nbytes = max(0, int(nbytes))
        with guarded(self._cv, self._cell):
            while self._outstanding > 0 and self._outstanding + nbytes > self.max_bytes:
                cv_wait(self._cv)
            self._outstanding += nbytes
            self._peak = max(self._peak, self._outstanding)
        note_lease_admitted(nbytes)
        try:
            yield
        finally:
            with guarded(self._cv, self._cell):
                self._outstanding -= nbytes
                self._cv.notify_all()
            note_lease_returned(nbytes)
