"""Happens-before race detection over vector clocks.

The engine's shared mutable state (``EngineStats`` counters, the
result cache, the kernel seed stream) is touched from the event loop,
the flush worker, the pool threads that run shards, and test threads.
The locking discipline that keeps those accesses safe is prose until
something checks it; this module is the checker, in the
ThreadSanitizer tradition but annotation-driven: call sites declare
their accesses (``repro.sanitize.annotate_access`` / ``guarded``), and
the detector verifies that every conflicting pair is ordered by a
*happens-before* edge.

Edges come from two sources, mirroring how the engine actually
synchronizes:

* **locks** — releasing a lock publishes the releasing thread's vector
  clock; a later acquire of the same lock joins it
  (:meth:`RaceDetector.on_acquire` / :meth:`RaceDetector.on_release`,
  fed by ``guarded()`` and by instrumented
  :class:`~repro.lint.lockorder.CheckedLock` instances);
* **handoffs** — a producer publishes on a channel key and a consumer
  joins it (:meth:`RaceDetector.publish` / :meth:`RaceDetector.join`):
  queue submit→drain and shard future→respond edges.

Two accesses to the same cell race when at least one is a write and
neither happens-before the other.  Detection is *interleaving-
independent*: the racy pair is reported whenever it executes at all,
not only on the unlucky schedule — which is what makes the seeded
fixture corpus deterministic in CI.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

__all__ = ["RaceDetector", "RaceReport"]

#: Vector clocks are plain dicts ``logical-thread-id -> counter``.
_Clock = dict[int, int]

#: Logical thread ids: assigned once per thread, never reused.  Raw
#: ``threading.get_ident()`` values are recycled after a thread exits,
#: which would forge a program-order edge between two distinct threads
#: that happened to get the same ident — a false negative exactly when
#: short-lived threads run back to back.
_tid_local = threading.local()
_tid_counter = itertools.count(1)


def _logical_tid() -> int:
    tid: int | None = getattr(_tid_local, "tid", None)
    if tid is None:
        tid = _tid_local.tid = next(_tid_counter)
    return tid


@dataclass(frozen=True)
class RaceReport:
    """One unordered conflicting pair on an annotated cell."""

    cell: str
    first_kind: str  # "read" | "write"
    first_site: str
    second_kind: str
    second_site: str

    def describe(self) -> str:
        return (
            f"data race on {self.cell!r}: {self.second_kind} at "
            f"{self.second_site} is unordered with {self.first_kind} at "
            f"{self.first_site}"
        )


@dataclass
class _Epoch:
    """One recorded access: which thread, at what clock value, where."""

    tid: int
    clock: int
    site: str


@dataclass
class _Cell:
    """Per-cell history: the last write plus reads since that write."""

    last_write: _Epoch | None = None
    reads: dict[int, _Epoch] = field(default_factory=dict)


class RaceDetector:
    """Vector-clock happens-before checker for annotated accesses.

    Thread-safe behind one internal mutex — annotation sites are the
    engine's *book-keeping* paths (stats blocks, cache probes, state
    swaps), never per-element kernel work, so serializing them costs
    nothing measurable while the sanitizer is active and exactly one
    branch while it is not (see ``repro.sanitize.runtime``).
    """

    def __init__(self, max_reports: int = 64) -> None:
        self.max_reports = max_reports
        self.reports: list[RaceReport] = []
        # internal bookkeeping mutex: plain and unchecked — the
        # detector must not audit itself
        self._mutex = threading.Lock()
        self._threads: dict[int, _Clock] = {}
        self._locks: dict[object, _Clock] = {}
        self._channels: dict[object, _Clock] = {}
        self._cells: dict[str, _Cell] = {}
        self._seen_pairs: set[tuple[str, str, str]] = set()
        self.annotations = 0

    # ------------------------------------------------------------------
    # clock plumbing (caller holds the mutex)
    # ------------------------------------------------------------------

    def _clock_of(self, tid: int) -> _Clock:
        clock = self._threads.get(tid)
        if clock is None:
            clock = self._threads[tid] = {tid: 1}
        return clock

    @staticmethod
    def _join(into: _Clock, other: _Clock | None) -> None:
        if not other:
            return
        for tid, value in other.items():
            if into.get(tid, 0) < value:
                into[tid] = value

    def _release_into(self, table: dict[object, _Clock], key: object) -> None:
        """Release semantics: publish the current thread's clock at
        ``key`` (joining any previous publication) and advance the
        thread so later accesses are not confused with published ones."""
        tid = _logical_tid()
        clock = self._clock_of(tid)
        published = table.setdefault(key, {})
        self._join(published, clock)
        clock[tid] = clock.get(tid, 0) + 1

    def _acquire_from(self, table: dict[object, _Clock], key: object) -> None:
        tid = _logical_tid()
        self._join(self._clock_of(tid), table.get(key))

    # ------------------------------------------------------------------
    # happens-before edges
    # ------------------------------------------------------------------

    def on_acquire(self, lock_key: object) -> None:
        """The calling thread acquired the lock identified by ``lock_key``."""
        with self._mutex:
            self._acquire_from(self._locks, lock_key)

    def on_release(self, lock_key: object) -> None:
        """The calling thread is releasing ``lock_key`` (call *before*
        the real unlock, so no acquirer can slip in between)."""
        with self._mutex:
            self._release_into(self._locks, lock_key)

    def publish(self, channel: object) -> None:
        """Producer half of a handoff edge (queue submit, future set)."""
        with self._mutex:
            self._release_into(self._channels, channel)

    def join(self, channel: object) -> None:
        """Consumer half: order this thread after every publisher."""
        with self._mutex:
            self._acquire_from(self._channels, channel)

    # ------------------------------------------------------------------
    # annotated accesses
    # ------------------------------------------------------------------

    def access(self, cell: str, kind: str, site: str) -> None:
        """Record one ``read``/``write`` of ``cell`` and race-check it."""
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        tid = _logical_tid()
        with self._mutex:
            self.annotations += 1
            clock = self._clock_of(tid)
            state = self._cells.setdefault(cell, _Cell())
            write = state.last_write
            if write is not None and not self._ordered(write, tid, clock):
                self._report(cell, write, "write", kind, site)
            if kind == "write":
                for read in state.reads.values():
                    if not self._ordered(read, tid, clock):
                        self._report(cell, read, "read", kind, site)
                state.last_write = _Epoch(tid, clock[tid], site)
                state.reads.clear()
            else:
                state.reads[tid] = _Epoch(tid, clock[tid], site)

    @staticmethod
    def _ordered(prior: _Epoch, tid: int, clock: _Clock) -> bool:
        """Does ``prior`` happen-before the current access?"""
        if prior.tid == tid:
            return True  # program order
        return clock.get(prior.tid, 0) >= prior.clock

    def _report(
        self, cell: str, prior: _Epoch, prior_kind: str, kind: str, site: str
    ) -> None:
        key = (cell, prior.site, site)
        if key in self._seen_pairs or len(self.reports) >= self.max_reports:
            return
        self._seen_pairs.add(key)
        self.reports.append(
            RaceReport(
                cell=cell,
                first_kind=prior_kind,
                first_site=prior.site,
                second_kind=kind,
                second_site=site,
            )
        )
