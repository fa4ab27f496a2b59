"""Sanitizer activation and the annotation API threaded through the engine.

Everything here is built around one invariant: **when no sanitizer is
active, every hook is a single truthiness check on an empty list**.
The engine's locked sections call :class:`guarded` and
:func:`annotate_access` unconditionally; production pays one branch.

Activation is a context manager::

    with sanitizers() as state:
        ...  # run engine / serve work
    state.failures()   # races
    state.warnings()   # stalls, still-open pools

While active:

* ``guarded(lock, cell, kind)`` — acquires the lock *and* tells the
  race detector about the happens-before edge, optionally recording an
  annotated access to ``cell`` under it;
* ``annotate_access(cell, kind)`` — records a bare access (use for
  reads/writes intentionally outside any lock, to prove they race — or
  with ``atomic_*`` kinds, that they don't);
* ``hb_publish``/``hb_join`` — handoff edges (queue submit→drain,
  future resolution);
* ``cv_wait(cv)`` — ``Condition.wait`` releases and reacquires its
  lock invisibly; this wrapper keeps the detector's lock model honest;
* ``repro.engine.workers`` notes its pools in the
  :class:`~repro.sanitize.resources.ResourceLedger`.

Nesting is supported (the pytest plugin wraps whole tests while unit
tests open their own scopes): hooks report to the innermost state.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from .hb import RaceDetector, RaceReport
from .resources import Leak, ResourceLedger
from .watchdog import LoopWatchdog, StallReport

__all__ = [
    "Finding",
    "SanitizerState",
    "active_state",
    "annotate_access",
    "atomic_read",
    "atomic_write",
    "cv_wait",
    "guarded",
    "hb_join",
    "hb_publish",
    "lock_acquired",
    "lock_released",
    "note_pool",
    "note_pool_closed",
    "sanitizers",
    "start_loop_watchdog",
]

_PKG_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Finding:
    """One sanitizer verdict, normalized across detectors."""

    check: str  # "race" | "leak" | "stall"
    severity: str  # "error" | "warning"
    message: str
    site: str = ""


@dataclass
class SanitizerState:
    """Everything one ``sanitizers()`` scope observed."""

    label: str = "sanitize"
    races: RaceDetector | None = None
    ledger: ResourceLedger | None = None
    watchdog_interval: float = 0.02
    watchdog_threshold: float = 0.25
    stalls: list[StallReport] = field(default_factory=list)
    watchdog_beats: int = 0

    # -- verdicts -------------------------------------------------------

    def race_reports(self) -> list[RaceReport]:
        return list(self.races.reports) if self.races is not None else []

    def leaks(self) -> list[Leak]:
        return self.ledger.leaks() if self.ledger is not None else []

    def findings(self) -> list[Finding]:
        out = [
            Finding("race", "error", r.describe(), r.second_site) for r in self.race_reports()
        ]
        out.extend(Finding("leak", "warning", leak.describe()) for leak in self.leaks())
        out.extend(Finding("stall", "error", s.describe()) for s in self.stalls)
        return out

    def failures(self) -> list[Finding]:
        """What must fail a test or a ``REPRO_SANITIZE=1`` command:
        races.  Stalls stay out — wall-clock scheduling jitter on shared
        CI runners is not a test verdict — but the ``sanitize`` CLI
        still counts them as errors.  A pool still open is a warning:
        module-scoped fixtures legitimately hold pools across tests."""
        return [f for f in self.findings() if f.severity == "error" and f.check != "stall"]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings() if f not in self.failures()]

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {"label": self.label, "watchdog_beats": self.watchdog_beats}
        if self.races is not None:
            out["hb_annotations"] = self.races.annotations
            out["races"] = len(self.races.reports)
        if self.ledger is not None:
            out.update(self.ledger.summary())
            out["leaks"] = len(self.ledger.leaks())
        out["stalls"] = len(self.stalls)
        return out


# The activation stack.  Appends/pops are guarded by _STACK_MUTEX; the
# hot-path read is a plain truthiness check, safe under the GIL.
_STACK: list[SanitizerState] = []
_STACK_MUTEX = threading.Lock()


def active_state() -> SanitizerState | None:
    """The innermost active sanitizer scope, if any."""
    if not _STACK:
        return None
    try:
        return _STACK[-1]
    except IndexError:  # raced with deactivation; treat as inactive
        return None


def _call_site() -> str:
    """``file:line`` of the nearest caller outside this package."""
    frame = sys._getframe(1)
    while frame is not None and os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == (
        _PKG_DIR
    ):
        frame = frame.f_back
    if frame is None:
        return "?"
    parts = frame.f_code.co_filename.replace(os.sep, "/").split("/")
    return "/".join(parts[-3:]) + f":{frame.f_lineno}"


# ----------------------------------------------------------------------
# happens-before annotation API
# ----------------------------------------------------------------------


def annotate_access(cell: str, kind: str = "write") -> None:
    """Record a read/write of a named shared cell for race checking."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.access(cell, kind, _call_site())


def atomic_write(cell: str) -> None:
    """Declare a release-store reference swap (e.g. router state)."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.atomic_write(cell)


def atomic_read(cell: str) -> None:
    """Declare the acquire-load pairing with :func:`atomic_write`."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.atomic_read(cell)


def hb_publish(channel: object) -> None:
    """Producer half of a handoff edge (queue submit, future set)."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.publish(channel)


def hb_join(channel: object) -> None:
    """Consumer half of a handoff edge."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.join(channel)


def lock_acquired(lock: object) -> None:
    """HB hook for lock wrappers (``CheckedLock``) not using ``guarded``."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.on_acquire(id(lock))


def lock_released(lock: object) -> None:
    """Counterpart of :func:`lock_acquired`; call before the real unlock."""
    if not _STACK:
        return
    state = active_state()
    if state is not None and state.races is not None:
        state.races.on_release(id(lock))


class guarded:
    """``with guarded(lock, cell, kind):`` — acquire + HB edge + access.

    Drop-in for ``with lock:`` over ``Lock``/``RLock``/``Condition``/
    ``CheckedLock``.  ``cell`` (optional) additionally records one
    annotated access of ``kind`` under the lock.
    """

    __slots__ = ("_lock", "_cell", "_kind")

    def __init__(self, lock: Any, cell: str | None = None, kind: str = "write") -> None:
        self._lock = lock
        self._cell = cell
        self._kind = kind

    def __enter__(self) -> "guarded":
        self._lock.acquire()  # repolint: disable=lock-with-only
        if _STACK:
            state = active_state()
            if state is not None and state.races is not None:
                state.races.on_acquire(id(self._lock))
                if self._cell is not None:
                    state.races.access(self._cell, self._kind, _call_site())
        return self

    def __exit__(self, *exc: object) -> None:
        if _STACK:
            state = active_state()
            if state is not None and state.races is not None:
                # record the release while still holding the real lock,
                # so no acquirer can observe the cell before the edge
                state.races.on_release(id(self._lock))
        self._lock.release()  # repolint: disable=lock-with-only


def cv_wait(cv: Any, timeout: float | None = None) -> bool:
    """``Condition.wait`` with the hidden release/reacquire made visible
    to the race detector (otherwise a contended wait looks like an
    annotated access without its lock edge — a false positive)."""
    state = active_state() if _STACK else None
    races = state.races if state is not None else None
    if races is not None:
        races.on_release(id(cv))
    try:
        result: bool = cv.wait(timeout)
        return result
    finally:
        if races is not None:
            races.on_acquire(id(cv))


# ----------------------------------------------------------------------
# resource ledger hooks
# ----------------------------------------------------------------------


def _ledger() -> ResourceLedger | None:
    if not _STACK:
        return None
    state = active_state()
    return state.ledger if state is not None else None


def note_pool(pool: Any, kind: str) -> None:
    ledger = _ledger()
    if ledger is not None:
        ledger.pool_opened(pool, kind, _call_site())


def note_pool_closed(pool: Any) -> None:
    ledger = _ledger()
    if ledger is not None:
        ledger.pool_closed(pool)


# ----------------------------------------------------------------------
# watchdog + activation
# ----------------------------------------------------------------------


def start_loop_watchdog() -> LoopWatchdog | None:
    """Start a stall watchdog on the running loop if a sanitizer is
    active (the serve layer calls this unconditionally from ``start()``)."""
    if not _STACK:
        return None
    state = active_state()
    if state is None:
        return None

    def _on_stall(report: StallReport) -> None:
        state.stalls.append(report)

    watchdog = LoopWatchdog(
        interval=state.watchdog_interval,
        threshold=state.watchdog_threshold,
        on_stall=_on_stall,
    )
    watchdog.start()

    beats_before = watchdog.beats

    def _fold_beats() -> None:
        state.watchdog_beats += watchdog.beats - beats_before

    watchdog_stop = watchdog.stop

    def _stop() -> None:
        _fold_beats()
        watchdog_stop()

    watchdog.stop = _stop  # type: ignore[method-assign]
    return watchdog


@contextmanager
def sanitizers(
    *,
    races: bool = True,
    resources: bool = True,
    label: str = "sanitize",
    watchdog_threshold: float = 0.25,
    max_reports: int = 64,
) -> Iterator[SanitizerState]:
    """Activate the sanitizer suite for the dynamic extent of the block."""
    state = SanitizerState(
        label=label,
        races=RaceDetector(max_reports=max_reports) if races else None,
        ledger=ResourceLedger() if resources else None,
        watchdog_threshold=watchdog_threshold,
    )
    with _STACK_MUTEX:
        _STACK.append(state)
    try:
        yield state
    finally:
        with _STACK_MUTEX:
            _STACK.remove(state)
