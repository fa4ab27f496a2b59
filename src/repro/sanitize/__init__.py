"""Concurrency and resource sanitizer suite.

Dynamic counterparts to ``repro.lint``'s static rules: a vector-clock
happens-before race detector over the engine's annotated shared state,
a resource ledger that accounts worker pools, and an event-loop stall
watchdog for the serving front-end.  See ``docs/static-analysis.md`` for the catalog and
``repro-c90 sanitize`` for the CLI gate.
"""

from .hb import RaceDetector, RaceReport
from .resources import Leak, ResourceLedger
from .runtime import (
    Finding,
    SanitizerState,
    active_state,
    annotate_access,
    guarded,
    hb_join,
    hb_publish,
    lock_acquired,
    lock_released,
    note_pool,
    note_pool_closed,
    sanitizers,
    start_loop_watchdog,
)
from .watchdog import LoopWatchdog, StallReport

__all__ = [
    "Finding",
    "Leak",
    "LoopWatchdog",
    "RaceDetector",
    "RaceReport",
    "ResourceLedger",
    "SanitizerState",
    "StallReport",
    "active_state",
    "annotate_access",
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
