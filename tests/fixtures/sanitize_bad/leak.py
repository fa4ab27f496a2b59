"""Seeded violation: an engine whose worker pool is never shut down.

``exercise`` runs a two-shard batch on a ``threads`` engine, which
builds the engine's thread pool, and forgets ``Engine.close()``.  The
resource ledger reports the still-open pool as a ``leak`` at
settlement.  It is a warning, not an error: the pool's idle threads
exit with the interpreter.
"""

from repro.engine import Engine, ScanRequest
from repro.lists.generate import random_list


def exercise() -> None:
    engine = Engine(executor="threads", max_workers=2)
    engine.run_batch(
        [
            ScanRequest(lst=random_list(64, 1)),
            ScanRequest(lst=random_list(64, 2), op="max"),
        ]
    )
