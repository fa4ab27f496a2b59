"""Resource sanitizer: global accounting of worker pools.

The engine's ``threads`` backend builds its pool lazily and must shut
it down exactly once, at ``Engine.close()``.  A pool left open keeps
idle threads alive until interpreter exit, so the ledger witnesses
every pool's creation and shutdown:

* **pools** — ``repro.engine.workers`` notes executor pools as they
  are created and shut down.

:meth:`ResourceLedger.leaks` is the single verdict used by the pytest
plugin (`repro.sanitize.pytest_plugin`) and the ``REPRO_SANITIZE=1``
CLI wrapper.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Leak", "ResourceLedger"]


@dataclass(frozen=True)
class Leak:
    """One unreleased resource at settlement time."""

    kind: str  # "pool"
    name: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind} leak: {self.name} ({self.detail})"


@dataclass
class _Pool:
    kind: str
    site: str
    open: bool = True


@dataclass
class ResourceLedger:
    """Create/shutdown bookkeeping for engine resources.

    Mutation happens from whatever thread touches the resource; every
    entry point takes the internal mutex.  The ledger itself never
    frees anything — it only witnesses, so a buggy sanitizer cannot
    change program behaviour.
    """

    pools: dict[int, _Pool] = field(default_factory=dict)
    events: int = 0

    def __post_init__(self) -> None:
        self._mutex = threading.Lock()

    def pool_opened(self, pool: Any, kind: str, site: str) -> None:
        with self._mutex:
            self.events += 1
            self.pools[id(pool)] = _Pool(kind=kind, site=site)

    def pool_closed(self, pool: Any) -> None:
        with self._mutex:
            self.events += 1
            entry = self.pools.get(id(pool))
            if entry is not None:
                entry.open = False

    def leaks(self) -> list[Leak]:
        """Every pool created but never shut down."""
        with self._mutex:
            return [
                Leak("pool", entry.kind, f"created at {entry.site or '?'}, never shut down")
                for entry in self.pools.values()
                if entry.open
            ]

    def summary(self) -> dict[str, int]:
        with self._mutex:
            return {"events": self.events, "pools_tracked": len(self.pools)}
