"""The paper's list-scan algorithm (Sections 2.4 and 3) on one list.

A single list is a forest with one head, so this module is a thin
wrapper: :func:`sublist_list_scan` runs the one three-phase
implementation in ``core.forest`` (Initialize, Phase 1, Find sublist
list, Phase 2, Phase 3; see that module's docstring) with the list's
head.  :class:`SublistConfig` and :func:`choose_splitters` live
there too and are re-exported here.  The cycle-accounted Cray C-90
version lives in ``simulate.sublist_sim``.
"""

from __future__ import annotations

from typing import cast

import numpy as np

# Not called here: perfbench/layers.py patches this name through
# inspect.getattr_static, which raises if the attribute is missing.
from ..baselines.wyllie import wyllie_list_scan  # noqa: F401
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..trace.tracer import Tracer
from .forest import SublistConfig, choose_splitters, forest_list_scan
from .operators import Operator, SUM
from .stats import ScanStats

__all__ = [
    "SublistConfig",
    "sublist_list_scan",
    "sublist_list_rank",
    "choose_splitters",
]


def sublist_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
    trace: str | Tracer | None = None,
) -> np.ndarray:
    """List scan with the paper's sublist algorithm.

    The input list is only read: Initialize cuts a record copy of it
    (``core.forest``), so read-only arrays are fine.

    ``trace`` attaches a :class:`repro.trace.Tracer` (or ``"off"`` for
    the instrumented-but-disabled path): the run records a
    ``sublist_scan`` span with per-phase children and one ``pack``
    event per pack carrying the live-sublist count before/after — the
    observed counterpart of the paper's ``g(s)`` trajectory
    (``repro.trace.compare`` overlays the two).  Hooks fire per phase
    and per pack, never per element, so the untraced path pays only a
    handful of branch checks.

    The hot loops run on the process's kernel backend
    (``docs/kernels.md``).

    Returns the exclusive (default) or inclusive scan indexed by node.
    """
    result = forest_list_scan(
        lst.next,
        lst.values,
        np.asarray([lst.head], dtype=INDEX_DTYPE),
        op,
        inclusive=inclusive,
        config=config,
        rng=rng,
        stats=stats,
        out=out,
        trace=trace,
    )
    return cast(np.ndarray, result)  # no list ids were asked for


def sublist_list_rank(
    lst: LinkedList,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """List ranking: the sublist scan of all-ones values under ``+``."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return sublist_list_scan(ones, SUM, config=config, rng=rng, stats=stats)
