"""Public dispatch API: one entry point over every implementation.

``list_scan`` / ``list_rank`` select an algorithm by name and handle
the common ergonomics.  Every algorithm raises ``ListStructureError``
unless its input is a list (``docs/algorithm.md``).  This is the
interface a downstream user of the library sees; the per-algorithm
modules remain importable for research use.

Algorithms
----------

==================  ====================================================
``"sublist"``       the paper's algorithm (default) — work efficient,
                    small constants; `core.sublist` over `core.forest`
``"wyllie"``        pointer jumping — O(n log n) work; best for short
                    lists; `baselines.wyllie` over `core.forest`
``"serial"``        direct traversal — the O(n) reference and the
                    oracle every other path is tested against;
                    `baselines.serial`
``"random_mate"``   Miller/Reif randomized contraction;
                    `baselines.random_mate`
``"anderson_miller"``  Anderson/Miller queued splicing;
                    `baselines.anderson_miller`
``"early_reconnect"``  the Section 6 variant: straggler suffixes are
                    compacted and rescanned at full vector width;
                    `core.early_reconnect`
``"auto"``          cost-model routing: the Section 3/4 kernel
                    equations predict the time of Wyllie and the
                    sublist algorithm, and the cheaper wins
                    (`engine.router`)
==================  ====================================================

The hot loops of the sublist algorithm run on the process's kernel
backend (``docs/kernels.md``).  Batched execution — structural result
cache, cost-model routing per shard and stats counters — is
:meth:`repro.engine.Engine.scan` and :meth:`~repro.engine.Engine.rank`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..lists.generate import LinkedList
from ..lists.validate import validate_list_strict
from ..trace.tracer import Tracer, null_span, resolve_trace
from .operators import Operator, SUM, get_operator
from .stats import ScanStats

__all__ = ["list_scan", "list_rank", "ALGORITHMS"]


def _auto_algorithm(n: int) -> str:
    """Resolve ``algorithm="auto"`` for an ``n``-node list with the
    cost-model router (imported here, since ``repro.engine`` imports
    this module)."""
    from ..engine.router import route_algorithm

    return route_algorithm(n)


ALGORITHMS = (
    "sublist",
    "wyllie",
    "serial",
    "random_mate",
    "anderson_miller",
    "early_reconnect",
    "auto",
)


def list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    algorithm: str = "sublist",
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    trace: str | Tracer | None = None,
    **kwargs: Any,
) -> np.ndarray:
    """Scan a linked list under a binary associative operator.

    Parameters
    ----------
    lst:
        The linked list (successor array with self-loop tail, head
        index, per-node values).
    op:
        Operator instance or name (``"sum"``, ``"max"``, …).
    inclusive:
        Include each node's own value in its result (default: the
        exclusive prescan, the paper's semantics).
    algorithm:
        One of :data:`ALGORITHMS`.
    rng:
        Seed or generator for the randomized algorithms.
    stats:
        Optional :class:`~repro.core.stats.ScanStats` to fill with
        work/space accounting.
    trace:
        ``None`` (default — tracing hooks are skipped entirely),
        ``"off"`` (hooks run against a disabled tracer; the overhead
        configuration the benchmarks measure) or a
        :class:`repro.trace.Tracer` collecting per-phase spans and
        pack events.  See ``docs/tracing.md``.
    **kwargs:
        Forwarded to the selected implementation (e.g. ``config=`` for
        the sublist algorithm, ``block_size=`` for Anderson/Miller);
        Wyllie takes none.

    Returns
    -------
    numpy.ndarray
        Scan values indexed by node.
    """
    op = get_operator(op)
    if algorithm == "auto":
        algorithm = _auto_algorithm(lst.n)

    tracer = resolve_trace(trace)
    span = tracer.span if tracer is not None else null_span
    with span("list_scan", algorithm=algorithm, n=lst.n, inclusive=inclusive):
        if algorithm in ("random_mate", "anderson_miller"):
            validate_list_strict(lst)  # contractions: no traversal proves the list
        if algorithm == "sublist":
            from .sublist import sublist_list_scan

            return sublist_list_scan(
                lst, op, inclusive=inclusive, rng=rng, stats=stats, trace=tracer, **kwargs
            )
        if algorithm == "wyllie":
            from ..baselines.wyllie import wyllie_list_scan

            return wyllie_list_scan(lst, op, inclusive=inclusive, stats=stats, **kwargs)
        if algorithm == "serial":
            from ..baselines.serial import serial_list_scan

            out = serial_list_scan(lst, op, inclusive=inclusive, **kwargs)
            if stats is not None:
                stats.add_work(lst.n, phase="serial")
            return out
        if algorithm == "random_mate":
            from ..baselines.random_mate import random_mate_list_scan

            return random_mate_list_scan(
                lst, op, inclusive=inclusive, rng=rng, stats=stats, **kwargs
            )
        if algorithm == "anderson_miller":
            from ..baselines.anderson_miller import anderson_miller_list_scan

            return anderson_miller_list_scan(
                lst, op, inclusive=inclusive, rng=rng, stats=stats, **kwargs
            )
        if algorithm == "early_reconnect":
            from .early_reconnect import early_reconnect_list_scan

            return early_reconnect_list_scan(
                lst, op, inclusive=inclusive, rng=rng, stats=stats, **kwargs
            )
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )


def list_rank(
    lst: LinkedList,
    algorithm: str = "sublist",
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    trace: str | Tracer | None = None,
    **kwargs: Any,
) -> np.ndarray:
    """Rank every node: its link distance from the head (head = 0).

    Equivalent to ``list_scan`` of all-ones values under ``+`` —
    "list ranking is the list scan where plus is the operator and the
    values to be summed are all equal to one" (Section 1).

    ``trace=`` attaches a :class:`repro.trace.Tracer`, exactly as for
    :func:`list_scan`.
    """
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return list_scan(
        ones,
        SUM,
        inclusive=False,
        algorithm=algorithm,
        rng=rng,
        stats=stats,
        trace=trace,
        **kwargs,
    )
