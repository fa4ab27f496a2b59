"""Public dispatch API: one entry point over every implementation.

``list_scan`` / ``list_rank`` select an algorithm by name and handle
validation, copying and common ergonomics.  This is the interface a
downstream user of the library sees; the per-algorithm modules remain
importable for research use.

Algorithms
----------

==================  ====================================================
``"sublist"``       the paper's algorithm (default) — work efficient,
                    small constants; `core.sublist` over `core.forest`
``"wyllie"``        pointer jumping — O(n log n) work; best for short
                    lists; `baselines.wyllie`
``"serial"``        direct traversal — the O(n) reference;
                    `baselines.serial`
``"random_mate"``   Miller/Reif randomized contraction;
                    `baselines.random_mate`
``"anderson_miller"``  Anderson/Miller queued splicing;
                    `baselines.anderson_miller`
``"early_reconnect"``  the Section 6 variant: straggler suffixes are
                    compacted and rescanned at full vector width;
                    `core.early_reconnect`
``"auto"``          cost-model routing: the Section 3/4 kernel
                    equations predict each algorithm's time and the
                    cheapest wins (`engine.router`).  When no
                    calibration is available the historic fixed
                    crossover applies — serial below 4K nodes, sublist
                    above, mirroring the paper's Figure 1
==================  ====================================================

Batched execution: pass ``engine=`` (a :class:`repro.engine.Engine`)
to serve the call through the batched engine — structural result
cache, cost-model routing and the engine's stats counters — instead of
dispatching directly.
"""

from __future__ import annotations


from typing import TYPE_CHECKING, Any

import numpy as np

from ..lists.generate import LinkedList
from ..lists.validate import validate_list_strict
from ..trace.tracer import Tracer, null_span, resolve_trace
from .operators import Operator, SUM, get_operator
from .stats import ScanStats

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids a cycle)
    from ..engine.engine import Engine

__all__ = ["list_scan", "list_rank", "ALGORITHMS"]

#: Fallback crossover below which "auto" uses the serial traversal,
#: applied only when cost-model routing is unavailable (no calibration,
#: or the router cannot be constructed).  The paper's crossovers on the
#: C-90 (serial fastest on short lists, the sublist algorithm on long
#: ones) have the same structure.  The primary "auto" path routes via
#: ``repro.engine.router``, which evaluates the Section 3/4 kernel cost
#: equations instead of trusting this constant.
_AUTO_SERIAL_BELOW = 4096


def _auto_algorithm(n: int) -> str:
    """Resolve ``algorithm="auto"`` for an ``n``-node list.

    Routes through the cost-model router when available; falls back to
    the fixed :data:`_AUTO_SERIAL_BELOW` crossover only when the router
    subsystem cannot be *imported* (a stripped deployment).  A router
    that imports but then raises is a genuine bug and propagates — the
    fallback must not mask it.
    """
    try:
        from ..engine.router import route_algorithm
    except ImportError:
        return "serial" if n < _AUTO_SERIAL_BELOW else "sublist"
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
    validate: bool = False,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    engine: Engine | None = None,
    trace: str | Tracer | None = None,
    kernel_backend: str | None = None,
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
    validate:
        Run the strict structural validator first (O(n log n)).
    rng:
        Seed or generator for the randomized algorithms.
    stats:
        Optional :class:`~repro.core.stats.ScanStats` to fill with
        work/space accounting.
    engine:
        Optional :class:`repro.engine.Engine`; when given, the call is
        served through the batched engine (result cache + cost-model
        routing) rather than dispatched directly.  The engine manages
        its own RNG stream and statistics and forwards nothing to the
        kernels, so passing ``rng``, ``stats``, ``trace`` or
        implementation ``**kwargs`` together with ``engine`` raises
        :class:`TypeError` instead of silently dropping them (attach a
        tracer to the engine itself via ``Engine(trace=...)``).
    trace:
        ``None`` (default — tracing hooks are skipped entirely),
        ``"off"`` (hooks run against a disabled tracer; the overhead
        configuration the benchmarks measure) or a
        :class:`repro.trace.Tracer` collecting per-phase spans and
        pack events.  See ``docs/tracing.md``.
    kernel_backend:
        Kernel backend for the hot loops of the sublist algorithm
        (``"numpy"`` / ``"python"`` / ``"numba"`` / ``None`` for
        env-var-then-auto selection; ``docs/kernels.md``).  Ignored by
        the other algorithms, which have no pluggable kernels.
        Incompatible with ``engine=`` — the engine selects its own
        backend (``Engine(kernel_backend=...)``).
    **kwargs:
        Forwarded to the selected implementation (e.g. ``config=`` for
        the sublist algorithm, ``variant=`` for Wyllie).

    Returns
    -------
    numpy.ndarray
        Scan values indexed by node.
    """
    op = get_operator(op)
    if validate:
        validate_list_strict(lst)
    if engine is not None:
        dropped = [
            name
            for name, value in (
                ("rng", rng),
                ("stats", stats),
                ("trace", trace),
                ("kernel_backend", kernel_backend),
            )
            if value is not None
        ]
        dropped.extend(sorted(kwargs))
        if dropped:
            raise TypeError(
                "list_scan(engine=...) serves the call through the batched "
                "engine, which manages its own RNG stream, statistics and "
                "tracer (Engine(trace=...)) and forwards no implementation "
                f"kwargs; incompatible argument(s): {', '.join(dropped)}"
            )
        return engine.scan(lst, op, inclusive=inclusive, algorithm=algorithm)
    if algorithm == "auto":
        algorithm = _auto_algorithm(lst.n)

    tracer = resolve_trace(trace)
    span = tracer.span if tracer is not None else null_span
    with span("list_scan", algorithm=algorithm, n=lst.n, inclusive=inclusive):
        if algorithm == "sublist":
            from .sublist import sublist_list_scan

            return sublist_list_scan(
                lst, op, inclusive=inclusive, rng=rng, stats=stats,
                trace=tracer, kernel_backend=kernel_backend, **kwargs,
            )
        if algorithm == "wyllie":
            from ..baselines.wyllie import wyllie_list_scan

            return wyllie_list_scan(lst, op, inclusive=inclusive, stats=stats, **kwargs)
        if algorithm == "serial":
            from ..baselines.serial import serial_list_scan

            return serial_list_scan(lst, op, inclusive=inclusive, **kwargs)
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
    validate: bool = False,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    engine: Engine | None = None,
    trace: str | Tracer | None = None,
    kernel_backend: str | None = None,
    **kwargs: Any,
) -> np.ndarray:
    """Rank every node: its link distance from the head (head = 0).

    Equivalent to ``list_scan`` of all-ones values under ``+`` —
    "list ranking is the list scan where plus is the operator and the
    values to be summed are all equal to one" (Section 1).

    ``engine=`` serves the ranking through a batched
    :class:`repro.engine.Engine` and ``trace=`` attaches a
    :class:`repro.trace.Tracer`, exactly as for :func:`list_scan` —
    including the guard: combining ``engine=`` with ``rng``, ``stats``,
    ``trace``, ``kernel_backend`` or implementation ``**kwargs`` raises
    :class:`TypeError` instead of silently dropping them.
    """
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return list_scan(
        ones,
        SUM,
        inclusive=False,
        algorithm=algorithm,
        validate=validate,
        rng=rng,
        stats=stats,
        engine=engine,
        trace=trace,
        kernel_backend=kernel_backend,
        **kwargs,
    )
