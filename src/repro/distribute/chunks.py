"""Per-chunk contraction and expansion kernels.

One chunk of the three-phase distributed algorithm
(Sanders/Schimek/Uhl/Weidmann shape):

Phase 1 — :func:`contract_chunk`: cut the chunk's edges at entry nodes
and chunk boundaries, scan each resulting segment with the existing
forest kernels, and reduce it to one ``(exit, segment-sum)`` pair per
entry.  Phase 3 — :func:`expand_chunk`: rerun the same local scan
seeded with the entry carries the reduced global solve produced, which
yields every node's final rank/scan value.

Both kernels are pure functions of their chunk slice, so they run
anywhere: inline on the engine thread (``sync``/``threads``) or inside
a pool worker via the module-level ``_contract_chunk_task`` /
``_expand_chunk_task`` entry points, whose arrays travel through the
same ``_ArrayRef`` shared-memory transport the fused engine path uses.

Dense-entry chunks (poor layout locality: nearly every node is an
entry) skip the sublist machinery — its virtual-processor bookkeeping
degenerates when segments average a node or two — and pointer-jump
with the vectorised Wyllie kernel instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.forest import forest_list_scan, forest_tails, wyllie_forest_scan
from ..core.operators import Operator, get_operator
from ..core.stats import ScanStats
from ..kernels.backend import KernelBackend
from ..lists.generate import INDEX_DTYPE
from ..trace.tracer import Tracer
from ..engine.workers import _ArrayRef, _attach_array, _release, _task_backend

__all__ = ["contract_chunk", "expand_chunk", "ChunkResult"]

#: Above this entry density the local scan pointer-jumps (Wyllie)
#: instead of running the sublist kernel — see the module docstring.
DENSE_ENTRY_RATIO = 4


@dataclass
class ChunkResult:
    """Phase-1 output for one chunk: one slot per entry, entry order."""

    exits: np.ndarray  # global id of the segment's successor, -1 = list tail
    sums: np.ndarray  # operator-sum of the segment's values


def _local_successors(
    nxt_c: np.ndarray, lo: int, hi: int, entries_local: np.ndarray
) -> np.ndarray:
    """Chunk-local successor array with segments cut apart.

    An edge survives only when it stays inside the chunk, does not
    enter an entry node (that node starts the *next* segment), and is
    not a self-loop; every cut edge becomes a local self-loop, i.e. a
    segment tail.  The result is a forest of disjoint segments, each
    rooted at an entry — exactly what the forest kernels consume.
    """
    n_c = hi - lo
    idx = np.arange(n_c, dtype=INDEX_DTYPE)
    tgt = nxt_c.astype(INDEX_DTYPE, copy=False) - lo
    internal = (tgt >= 0) & (tgt < n_c) & (tgt != idx)
    entry_mask = np.zeros(n_c, dtype=bool)
    entry_mask[entries_local] = True
    enters_entry = np.zeros(n_c, dtype=bool)
    enters_entry[internal] = entry_mask[tgt[internal]]
    keep = internal & ~enters_entry
    return np.where(keep, tgt, idx).astype(INDEX_DTYPE, copy=False)


def _local_scan(
    loc_nxt: np.ndarray,
    values_c: np.ndarray,
    entries_local: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    out: np.ndarray,
    rng: np.random.Generator,
    stats: ScanStats | None,
    trace: Tracer | None,
    kernel_backend: KernelBackend | None,
) -> None:
    """Exclusive scan of every segment, seeded by its carry."""
    n_c = loc_nxt.shape[0]
    if entries_local.shape[0] * DENSE_ENTRY_RATIO >= n_c:
        wyllie_forest_scan(loc_nxt, values_c, entries_local, op, carries, out, stats=stats)
        return
    forest_list_scan(
        loc_nxt,
        values_c,
        entries_local,
        op,
        carries=carries,
        rng=rng,
        stats=stats,
        out=out,
        trace=trace,
        kernel_backend=kernel_backend,
    )


def contract_chunk(
    nxt_c: np.ndarray,
    values_c: np.ndarray,
    lo: int,
    hi: int,
    entries: np.ndarray,
    op: Operator,
    rng: np.random.Generator,
    stats: ScanStats | None = None,
    trace: Tracer | None = None,
    kernel_backend: KernelBackend | None = None,
) -> ChunkResult:
    """Phase 1: reduce the chunk to one boundary pair per entry.

    ``nxt_c`` / ``values_c`` are the chunk's slices ``[lo:hi)`` of the
    global arrays; ``entries`` its sorted global entry ids.  Neither
    input is modified, and both may be read-only.  ``kernel_backend``
    is the sharded scan's resolved backend, as for
    ``engine.workers.run_fused_kernel``.
    """
    if entries.shape[0] == 0:
        empty_i = np.empty(0, dtype=INDEX_DTYPE)
        return ChunkResult(exits=empty_i, sums=np.empty(0, dtype=values_c.dtype))
    entries_local = (entries - lo).astype(INDEX_DTYPE, copy=False)
    loc_nxt = _local_successors(nxt_c, lo, hi, entries_local)
    prefix = np.empty_like(values_c)
    _local_scan(
        loc_nxt, values_c, entries_local, op, None, prefix, rng, stats, trace, kernel_backend
    )
    tails = forest_tails(loc_nxt, entries_local)
    sums = op.combine(prefix[tails], values_c[tails])
    exit_global = np.asarray(nxt_c)[tails].astype(INDEX_DTYPE, copy=False)
    # a tail whose *global* successor is itself ends the whole list
    exits = np.where(exit_global == tails + lo, -1, exit_global).astype(
        INDEX_DTYPE, copy=False
    )
    return ChunkResult(exits=exits, sums=np.ascontiguousarray(sums))


def expand_chunk(
    nxt_c: np.ndarray,
    values_c: np.ndarray,
    lo: int,
    hi: int,
    entries: np.ndarray,
    carries: np.ndarray,
    op: Operator,
    inclusive: bool,
    out_c: np.ndarray,
    rng: np.random.Generator,
    stats: ScanStats | None = None,
    trace: Tracer | None = None,
    kernel_backend: KernelBackend | None = None,
) -> None:
    """Phase 3: final per-node values for the chunk, written to ``out_c``.

    ``carries[k]`` is the global exclusive prefix at ``entries[k]`` —
    the reduced solve's output — which seeds the same segment scan
    Phase 1 ran, turning local offsets into global ranks.
    """
    if entries.shape[0] == 0:
        return
    entries_local = (entries - lo).astype(INDEX_DTYPE, copy=False)
    loc_nxt = _local_successors(nxt_c, lo, hi, entries_local)
    _local_scan(
        loc_nxt, values_c, entries_local, op, carries, out_c, rng, stats, trace, kernel_backend
    )
    if inclusive:
        out_c[...] = op.combine(out_c, values_c)


# ----------------------------------------------------------------------
# process-pool task entry points (picklable, module level)
# ----------------------------------------------------------------------


@dataclass
class _ChunkTask:
    """One chunk crossing the process boundary.

    Arrays travel as :class:`repro.engine.workers._ArrayRef` (shared
    memory above the inline threshold), the operator and the kernel
    backend by name, exactly like :class:`repro.engine.workers._FusedTask`.
    ``out`` is only set for expansion: a shared slot the worker fills,
    or ``None``/inline → the result rides back in the return payload.
    """

    nxt: _ArrayRef
    values: _ArrayRef
    lo: int
    hi: int
    entries: _ArrayRef
    op_name: str
    seed: int
    traced: bool
    kernel_backend: str
    inclusive: bool = False
    carries: _ArrayRef | None = None
    out: _ArrayRef | None = None


def _contract_chunk_task(
    task: _ChunkTask,
) -> tuple[np.ndarray, np.ndarray, ScanStats, list[dict[str, Any]]]:
    """Worker entry point for Phase 1: returns ``(exits, sums, stats, spans)``."""
    from ..trace.export import span_to_dict

    holds: list[Any] = []
    nxt_c = values_c = entries = None
    try:
        nxt_c = _attach_array(task.nxt, holds)
        values_c = _attach_array(task.values, holds)
        entries = _attach_array(task.entries, holds)
        tracer = Tracer() if task.traced else None
        kstats = ScanStats()
        result = contract_chunk(
            nxt_c,
            values_c,
            task.lo,
            task.hi,
            entries,
            get_operator(task.op_name),
            np.random.default_rng(task.seed),
            stats=kstats,
            trace=tracer,
            kernel_backend=_task_backend(task.kernel_backend),
        )
        spans = [span_to_dict(root) for root in tracer.roots] if tracer else []
        exits = result.exits.copy() if result.exits.base is not None else result.exits
        sums = result.sums.copy() if result.sums.base is not None else result.sums
        return exits, sums, kstats, spans
    finally:
        del nxt_c, values_c, entries
        _release(holds, unlink=False)


def _expand_chunk_task(
    task: _ChunkTask,
) -> tuple[np.ndarray | None, ScanStats, list[dict[str, Any]]]:
    """Worker entry point for Phase 3.

    Writes into the shared ``out`` slot when one was allocated (payload
    ``None``), otherwise returns the chunk's result array by value.
    """
    from ..trace.export import span_to_dict

    holds: list[Any] = []
    nxt_c = values_c = entries = carries = out_c = None
    try:
        nxt_c = _attach_array(task.nxt, holds)
        values_c = _attach_array(task.values, holds)
        entries = _attach_array(task.entries, holds)
        assert task.carries is not None and task.out is not None
        carries = _attach_array(task.carries, holds)
        out_c = _attach_array(task.out, holds)
        tracer = Tracer() if task.traced else None
        kstats = ScanStats()
        expand_chunk(
            nxt_c,
            values_c,
            task.lo,
            task.hi,
            entries,
            carries,
            get_operator(task.op_name),
            task.inclusive,
            out_c,
            np.random.default_rng(task.seed),
            stats=kstats,
            trace=tracer,
            kernel_backend=_task_backend(task.kernel_backend),
        )
        spans = [span_to_dict(root) for root in tracer.roots] if tracer else []
        payload = out_c if task.out.shm_name is None else None
        if payload is not None and payload.base is not None:
            payload = payload.copy()
        return payload, kstats, spans
    finally:
        del nxt_c, values_c, entries, carries, out_c
        _release(holds, unlink=False)
