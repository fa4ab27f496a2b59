"""Three-phase sharded list scan over the engine's worker pool.

The distributed shape (Sanders/Schimek/Uhl/Weidmann, PAPERS.md):

1. **Contract** — each chunk of the successor array reduces, in
   parallel, to one ``(exit, segment-sum)`` pair per entry node
   (:func:`repro.distribute.chunks.contract_chunk`).
2. **Reduce** — the entry nodes form a list at most as long as the
   boundary set; the Wyllie or sublist kernel solves it in the
   parent, router-selected like any fused shard.
3. **Expand** — each chunk reruns its local scan seeded with the entry
   carries from the reduced solve, producing final values in parallel.

Chunks reach worker processes through the same shared-memory transport
as fused shards (``engine.workers``); a :class:`~repro.distribute.
leases.LeaseGate` bounds the bytes in flight so the resident set stays
inside ``DistributedConfig.memory_budget_bytes`` even when the inputs
are ``np.memmap``-backed files much larger than RAM (the PEM-grounded
out-of-core mode — memmapped chunks are copied into bounded buffers
and their pages dropped as soon as each chunk retires).

Results are bit-identical to the in-memory kernels for integer
operators (associativity is exact); floating-point operators
re-associate across segment boundaries exactly like the sublist
algorithm itself and match within the documented tolerance
(``docs/kernels.md``).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from ..core.forest import Forest
from ..core.operators import SUM, Operator, get_operator
from ..core.stats import ScanStats
from ..engine.router import Router, default_router
from ..engine.workers import (
    SHM_MIN_BYTES,
    ExecutionBackend,
    _alloc_out,
    _export_array,
    _release,
    create_backend,
    run_fused_kernel,
    shippable_operator,
)
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..lists.validate import ListStructureError
from ..trace.tracer import Tracer, null_span, resolve_trace
from .chunks import (
    ChunkResult,
    _ChunkTask,
    _contract_chunk_task,
    _expand_chunk_task,
    contract_chunk,
    expand_chunk,
)
from .config import DistributedConfig
from .leases import LeaseGate
from .oocore import drop_resident_range, flush_range
from .partition import find_entries, plan_chunks

__all__ = ["sharded_forest_scan", "sharded_list_scan", "sharded_list_rank"]


class _ChunkIO:
    """Chunk-granular array access with bounded residency.

    Slices in-memory arrays directly; copies memmap chunks into private
    buffers and drops the source pages immediately, so streaming a file
    much larger than RAM keeps only in-flight chunks resident.
    """

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr
        self.is_memmap = isinstance(arr, np.memmap)

    def fetch(self, lo: int, hi: int) -> np.ndarray:
        sl = self.arr[lo:hi]
        if self.is_memmap:
            buf = np.array(sl)
            drop_resident_range(self.arr, lo, hi)
            return buf
        return sl

    def store(self, lo: int, hi: int, chunk: np.ndarray) -> None:
        self.arr[lo:hi] = chunk
        if self.is_memmap:
            flush_range(self.arr, lo, hi)
            drop_resident_range(self.arr, lo, hi)


def sharded_forest_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator | str = SUM,
    *,
    inclusive: bool = False,
    config: DistributedConfig | None = None,
    backend: ExecutionBackend | str | None = None,
    router: Router | None = None,
    rng: np.random.Generator | int | None = None,
    out: np.ndarray | None = None,
    stats: ScanStats | None = None,
    trace: str | Tracer | None = None,
    report: dict[str, Any] | None = None,
) -> np.ndarray:
    """Scan a forest too large for one fused kernel, in chunks.

    ``nxt``/``values`` (and ``out``) may be plain arrays or
    ``np.memmap`` instances — memmapped inputs stream chunk by chunk
    inside the configured memory budget.  ``backend`` is an engine
    :class:`~repro.engine.workers.ExecutionBackend` (shared with the
    caller) or an executor name to build privately; every chunk, inline
    or offloaded, runs on its kernel backend (``ExecutionBackend.kernels``,
    resolved when the backend is built).  ``router`` picks the Phase-2
    algorithm for the reduced list.  ``report``, when a dict, is filled
    with partition/reduction telemetry.

    The inputs are never modified.  Returns ``out``.
    """
    op = get_operator(op)
    cfg = config or DistributedConfig()
    tracer = resolve_trace(trace)
    span = tracer.span if tracer is not None else null_span
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    heads = np.ascontiguousarray(np.asarray(heads, dtype=INDEX_DTYPE).ravel())
    n = int(nxt.shape[0])
    if out is None:
        out = np.empty(values.shape, dtype=values.dtype)
    if n == 0:
        return out

    own_backend = not isinstance(backend, ExecutionBackend)
    exec_backend = (
        backend
        if isinstance(backend, ExecutionBackend)
        else create_backend(backend or "sync", None)
    )
    try:
        return _sharded_scan(
            nxt, values, heads, op, inclusive, cfg, exec_backend,
            router or default_router(), gen, out, stats, tracer, span, report,
        )
    finally:
        if own_backend:
            exec_backend.close()


def _sharded_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    inclusive: bool,
    cfg: DistributedConfig,
    backend: ExecutionBackend,
    router: Router,
    gen: np.random.Generator,
    out: np.ndarray,
    stats: ScanStats | None,
    tracer: Tracer | None,
    span: Any,
    report: dict[str, Any] | None,
) -> np.ndarray:
    n = int(nxt.shape[0])
    workers = int(getattr(backend, "max_workers", None) or 1)
    num_chunks = cfg.resolve_num_chunks(n, values.dtype, workers)
    op_name = shippable_operator(op) if backend.offloads_kernels else None
    offload = op_name is not None
    kernels = backend.kernels
    gate = LeaseGate(cfg.memory_budget_bytes)
    seed_root = int(gen.integers(0, 2**63))
    traced = tracer is not None and tracer.enabled
    nxt_io = _ChunkIO(nxt)
    values_io = _ChunkIO(values)
    out_io = _ChunkIO(out)
    merge_lock = threading.Lock()

    def merge_stats(kstats: ScanStats) -> None:
        if stats is not None:
            with merge_lock:
                stats.merge(kstats)

    def adopt(spans: list[dict[str, Any]], parent: Any) -> None:
        if traced and spans:
            from ..trace.export import span_from_dict

            assert tracer is not None
            with merge_lock:
                tracer.adopt([span_from_dict(rec) for rec in spans], parent=parent)

    with span(
        "sharded_scan",
        n=n,
        lists=int(heads.shape[0]),
        chunks=num_chunks,
        offload=offload,
        budget_bytes=cfg.memory_budget_bytes,
    ) as root_span:
        with span("plan", parent=root_span, chunks=num_chunks):
            plan = plan_chunks(n, num_chunks)
            entries_per_chunk = find_entries(
                lambda lo, hi: nxt_io.fetch(lo, hi), plan, heads
            )
        for c, entries in enumerate(entries_per_chunk):
            # every chunk holds a node, and in a forest a chain from a
            # head reaches it: the chain enters the chunk at that head,
            # or across an edge from another chunk
            if entries.shape[0] == 0:
                lo, hi = plan.bounds(c)
                raise ListStructureError(
                    f"no head reaches nodes [{lo}, {hi}): not a forest of lists"
                )
        entries_all = (
            np.concatenate(entries_per_chunk)
            if entries_per_chunk
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        entry_cuts = np.zeros(plan.num_chunks + 1, dtype=INDEX_DTYPE)
        for c, e in enumerate(entries_per_chunk):
            entry_cuts[c + 1] = entry_cuts[c] + e.shape[0]
        n_reduced = int(entries_all.shape[0])

        # ---------------- Phase 1: contract chunks in parallel --------
        with span("contract", parent=root_span, chunks=plan.num_chunks) as contract_span:

            def run_contract(c: int) -> ChunkResult:
                lo, hi = plan.bounds(c)
                entries = entries_per_chunk[c]
                seed = seed_root + c
                if offload:
                    chunk_bytes = (
                        (hi - lo) * (nxt.dtype.itemsize + values.dtype.itemsize)
                        + entries.nbytes
                    )
                    with gate.admit(chunk_bytes):
                        leases: list[Any] = []
                        try:
                            assert op_name is not None
                            task = _ChunkTask(
                                nxt=_export_array(
                                    nxt_io.fetch(lo, hi), leases, SHM_MIN_BYTES
                                ),
                                values=_export_array(
                                    values_io.fetch(lo, hi), leases, SHM_MIN_BYTES
                                ),
                                lo=lo,
                                hi=hi,
                                entries=_export_array(entries, leases, SHM_MIN_BYTES),
                                op_name=op_name,
                                seed=seed,
                                traced=traced,
                                kernel_backend=kernels.name,
                            )
                            exits, sums, kstats, spans = backend.run_task(
                                _contract_chunk_task, task
                            )
                        finally:
                            _release(leases, unlink=True)
                    merge_stats(kstats)
                    adopt(spans, contract_span)
                    return ChunkResult(exits=exits, sums=sums)
                kstats = ScanStats()
                with span(
                    "chunk_contract",
                    parent=contract_span,
                    chunk=c,
                    lo=lo,
                    hi=hi,
                    entries=int(entries.shape[0]),
                ):
                    result = contract_chunk(
                        nxt_io.fetch(lo, hi),
                        values_io.fetch(lo, hi),
                        lo,
                        hi,
                        entries,
                        op,
                        np.random.default_rng(seed),
                        stats=kstats,
                        kernel_backend=kernels,
                    )
                merge_stats(kstats)
                return result

            chunk_results = backend.map_shards(run_contract, list(range(plan.num_chunks)))

        # ---------------- Phase 2: solve the reduced list --------------
        reduced_algorithm: str | None = None
        carries_all = np.empty(0, dtype=values.dtype)
        if n_reduced > 0:
            exits_all = np.concatenate([r.exits for r in chunk_results])
            sums_all = np.concatenate([r.sums for r in chunk_results]).astype(
                values.dtype, copy=False
            )
            reduced_nxt = np.arange(n_reduced, dtype=INDEX_DTYPE)
            linked = exits_all >= 0
            # every non-terminal exit is an entry node by construction,
            # and entries_all is globally sorted, so positions resolve
            # by binary search
            reduced_nxt[linked] = np.searchsorted(entries_all, exits_all[linked])
            reduced_heads = np.searchsorted(entries_all, heads).astype(
                INDEX_DTYPE, copy=False
            )
            reduced_algorithm = router.choose(n_reduced, int(heads.shape[0]))
            kstats = ScanStats()
            carries_all = np.empty(n_reduced, dtype=values.dtype)
            with span(
                "reduce",
                parent=root_span,
                n_reduced=n_reduced,
                algorithm=reduced_algorithm,
            ):
                run_fused_kernel(
                    Forest.of(reduced_nxt, sums_all, reduced_heads),
                    op,
                    False,  # exclusive: carries are prefixes *before* each entry
                    reduced_algorithm,
                    np.random.default_rng(seed_root + plan.num_chunks),
                    kstats,
                    [carries_all],
                    tracer,
                    kernel_backend=kernels,
                )
            merge_stats(kstats)

        # ---------------- Phase 3: expand chunks in parallel -----------
        with span("expand", parent=root_span, chunks=plan.num_chunks) as expand_span:

            def run_expand(c: int) -> None:
                lo, hi = plan.bounds(c)
                entries = entries_per_chunk[c]
                carries = carries_all[entry_cuts[c] : entry_cuts[c + 1]]
                seed = seed_root + c  # same seed → same splitters as Phase 1
                if offload:
                    chunk_bytes = (
                        (hi - lo)
                        * (nxt.dtype.itemsize + 2 * values.dtype.itemsize)
                        + entries.nbytes
                        + carries.nbytes
                    )
                    with gate.admit(chunk_bytes):
                        leases: list[Any] = []
                        try:
                            assert op_name is not None
                            out_ref = _alloc_out(
                                (hi - lo,), values.dtype, leases, SHM_MIN_BYTES
                            )
                            task = _ChunkTask(
                                nxt=_export_array(
                                    nxt_io.fetch(lo, hi), leases, SHM_MIN_BYTES
                                ),
                                values=_export_array(
                                    values_io.fetch(lo, hi), leases, SHM_MIN_BYTES
                                ),
                                lo=lo,
                                hi=hi,
                                entries=_export_array(entries, leases, SHM_MIN_BYTES),
                                op_name=op_name,
                                seed=seed,
                                traced=traced,
                                kernel_backend=kernels.name,
                                inclusive=inclusive,
                                carries=_export_array(carries, leases, SHM_MIN_BYTES),
                                out=out_ref,
                            )
                            payload, kstats, spans = backend.run_task(
                                _expand_chunk_task, task
                            )
                            if payload is not None:
                                out_io.store(lo, hi, np.asarray(payload))
                            else:
                                out_shm = leases[0]  # _alloc_out ran first
                                view = np.ndarray(
                                    (hi - lo,), dtype=values.dtype, buffer=out_shm.buf
                                )
                                out_io.store(lo, hi, view)
                                del view
                        finally:
                            _release(leases, unlink=True)
                    merge_stats(kstats)
                    adopt(spans, expand_span)
                    return
                kstats = ScanStats()
                out_c = np.empty(hi - lo, dtype=values.dtype)
                with span(
                    "chunk_expand",
                    parent=expand_span,
                    chunk=c,
                    lo=lo,
                    hi=hi,
                    entries=int(entries.shape[0]),
                ):
                    expand_chunk(
                        nxt_io.fetch(lo, hi),
                        values_io.fetch(lo, hi),
                        lo,
                        hi,
                        entries,
                        carries,
                        op,
                        inclusive,
                        out_c,
                        np.random.default_rng(seed),
                        stats=kstats,
                        kernel_backend=kernels,
                    )
                out_io.store(lo, hi, out_c)
                merge_stats(kstats)

            backend.map_shards(run_expand, list(range(plan.num_chunks)))

    if report is not None:
        report.update(
            num_chunks=plan.num_chunks,
            n_reduced=n_reduced,
            reduced_algorithm=reduced_algorithm,
            offloaded=offload,
            gate_peak_bytes=gate.peak_bytes,
            memory_budget_bytes=cfg.memory_budget_bytes,
        )
    return out


def sharded_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    **kwargs: Any,
) -> np.ndarray:
    """Sharded scan of one linked list (see :func:`sharded_forest_scan`)."""
    heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
    return sharded_forest_scan(
        lst.next, lst.values, heads, op, inclusive=inclusive, **kwargs
    )


def sharded_list_rank(lst: LinkedList, **kwargs: Any) -> np.ndarray:
    """Rank every node (link distance from the head, head = 0): the
    exclusive all-ones sum, matching :func:`repro.core.list_rank`."""
    values = np.ones(lst.n, dtype=INDEX_DTYPE)
    heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
    return sharded_forest_scan(lst.next, values, heads, SUM, inclusive=False, **kwargs)
