"""Persistent execution backends: ``sync``, ``threads``, ``processes``.

The paper scales the sublist algorithm across 1–8 C-90 CPUs by
dividing the virtual processors among physical ones (Section 5); the
serving engine mirrors that by dividing *shards* among workers.  PR 1
did this with a throwaway ``ThreadPoolExecutor`` built inside every
``run_batch`` call — pool construction churn on the hot path, and no
way past the GIL for kernels that stay in Python.  This module gives
the engine a real backend, chosen by ``Engine(executor=...)``:

``sync``
    No pool.  Shards execute one after another on the calling thread —
    the reference driver everything else must match bit for bit.
``threads``
    One long-lived, lazily-created ``ThreadPoolExecutor`` reused across
    batches.  Shards run concurrently on it; NumPy releases the GIL in
    the bulk operations, so large fused kernels overlap.
``processes``
    A long-lived ``ProcessPoolExecutor`` plus a same-width driver
    thread pool.  The driver threads run the engine's containment
    wrappers (retry/quarantine bookkeeping stays in the parent, under
    the parent's locks); the fused *kernels* execute in worker
    processes.  A shard's forest crosses the process boundary as one
    successor and one value array in ``multiprocessing.shared_memory``
    — the parent writes each member once, straight into its block of a
    segment, the worker maps it by name, and the result comes back
    through a third segment, from which the parent copies each member's
    result once — so no O(n) payload is ever pickled.  Tiny shards
    (below :data:`SHM_MIN_BYTES`) skip the segment setup and ship
    inline.
    Workers start via ``forkserver``/``spawn``, never ``fork`` — the
    pool is driven from threads, and fork-under-threads deadlocks
    (see :func:`_pool_mp_context`).

Fault containment is unchanged: a worker that raises surfaces the
exception through its future, the engine's quarantine retry re-runs
the shard's members as shards of one (offloaded like any shard), and
a crashed worker (a ``BrokenProcessPool``) additionally drops the
pool so the next dispatch gets a fresh one.  Tracing is unchanged too: workers record kernel
spans with their own tracer and return them as serialized records; the
engine adopts them under the batch root (``Tracer.adopt``), so a
traced batch is one connected tree no matter where it ran.

All backends are lazy (no pool exists until the first dispatch that
needs one) and idempotently closable (``Engine.close()`` / the engine
context manager tear workers down exactly once).
"""

from __future__ import annotations

import threading
from contextlib import suppress
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.forest import Forest, forest_scan, wyllie_scan
from ..core.operators import BUILTIN_OPERATORS, Operator, get_operator
from ..core.stats import ScanStats
from ..kernels.backend import KernelBackend, resolve_backend
from ..lists.generate import INDEX_DTYPE
from ..sanitize import runtime as sanitize
from ..trace.tracer import Tracer

__all__ = [
    "EXECUTORS",
    "SHM_MIN_BYTES",
    "ExecutionBackend",
    "SyncBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "run_fused_kernel",
    "offloadable_operator",
    "shippable_operator",
]

#: Accepted values for ``Engine(executor=...)``.
EXECUTORS = ("sync", "threads", "processes")

#: Fused arrays at least this large travel to worker processes through
#: ``multiprocessing.shared_memory``; smaller ones ship inline (pickled
#: with the task), where segment setup would cost more than the copy.
SHM_MIN_BYTES = 1 << 15


def run_fused_kernel(
    forest: Forest,
    op: Operator,
    inclusive: bool,
    algorithm: str,
    rng: np.random.Generator,
    kstats: ScanStats,
    outs: list[np.ndarray],
    tracer: Tracer | None = None,
    kernel_backend: KernelBackend | None = None,
) -> list[np.ndarray]:
    """Execute one shard's forest with the routed algorithm.

    This is the single kernel dispatch shared by every driver: the
    engine calls it inline (``sync``/``threads``, and any shard the
    process driver cannot ship), and :func:`_run_fused_task` calls it
    inside a worker process.  Member *k*'s scan is written into
    ``outs[k]``; the return value is always ``outs``.  The sublist
    kernel reads every member where it lies; Wyllie jumps pointers
    over one node array (:func:`~repro.core.forest.wyllie_scan`).
    ``kernel_backend`` is the caller's resolved backend for the
    sublist kernel's hot loops (``docs/kernels.md``); Wyllie has no
    pluggable loops.
    """
    if algorithm == "wyllie":
        wyllie_scan(forest, outs, op, stats=kstats)
    else:  # "sublist" and any future routable default
        forest_scan(
            forest, outs, op, rng=rng, stats=kstats, trace=tracer, kernel_backend=kernel_backend
        )
    if inclusive:
        for out, values in zip(outs, forest.values):
            out[...] = op.combine(out, values)
    return outs


# ----------------------------------------------------------------------
# shared-memory transport
# ----------------------------------------------------------------------


@dataclass
class _ArrayRef:
    """One array crossing the process boundary.

    ``shm_name`` set → the bytes live in a named shared-memory segment
    (created and later unlinked by the parent; the worker only maps
    and closes it).  ``shm_name`` ``None`` → ``inline`` carries the
    array by value (or, for the output slot, nothing: the worker
    returns the result in its payload).
    """

    shape: tuple[int, ...]
    dtype: str
    shm_name: str | None = None
    inline: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _export_array(arr: np.ndarray, leases: list[Any], min_bytes: int) -> _ArrayRef:
    """Ship ``arr`` to a worker: shared memory above ``min_bytes``,
    inline below.  Created segments are appended to ``leases`` — the
    parent owns them and must close+unlink after the task completes
    (crash or not)."""
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    if arr.nbytes < min_bytes:
        return _ArrayRef(shape=arr.shape, dtype=arr.dtype.str, inline=arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    leases.append(shm)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    del view
    return _ArrayRef(shape=arr.shape, dtype=arr.dtype.str, shm_name=shm.name)


def _export_forest(
    forest: Forest, leases: list[Any], min_bytes: int
) -> tuple[_ArrayRef, _ArrayRef]:
    """Ship a forest to a worker as one successor and one value array.

    Each member is written once, straight into its block of the
    destination (:meth:`~repro.core.forest.Forest.copy_into`): a shared
    segment, or below ``min_bytes`` an array that travels inline.  The
    members are range-checked first, so no segment holds a bad forest.
    Created segments are appended to ``leases``, as in
    :func:`_export_array`.
    """
    forest.check()
    first = forest.values[0]
    refs, dests = [], []
    for shape, dtype in (
        ((forest.n,), np.dtype(INDEX_DTYPE)),
        ((forest.n, *first.shape[1:]), first.dtype),
    ):
        ref = _alloc_out(shape, dtype, leases, min_bytes)
        if ref.shm_name is None:
            ref.inline = np.empty(shape, dtype=dtype)
            dests.append(ref.inline)
        else:  # the segment _alloc_out just leased
            dests.append(np.ndarray(shape, dtype=dtype, buffer=leases[-1].buf))
        refs.append(ref)
    forest.copy_into(*dests)
    return refs[0], refs[1]


def _alloc_out(
    shape: tuple[int, ...], dtype: np.dtype, leases: list[Any], min_bytes: int
) -> _ArrayRef:
    """Allocate the result slot: a shared segment the worker writes
    into, or (small results) nothing — the worker returns the array."""
    from multiprocessing import shared_memory

    ref = _ArrayRef(shape=tuple(shape), dtype=np.dtype(dtype).str)
    if ref.nbytes >= min_bytes:
        shm = shared_memory.SharedMemory(create=True, size=max(1, ref.nbytes))
        leases.append(shm)
        ref.shm_name = shm.name
    return ref


def _attach_untracked(name: str) -> Any:
    """Attach to a parent-owned segment without tracker side effects.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker (CPython gh-82300) even though an attacher does not own it
    — and pool workers *share* the parent's tracker process (its fd is
    inherited through spawn/forkserver), so that registration aliases
    the parent's own.  The previous scheme deregistered at task
    teardown, which was doubly broken: a worker SIGKILLed between
    attach and deregister left the alias dangling (the tracker's sweep
    could then unlink a name the parent had already freed and the OS
    reused — another task's live segment), while on the healthy path
    the worker's deregistration *erased the parent's registration*, so
    the parent's later ``unlink`` raced an empty cache (the tracker
    ``KeyError`` noise) and a parent crash after that point leaked the
    segment with no tracker backstop.  Suppressing registration at
    attach time removes the whole window: only the creating parent
    ever holds a registration, on every path.  (Python 3.13+ exposes
    this as ``SharedMemory(track=False)``; this supports 3.10+.)
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register

    def _register_except_shm(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original_register(rname, rtype)

    resource_tracker.register = _register_except_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_array(ref: _ArrayRef, holds: list[Any]) -> np.ndarray:
    """Worker side of :class:`_ArrayRef`: map the segment (tracking the
    mapping in ``holds`` for cleanup) or take the inline array."""
    if ref.shm_name is None:
        if ref.inline is None:
            return np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        return ref.inline
    shm = _attach_untracked(ref.shm_name)
    holds.append(shm)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)


def _release(segments: list[Any], unlink: bool) -> None:
    """Tear down segment handles on every path, crash or not.

    Parent side (``unlink=True``): close the mapping and free the
    segment; ``FileNotFoundError`` is tolerated so a double release
    (e.g. containment retry after a worker crash) stays idempotent.
    Worker side (``unlink=False``): close only — attaching never
    registered with the tracker (see :func:`_attach_untracked`), so
    there is no teardown-ordering window on the worker at all.
    """
    for shm in segments:
        # exported views may still be alive (close) / already gone (unlink)
        with suppress(BufferError):
            shm.close()
        if unlink:
            with suppress(FileNotFoundError):
                shm.unlink()


def _pool_mp_context() -> Any:
    """Start method for the worker pool — anything but ``fork``.

    Pool workers are created lazily from the engine's *driver threads*,
    and ``fork`` from a multi-threaded process can copy another
    thread's held lock (allocator, queue feeder) into the child, which
    then deadlocks before it ever runs a task — observed as a hard
    engine hang under ``--executor processes --workers 4``.
    ``forkserver`` forks from a clean single-threaded server process
    instead (preloaded with this module so per-worker startup stays
    cheap); ``spawn`` is the portable fallback.
    """
    import multiprocessing as mp

    if "forkserver" in mp.get_all_start_methods():
        ctx = mp.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.engine.workers"])
        return ctx
    return mp.get_context("spawn")  # pragma: no cover - non-POSIX hosts


def _task_backend(name: str) -> KernelBackend:
    """A worker's kernel backend: the one its parent resolved, by name,
    or numpy when this worker's environment lacks it (the parent found
    numba, this worker cannot import it) rather than failing the task."""
    try:
        return resolve_backend(name)
    except ValueError:
        return resolve_backend("numpy")


@dataclass
class _FusedTask:
    """Everything a worker process needs to run one fused shard.

    Only plain data crosses: the operator travels by its builtin name,
    the parent's resolved kernel backend by name, randomness as an
    integer seed, tracing as a bool.
    """

    nxt: _ArrayRef
    values: _ArrayRef
    out: _ArrayRef
    heads: np.ndarray
    op_name: str
    inclusive: bool
    algorithm: str
    seed: int
    traced: bool
    kernel_backend: str


def _run_fused_task(
    task: _FusedTask,
) -> tuple[ScanStats, list[dict[str, Any]], np.ndarray | None]:
    """Worker-process entry point: map, execute, write back.

    Returns ``(kernel stats, serialized kernel spans, payload)`` where
    ``payload`` is the result array when the output slot was inline and
    ``None`` when it was written into the shared segment.  Exceptions
    propagate through the future — containment lives in the parent.
    """
    from ..trace.export import span_to_dict

    holds: list[Any] = []
    nxt = values = out = None
    try:
        nxt = _attach_array(task.nxt, holds)
        values = _attach_array(task.values, holds)
        out = _attach_array(task.out, holds)
        tracer = Tracer() if task.traced else None
        kstats = ScanStats()
        rng = np.random.default_rng(task.seed)
        run_fused_kernel(
            Forest.of(nxt, values, task.heads),
            get_operator(task.op_name),
            task.inclusive,
            task.algorithm,
            rng,
            kstats,
            [out],
            tracer,
            kernel_backend=_task_backend(task.kernel_backend),
        )
        spans = [span_to_dict(root) for root in tracer.roots] if tracer else []
        payload = out if task.out.shm_name is None else None
        if payload is not None and payload.base is not None:
            payload = payload.copy()
        return kstats, spans, payload
    finally:
        # numpy views into the mappings must die before close()
        del nxt, values, out
        _release(holds, unlink=False)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class ExecutionBackend:
    """Driver interface the engine talks to.

    ``map_shards`` runs the engine's containment wrapper over every
    shard (concurrently on pooled backends); ``run_fused`` — only on
    backends with ``offloads_kernels`` — executes one fused kernel off
    the engine process.  Pools are created lazily and torn down exactly
    once by :meth:`close` (idempotent; ``pools_created`` /
    ``closes_effective`` expose the lifecycle for tests).

    ``kernels`` is the kernel backend every kernel dispatched through
    this backend runs on, inline or in a worker process, resolved once,
    at construction (``docs/kernels.md``).
    """

    name = "sync"
    #: shards may execute concurrently when the caller asks for it
    concurrent = False
    #: fused kernels execute outside the engine process
    offloads_kernels = False

    def __init__(self) -> None:
        self.kernels = resolve_backend()
        self.pools_created = 0
        self.closes_effective = 0
        self._closed = False
        self._lock = threading.Lock()
        self._pool_thread = threading.local()  # .member: a shard-pool thread

    def map_shards(self, fn: Callable[[Any], Any], shards: Sequence[Any]) -> list[Any]:
        return [fn(shard) for shard in shards]

    def _join_pool(self) -> None:
        self._pool_thread.member = True

    def _inline(self, shards: Sequence[Any]) -> bool:
        """Run on the calling thread: one shard, or a map from this
        backend's own pool (a distributed shard mapping its chunks),
        whose queued tasks would wait on the threads waiting on them."""
        return len(shards) <= 1 or getattr(self._pool_thread, "member", False)

    def run_fused(
        self,
        forest: Forest,
        op_name: str,
        inclusive: bool,
        algorithm: str,
        seed: int,
        traced: bool,
    ) -> tuple[list[np.ndarray], ScanStats, list[dict[str, Any]]]:
        raise NotImplementedError(f"{self.name!r} backend executes kernels inline")

    def run_task(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        raise NotImplementedError(f"{self.name!r} backend executes tasks inline")

    def close(self) -> None:
        """Tear down worker pools; safe to call any number of times."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.closes_effective += 1
        self._shutdown()

    def _shutdown(self) -> None:  # pragma: no cover - overridden where pools exist
        pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{self.name!r} execution backend is closed "
                "(Engine.close() already tore its workers down)"
            )


class SyncBackend(ExecutionBackend):
    """No pool: the reference driver.  ``map_shards`` is a plain loop
    even when the caller requested concurrency."""

    name = "sync"


class ThreadBackend(ExecutionBackend):
    """One persistent, lazily-created thread pool shared by every batch."""

    name = "threads"
    concurrent = True

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                    initializer=self._join_pool,
                )
                self.pools_created += 1
                sanitize.note_pool(self._pool, "threads")
            return self._pool

    def map_shards(self, fn: Callable[[Any], Any], shards: Sequence[Any]) -> list[Any]:
        if self._inline(shards):
            return [fn(shard) for shard in shards]
        return list(self._ensure_pool().map(fn, shards))

    def _shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
            sanitize.note_pool_closed(pool)


class ProcessBackend(ExecutionBackend):
    """Persistent process pool with shared-memory array transport.

    Two pools, one width: the driver *thread* pool runs the engine's
    per-shard containment wrappers (so retry/quarantine and stats
    mutation stay in the parent process), and each wrapper ships its
    fused kernel to the *process* pool through :class:`_FusedTask`.
    A ``BrokenProcessPool`` (worker killed mid-task) drops the process
    pool — the failing shard quarantines like any other execution
    failure and the next dispatch gets a fresh pool.
    """

    name = "processes"
    concurrent = True
    offloads_kernels = True

    def __init__(
        self,
        max_workers: int | None = None,
        shm_min_bytes: int = SHM_MIN_BYTES,
    ) -> None:
        super().__init__()
        import os

        self.max_workers = max_workers if max_workers is not None else os.cpu_count() or 1
        self.shm_min_bytes = int(shm_min_bytes)
        self.tasks_offloaded = 0
        self._pool: ProcessPoolExecutor | None = None
        self._driver: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=_pool_mp_context()
                )
                self.pools_created += 1
                sanitize.note_pool(self._pool, "processes")
            return self._pool

    def _ensure_driver(self) -> ThreadPoolExecutor:
        with self._lock:
            self._check_open()
            if self._driver is None:
                self._driver = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine-driver",
                    initializer=self._join_pool,
                )
                sanitize.note_pool(self._driver, "driver-threads")
            return self._driver

    def map_shards(self, fn: Callable[[Any], Any], shards: Sequence[Any]) -> list[Any]:
        if self._inline(shards):
            return [fn(shard) for shard in shards]
        return list(self._ensure_driver().map(fn, shards))

    def run_task(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        """Run one picklable task on the process pool and wait for it.

        The shared seam for every off-process dispatch (fused shards,
        distributed chunk contractions/expansions): a worker crash
        (``BrokenProcessPool``) drops the pool so the next dispatch
        builds a fresh one, then re-raises for the caller's containment.
        """
        pool = self._ensure_pool()
        try:
            return pool.submit(fn, *args).result()
        except BrokenProcessPool:
            with self._lock:
                broken, self._pool = self._pool, None
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
                sanitize.note_pool_closed(broken)
            raise

    def run_fused(
        self,
        forest: Forest,
        op_name: str,
        inclusive: bool,
        algorithm: str,
        seed: int,
        traced: bool,
    ) -> tuple[list[np.ndarray], ScanStats, list[dict[str, Any]]]:
        """Execute one shard's forest in a worker process.

        Returns ``(results, kstats, spans)``, one result array per
        member.  The forest crosses as one node array
        (:func:`_export_forest`), and each member's result is copied
        once out of the worker's output.  The parent owns every shared
        segment: they are created here, and closed+unlinked here on
        every path (including worker crashes), so a poisoned shard
        cannot leak ``/dev/shm`` space.
        """
        leases: list[Any] = []
        try:
            nxt_ref, values_ref = _export_forest(forest, leases, self.shm_min_bytes)
            task = _FusedTask(
                nxt=nxt_ref,
                values=values_ref,
                out=_alloc_out(
                    values_ref.shape, np.dtype(values_ref.dtype), leases, self.shm_min_bytes
                ),
                heads=np.ascontiguousarray(forest.heads),
                op_name=op_name,
                inclusive=bool(inclusive),
                algorithm=algorithm,
                seed=int(seed),
                traced=bool(traced),
                kernel_backend=self.kernels.name,
            )
            with self._lock:
                self.tasks_offloaded += 1
            kstats, spans, payload = self.run_task(_run_fused_task, task)
            if payload is not None:
                out = np.asarray(payload)
            else:
                out_shm = leases[-1]  # the _alloc_out segment
                out = np.ndarray(
                    task.out.shape, dtype=np.dtype(task.out.dtype), buffer=out_shm.buf
                )
            results = [out[block].copy() for block in forest.slices()]
            del out  # a view into the segment must die before it closes
            return results, kstats, spans
        finally:
            _release(leases, unlink=True)

    def _shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            driver, self._driver = self._driver, None
        if driver is not None:
            driver.shutdown(wait=True)
            sanitize.note_pool_closed(driver)
        if pool is not None:
            pool.shutdown(wait=True)
            sanitize.note_pool_closed(pool)


def shippable_operator(op: Operator) -> str | None:
    """The name ``op`` crosses a process boundary by, or ``None``.

    Only a builtin operator ships: its name round-trips to the
    *identical* object in the worker.  A custom operator (or a
    look-alike shadowing a builtin name) executes inline, on numpy.
    """
    return op.name if BUILTIN_OPERATORS.get(op.name) is op else None


def offloadable_operator(op: Operator) -> bool:
    """True when ``op`` can execute in a worker process — see
    :func:`shippable_operator`."""
    return shippable_operator(op) is not None


def create_backend(executor: str, max_workers: int | None = None) -> ExecutionBackend:
    """Build the backend for ``Engine(executor=...)``."""
    if executor == "sync":
        return SyncBackend()
    if executor == "threads":
        return ThreadBackend(max_workers)
    if executor == "processes":
        return ProcessBackend(max_workers)
    raise ValueError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS}"
    )
