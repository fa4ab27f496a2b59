"""The :class:`Engine` facade: batched list-scan execution.

Pipeline for one batch (``run_batch``)::

    requests ──► fingerprint ──► cache probe ──► validate ──► coalesce
                                    │ hits          │ bad        │ dups
                                    ▼               ▼            ▼
                                 responses      ok=False     fan-out of
                                                responses    the primary
                                                   │
                capped shards ◄────────────────────┘ (unique misses)
                        │  fuse ──► route ──► execute (contained)
                        │         cost model   one forest kernel, on the
                        │                      calling thread or the pool
                        ▼
                 responses ◄── per-request results / quarantine retry

* Cache probes use the structural fingerprint (``engine.cache``, a
  per-process AES-GMAC of the arrays); a hit answers the request
  without executing anything.  A cache-disabled engine never probes,
  and hashes a request only to coalesce it: only when another request
  of the batch shares its cheap key (size, head, the head's successor
  and value bytes, operator, flag, dtype, value shape, forced
  algorithm).
* Misses are validated (``engine.errors``): shape/dtype mismatches
  and NaN-hostile inputs become ``ok=False`` responses instead of
  exceptions out of the batch.  The kernels prove the list structure
  themselves; containment answers a non-list with ``bad-structure``.
* Identical fingerprints in one batch *coalesce*: the first request
  executes, the duplicates receive copies of its result (or its
  structured error).
* Remaining unique misses shard by (operator, inclusive, dtype,
  forced algorithm) into shards of at most ``FUSE_NODES`` nodes —
  ``engine.batch`` — and each shard fuses into one forest of
  members, one per request, without copying.  A lone request is a
  forest of one, and takes the same path.
* The cost-model router (``engine.router``) picks Wyllie or sublist
  per shard; the forest kernels of ``core.forest`` execute all
  the shard's lists in one vectorized pass.
* Shards execute under *containment*: a raising shard is retried once
  with every member re-run as a shard of one, so one poisoned request
  cannot shadow its shard-mates.  Requests that still fail return
  structured errors; everything else gets its result.
* The kernel writes each request's result into an array of its own;
  results are cached and returned in request order.

Drivers: shard execution goes through a persistent backend
(``engine.workers``) chosen at construction — ``executor="sync"``
(reference loop) or ``"threads"`` (one long-lived thread pool reused
across batches; the kernels only read their input, and NumPy releases
the GIL in the bulk operations).  The executor alone decides where a
batch's shards run: a ``threads`` engine runs a batch of one shard, or
every batch when it is one worker wide, inline, as ``sync`` does.
Every driver honors the containment contract, and a traced batch stays
one connected span tree (pool threads pin their shard spans under the
batch root).  ``Engine.close()`` (or using the engine as a context
manager) tears the backend's pool down exactly once.

Requests with a forced algorithm outside the routable set (e.g.
``random_mate``, or the ``serial`` oracle) have no forest kernel —
those run per list through the dispatch API (``list_scan``), so the
engine accepts *every* algorithm the library has.

Every kernel of an engine's life runs on one kernel backend, the
process's (``docs/kernels.md``), resolved once, at construction, by its
execution backend.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:
    from ..calibrate import CalibrationProfile

import numpy as np

from ..core.list_scan import ALGORITHMS, list_scan
from ..core.operators import Operator, SUM
from ..core.stats import ScanStats
from ..lists.generate import LinkedList
from ..lists.validate import ListStructureError
from ..trace.tracer import Span, Tracer, null_span, resolve_trace
from .batch import FusedBatch, shard_key, shard_requests
from .cache import ResultCache, fingerprint, refuse_object_dtype
from .errors import EngineRequestError, RequestError, validate_request
from .histogram import LatencyHistogram
from .queue import ScanRequest, ScanResponse, SubmissionQueue
from ..sanitize.runtime import guarded, hb_join, hb_publish
from .router import CANDIDATES, Router
from .workers import EXECUTORS, create_backend, run_fused_kernel

__all__ = ["Engine", "EngineStats"]

#: A contained per-request outcome: ``(algorithm, batch_lists, result)``
#: on success, a :class:`RequestError` on failure.
_Outcome = tuple[str, int, np.ndarray] | RequestError

#: A calibrated run drifts when its observed/predicted time leaves
#: ``[1/DRIFT_TOLERANCE, DRIFT_TOLERANCE]``: loose, because host timing
#: noise on small runs is large.
DRIFT_TOLERANCE = 3.0

#: Runs shorter than this (seconds) are too short to time, and are not
#: drift-checked.
DRIFT_MIN_SECONDS = 1e-4


def _execution_error(exc: Exception) -> RequestError:
    """A failed execution: ``bad-structure`` for a non-list, else ``execution``."""
    code = "bad-structure" if isinstance(exc, ListStructureError) else "execution"
    return RequestError.from_exception(exc, code=code, phase="execute")


@dataclass
class EngineStats:
    """Per-engine counters (cumulative across batches).

    Health counters
    ---------------

    ``errors``
        responses returned with ``ok=False`` (validation failures,
        execution failures, and error fan-out to coalesced
        duplicates).
    ``retries``
        shards of several requests whose execution raised and was
        retried once in quarantine mode (every member as a shard of
        one).
    ``quarantined``
        requests whose execution failed even in isolation and were
        answered with a structured error instead of a result.
    ``coalesced``
        duplicate requests in a batch served by another identical
        request's execution (the work ran exactly once).
    ``drift_checks``
        executed shards judged against the engine's calibration profile
        (``Engine(calibration=)``; zero while routing on the static
        paper table, which drift checking does not apply to).
    ``drift_alerts``
        judged shards whose observed/predicted time fell outside
        ``[1/DRIFT_TOLERANCE, DRIFT_TOLERANCE]``.

    Kernel counters
    ---------------

    ``element_ops`` / ``kernel_rounds`` / ``kernel_packs`` aggregate
    the :class:`~repro.core.stats.ScanStats` of *successful* kernel
    executions only.  Every execution attempt — the shard's try and each
    quarantine re-run — collects into a fresh ``ScanStats`` and merges
    here only if it succeeds, so a fused attempt that dies half-way
    through Phase 1 cannot double-count the work its members then redo
    alone.

    Latency histograms
    ------------------

    ``latency`` holds one :class:`LatencyHistogram` per phase:

    ``"queue_wait"``
        submission→batch-start per request (observed for every request
        that carries a ``submitted_at`` stamp, i.e. went through the
        :class:`~repro.engine.queue.SubmissionQueue`).
    ``"execute"``
        ``run_batch`` wall time per batch.
    ``"total"``
        admission→response per request; fed by the serving layer
        (:meth:`Engine.observe_response`) since only it sees the
        response actually leave.

    The serving layer's ``/stats`` reports their percentiles — a p95 is
    invisible in ``seconds_executing`` alone.
    """

    requests: int = 0
    batches: int = 0
    shards: int = 0
    fused_lists: int = 0  # lists that executed in a shard of two or more
    fused_nodes: int = 0
    solo_runs: int = 0  # lists executed alone (a shard of one, or unfusable)
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    retries: int = 0
    quarantined: int = 0
    coalesced: int = 0
    drift_checks: int = 0
    drift_alerts: int = 0
    element_ops: int = 0
    kernel_rounds: int = 0
    kernel_packs: int = 0
    seconds_executing: float = 0.0
    algorithms: dict[str, int] = field(default_factory=dict)
    latency: dict[str, LatencyHistogram] = field(
        default_factory=lambda: {
            "total": LatencyHistogram(),
            "queue_wait": LatencyHistogram(),
            "execute": LatencyHistogram(),
        }
    )

    #: scalar counters in reporting order (one source for every view)
    _COUNTERS = (
        "requests",
        "batches",
        "shards",
        "fused_lists",
        "fused_nodes",
        "solo_runs",
        "cache_hits",
        "cache_misses",
        "errors",
        "shed",
        "retries",
        "quarantined",
        "coalesced",
        "drift_checks",
        "drift_alerts",
        "element_ops",
        "kernel_rounds",
        "kernel_packs",
        "seconds_executing",
    )

    #: requests rejected before queueing (overload / rate limits); the
    #: serving layer counts them here so ``/stats`` sees shed load.
    shed: int = 0

    def merge_kernel_stats(self, kstats: "ScanStats") -> None:
        """Fold one successful attempt's kernel counters in (caller
        holds the engine lock)."""
        self.element_ops += kstats.element_ops
        self.kernel_rounds += kstats.rounds
        self.kernel_packs += kstats.packs

    def count_algorithm(self, name: str, lists: int = 1) -> None:
        self.algorithms[name] = self.algorithms.get(name, 0) + lists

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe view of every counter and histogram.

        This is the *one* stats serializer: ``repro-c90 batch --stats``
        prints it, the serving layer's ``/stats`` endpoint returns it,
        and :meth:`as_rows` renders its counters — so the three
        surfaces can never drift apart.
        """
        snap: dict[str, Any] = {
            name: round(value, 6) if isinstance(value, float) else value
            for name in self._COUNTERS
            for value in (getattr(self, name),)
        }
        snap["algorithms"] = {
            name: self.algorithms[name] for name in sorted(self.algorithms)
        }
        snap["latency"] = {
            name: hist.snapshot() for name, hist in self.latency.items()
        }
        return snap

    def as_rows(self) -> list[list[object]]:
        """Counter rows for ``bench.harness.format_table`` (derived
        from :meth:`snapshot`, not formatted ad hoc)."""
        snap = self.snapshot()
        rows: list[list[object]] = [
            [name.replace("_", " "), snap[name]] for name in self._COUNTERS
        ]
        for name, lists in snap["algorithms"].items():
            rows.append([f"algorithm[{name}]", lists])
        for name, hist in snap["latency"].items():
            if hist["count"]:
                rows.append(
                    [f"latency[{name}] p50/p95/p99 ms",
                     f"{1e3 * hist['p50']:.3f}/{1e3 * hist['p95']:.3f}"
                     f"/{1e3 * hist['p99']:.3f}"]
                )
        return rows


class Engine:
    """Batched list-ranking/scan execution engine.

    Parameters
    ----------
    cache:
        A :class:`~repro.engine.cache.ResultCache`, or ``None`` to
        build one from ``cache_capacity``/``cache_max_bytes``
        (``cache_capacity=0`` disables caching).
    max_pending / max_pending_nodes:
        Submission-queue backpressure bounds (see ``engine.queue``).
    executor:
        Execution backend (see ``engine.workers``): ``"threads"``
        (default — one persistent thread pool reused across batches)
        or ``"sync"`` (no pool; the reference driver).  Both return
        bit-identical results; call :meth:`close` (or use the engine
        as a context manager) to tear the pool down.
    max_workers:
        Thread-pool width (``None`` → ``ThreadPoolExecutor``'s
        ``os.cpu_count()``-based default; ``1`` runs every batch
        inline).
    seed:
        Seed for the engine's random stream, which only the forced
        algorithms without a forest kernel draw from (``random_mate``,
        ``anderson_miller``, ...); results are identical for every seed.
    clock:
        Zero-argument callable behind ``seconds_executing`` and the
        ``queue_wait`` telemetry (shared with the submission queue so
        both read one epoch); defaults to :func:`time.perf_counter`.
        Injectable so tests can drive a deterministic counting clock —
        the ``injectable-clock`` lint rule forbids direct wall-clock
        calls in the engine.
    trace:
        ``None`` (default — no tracing hooks run), ``"off"`` (hooks run
        against a disabled tracer) or a :class:`repro.trace.Tracer`.  A
        traced engine records a ``run_batch`` span per batch with
        admission events (``queue_wait``, ``cache_hit``/``cache_miss``,
        ``validation_error``, ``coalesced``), per-shard spans with the
        routing decision (including the cost model's predicted clocks
        per candidate), the kernel's own phase spans, and
        ``quarantine_retry`` spans.  See ``docs/tracing.md``.
    calibration:
        Optional fitted :class:`repro.calibrate.CalibrationProfile`,
        fixed for the engine's life: it is validated (an invalid
        profile raises ``ValueError``), the router prices from its
        table, and every executed shard is drift-checked against it
        (``drift_checks``/``drift_alerts``).  ``None`` routes on the
        paper's C-90 table, unchecked.  See ``docs/calibration.md``.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        cache_capacity: int = 256,
        cache_max_bytes: int | None = None,
        max_pending: int | None = 1024,
        max_pending_nodes: int | None = None,
        executor: str = "threads",
        max_workers: int | None = None,
        seed: int | None = 0,
        trace: str | Tracer | None = None,
        clock: Callable[[], float] | None = None,
        calibration: "CalibrationProfile | None" = None,
    ) -> None:
        if calibration is not None:
            calibration.validate()
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self._backend = create_backend(executor, max_workers)
        #: name of the kernel backend every kernel of this engine runs on
        self.kernel_backend = self._backend.kernels.name
        self._calibration = calibration
        self.router = Router(calibration.costs) if calibration is not None else Router()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(cache_capacity, cache_max_bytes)
        )
        self.clock = clock if clock is not None else time.perf_counter
        self.queue = SubmissionQueue(
            max_pending, max_pending_nodes, clock=self.clock
        )
        self.executor = executor
        self.max_workers = max_workers
        self.trace = resolve_trace(trace)
        self.stats = EngineStats()
        self._seeds = np.random.SeedSequence(seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------

    def submit(
        self,
        lst: LinkedList,
        op: Operator | str = SUM,
        inclusive: bool = False,
        algorithm: str = "auto",
        tag: object | None = None,
    ) -> int:
        """Enqueue one scan request; returns its request id.

        Never waits: raises :class:`~repro.engine.queue.BackpressureError`
        at once when the submission queue is full (``max_pending``
        requests), so flush before submitting more.  Structural problems
        with the list are reported per request at batch time
        (``ok=False`` responses), not here — submission stays O(1).
        """
        if algorithm != "auto" and algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected 'auto' or one of "
                f"{ALGORITHMS}"
            )
        request = ScanRequest(
            lst=lst, op=op, inclusive=inclusive, algorithm=algorithm, tag=tag
        )
        return self.queue.submit(request)

    def flush(self) -> list[ScanResponse]:
        """Drain the submission queue and execute everything as one batch."""
        return self.run_batch(self.queue.drain())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> list[ScanResponse]:
        """Tear down the engine: fail pending requests, stop the pools.

        Closing the submission queue hands back the requests still
        waiting for a flush; each is answered here with a structured
        ``shutdown`` :class:`~repro.engine.errors.RequestError` response
        so no request is left hanging — the returned list carries those
        ``ok=False`` responses for the serving layer to deliver.  Later
        submissions raise :class:`~repro.engine.queue.QueueClosedError`.

        Idempotent — calling it again (or exiting the context manager
        after an explicit close) is a no-op returning ``[]``.  A closed
        engine rejects further submissions and pooled dispatch: a batch
        its backend runs inline (one shard, or any batch of a ``sync``
        engine) still executes.
        """
        pending = self.queue.close()
        error = RequestError(
            code="shutdown",
            message="engine closed before the request executed",
            phase="shutdown",
        )
        responses = [self._failure(req, error) for req in pending]
        if responses:
            with guarded(self._lock, "engine.stats"):
                self.stats.errors += len(responses)
        self._backend.close()
        return responses

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------

    @property
    def calibration(self) -> "CalibrationProfile | None":
        """The profile fixed at construction (``None`` → paper table)."""
        return self._calibration

    def calibration_snapshot(self) -> dict[str, Any]:
        """JSON-safe calibration/drift health view (for ``/stats``)."""
        profile = self._calibration
        if profile is None:
            return {"active": False}
        with guarded(self._lock, "engine.stats", "read"):
            drift = {
                "observations": self.stats.drift_checks,
                "alerts": self.stats.drift_alerts,
            }
        return {
            "active": True,
            "source": profile.source,
            "created_at": profile.created_at,
            "schema_version": profile.schema_version,
            "fitted_kinds": list(profile.fitted_kinds),
            "drift": drift,
        }

    def _predicted_seconds(self, algorithm: str, n: int, n_lists: int) -> float | None:
        """The profile's predicted time for a shard; ``None`` (not judged)
        without a profile — comparing host wall time against the paper's
        C-90 clock predictions would only measure how much slower this
        machine is than a 1994 supercomputer — and for an algorithm the
        router does not price (a forced ``serial`` or ``random_mate``).
        Called before the shard's timer starts: pricing ``sublist`` tunes
        the kernel's ``(m, S₁)`` once per size bucket, outside the timer.
        """
        if self._calibration is None or algorithm not in CANDIDATES:
            return None
        router = self.router
        clocks = router.predicted_clocks(n, algorithm, n_lists)
        return clocks * router.costs.clock_ns * 1e-9

    def _observe_execution(self, predicted: float | None, seconds: float) -> None:
        """Drift-check one executed shard that took ``seconds`` against
        its ``predicted`` time (:meth:`_predicted_seconds`).

        Called after each shard execution with the engine lock *not*
        held.  A no-op for a shard that is not judged and for runs
        shorter than ``DRIFT_MIN_SECONDS``.
        """
        if predicted is None or seconds < DRIFT_MIN_SECONDS:
            return
        # positive: a validated profile's slopes and clock period are
        ratio = seconds / predicted
        drifted = not 1.0 / DRIFT_TOLERANCE <= ratio <= DRIFT_TOLERANCE
        with guarded(self._lock, "engine.stats"):
            self.stats.drift_checks += 1
            if drifted:
                self.stats.drift_alerts += 1

    # ------------------------------------------------------------------
    # drivers
    # ------------------------------------------------------------------

    def run_batch(self, requests: Sequence[ScanRequest]) -> list[ScanResponse]:
        """Execute a batch of requests; responses come back in request
        order.

        The executor decides where the shards run: a ``threads`` engine
        runs two or more shards concurrently on its persistent pool
        (unless the pool is one worker wide), and runs everything else
        inline, as a ``sync`` engine does.  Results and stats are
        identical either way.

        Never raises for a single bad request: validation and execution
        failures come back as ``ok=False`` responses with a structured
        :class:`~repro.engine.errors.RequestError` while every healthy
        request still gets its result.
        """
        requests = list(requests)
        responses: dict[int, ScanResponse] = {}
        t0 = self.clock()
        n_errors = n_coalesced = n_hits = n_misses = 0
        queue_waits: list[float] = []

        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        with span("run_batch", requests=len(requests)) as batch_span:
            misses: list[ScanRequest] = []
            keys: dict[int, bytes] = {}
            primaries: dict[bytes, int] = {}  # fingerprint -> primary id
            followers: dict[int, list[ScanRequest]] = {}  # primary -> dups
            unhashed = self._unhashed(requests)
            with span("admit"):
                for req in requests:
                    # order this thread after the submitter (queue
                    # handoff edge for the race detector)
                    hb_join(("request", req.request_id))
                    if req.submitted_at is not None:
                        wait = max(0.0, t0 - req.submitted_at)
                        queue_waits.append(wait)
                        if tracer is not None:
                            tracer.event(
                                "queue_wait",
                                request_id=req.request_id,
                                seconds=wait,
                            )
                    error: RequestError | None = None
                    key: bytes | None = None
                    try:
                        if req.request_id in unhashed:
                            refuse_object_dtype(req.lst)
                        else:
                            key = fingerprint(req.lst, req.op, req.inclusive)
                    except Exception as exc:
                        error = RequestError.from_exception(
                            exc, code="fingerprint", phase="validate"
                        )
                    if error is None and key is not None and self.cache.capacity:
                        hit = self.cache.get(key)
                        if hit is not None:
                            # A hit implies a structurally identical
                            # problem was validated and executed before;
                            # skip re-validation.
                            n_hits += 1
                            if tracer is not None:
                                tracer.event(
                                    "cache_hit", request_id=req.request_id
                                )
                            responses[req.request_id] = ScanResponse(
                                request_id=req.request_id,
                                result=hit,
                                algorithm="cached",
                                cached=True,
                                n=req.n,
                                tag=req.tag,
                            )
                            continue
                        # counted at the probe site: only requests that
                        # actually reached the cache can miss it —
                        # fingerprint failures above and a disabled
                        # cache never probe.
                        n_misses += 1
                        if tracer is not None:
                            tracer.event(
                                "cache_miss", request_id=req.request_id
                            )
                    if error is None:
                        error = validate_request(req)
                    if error is not None:
                        n_errors += 1
                        if tracer is not None:
                            tracer.event(
                                "validation_error",
                                request_id=req.request_id,
                                code=error.code,
                            )
                        responses[req.request_id] = self._failure(req, error)
                        continue
                    if key is None:  # alone in the batch: nothing to coalesce
                        misses.append(req)
                        continue
                    primary = primaries.get(key)
                    if primary is None:
                        primaries[key] = req.request_id
                        keys[req.request_id] = key
                        misses.append(req)
                    else:
                        followers.setdefault(primary, []).append(req)
                        n_coalesced += 1
                        if tracer is not None:
                            tracer.event(
                                "coalesced",
                                request_id=req.request_id,
                                primary=primary,
                            )

            shards = shard_requests(misses)

            def _run_shard(shard: list[ScanRequest]) -> list[_Outcome]:
                outcomes = self._execute_shard_contained(shard, parent=batch_span)
                # future-resolution edge: the driver thread's work
                # happens-before the respond loop that consumes it
                hb_publish(("shard", id(shard)))
                return outcomes

            if tracer is not None:
                tracer.annotate(parallel=self._backend.pooled(shards))
            # inline, or on the backend's persistent pool (lazily created
            # on the first batch that needs it, reused for every one after)
            shard_results = self._backend.map_shards(_run_shard, shards)

            with span("respond"):
                for shard, outcomes in zip(shards, shard_results):
                    hb_join(("shard", id(shard)))
                    for req, outcome in zip(shard, outcomes):
                        if isinstance(outcome, RequestError):
                            n_errors += 1
                            resp = self._failure(req, outcome)
                        else:
                            algorithm, width, result = outcome
                            if req.request_id in keys:
                                self.cache.put(keys[req.request_id], result)
                            resp = ScanResponse(
                                request_id=req.request_id,
                                result=result,
                                algorithm=algorithm,
                                cached=False,
                                batch_lists=width,
                                n=req.n,
                                tag=req.tag,
                            )
                        responses[req.request_id] = resp
                        for dup in followers.get(req.request_id, ()):
                            if resp.ok:
                                dup_resp = ScanResponse(
                                    request_id=dup.request_id,
                                    result=resp.result.copy(),
                                    algorithm=resp.algorithm,
                                    coalesced=True,
                                    batch_lists=resp.batch_lists,
                                    n=dup.n,
                                    tag=dup.tag,
                                )
                            else:
                                n_errors += 1
                                dup_resp = ScanResponse(
                                    request_id=dup.request_id,
                                    coalesced=True,
                                    n=dup.n,
                                    tag=dup.tag,
                                    ok=False,
                                    error=resp.error,
                                )
                            responses[dup.request_id] = dup_resp

        elapsed = self.clock() - t0
        with guarded(self._lock, "engine.stats"):
            self.stats.requests += len(requests)
            self.stats.batches += 1
            self.stats.shards += len(shards)
            self.stats.cache_hits += n_hits
            self.stats.cache_misses += n_misses
            self.stats.errors += n_errors
            self.stats.coalesced += n_coalesced
            self.stats.seconds_executing += elapsed
            for wait in queue_waits:
                self.stats.latency["queue_wait"].observe(wait)
            if requests:
                self.stats.latency["execute"].observe(elapsed)
        return [responses[req.request_id] for req in requests]

    def _unhashed(self, requests: Sequence[ScanRequest]) -> set[int]:
        """Ids of the requests a cache-disabled engine need not hash.

        Without a cache a fingerprint only serves coalescing, and two
        requests can share one only if they share the cheap key: size,
        head, the bytes of ``next[head]`` and ``values[head]``, and the
        shard key (operator, value shape, flag, dtype, forced
        algorithm).  Slices, not indexing, keep a head out of range
        from raising here.  Empty when the cache is on.
        """
        if self.cache.capacity:
            return set()
        cheap = [
            (
                req.n,
                req.lst.head,
                req.lst.next[req.lst.head : req.lst.head + 1].tobytes(),
                req.lst.values[req.lst.head : req.lst.head + 1].tobytes(),
                *shard_key(req),
            )
            for req in requests
        ]
        counts = Counter(cheap)
        return {req.request_id for req, key in zip(requests, cheap) if counts[key] == 1}

    # ------------------------------------------------------------------
    # serving-layer telemetry
    # ------------------------------------------------------------------

    def observe_response(self, seconds: float) -> None:
        """Record one admission→response latency (``total`` histogram).

        Only the serving layer sees the response actually leave, so it
        calls this when the reply is written; the engine itself only
        observes the ``queue_wait`` and ``execute`` sub-phases.
        """
        with guarded(self._lock, "engine.stats"):
            self.stats.latency["total"].observe(seconds)

    def observe_shed(self, count: int = 1) -> None:
        """Count requests rejected before queueing (overload/rate limits)."""
        with guarded(self._lock, "engine.stats"):
            self.stats.shed += count

    def stats_snapshot(self) -> dict[str, Any]:
        """Thread-safe counter snapshot.

        The serving layer's flush worker mutates the counters while the
        event loop renders ``/stats``; reading through the engine lock
        is the supported cross-thread view (reading ``engine.stats``
        directly from another thread is a race, and the sanitizer's
        race detector reports it as one).
        """
        with guarded(self._lock, "engine.stats", "read"):
            return self.stats.snapshot()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def scan(
        self,
        lst: LinkedList,
        op: Operator | str = SUM,
        inclusive: bool = False,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """Single-request convenience: cache + routing, no queueing.

        Raises :class:`~repro.engine.errors.EngineRequestError` when
        the request fails (there is no response to carry the error).
        """
        [resp] = self.run_batch(
            [ScanRequest(lst=lst, op=op, inclusive=inclusive, algorithm=algorithm)]
        )
        if not resp.ok:
            raise EngineRequestError(resp.error, resp.request_id)
        return resp.result

    def rank(self, lst: LinkedList, algorithm: str = "auto") -> np.ndarray:
        """Rank through the engine (all-ones values under ``+``)."""
        ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
        return self.scan(ones, SUM, inclusive=False, algorithm=algorithm)

    def map_scan(
        self,
        lists: Sequence[LinkedList],
        op: Operator | str = SUM,
        inclusive: bool = False,
        algorithm: str = "auto",
    ) -> list[np.ndarray]:
        """Scan many lists; returns results in input order.

        Raises :class:`~repro.engine.errors.EngineRequestError` for the
        first failed request; use :meth:`run_batch` to receive partial
        results with per-request errors instead.
        """
        reqs = [
            ScanRequest(lst=lst, op=op, inclusive=inclusive, algorithm=algorithm)
            for lst in lists
        ]
        responses = self.run_batch(reqs)
        for resp in responses:
            if not resp.ok:
                raise EngineRequestError(resp.error, resp.request_id)
        return [resp.result for resp in responses]

    # ------------------------------------------------------------------
    # shard execution
    # ------------------------------------------------------------------

    def _failure(self, req: ScanRequest, error: RequestError) -> ScanResponse:
        return ScanResponse(
            request_id=req.request_id,
            n=req.n,
            tag=req.tag,
            ok=False,
            error=error,
        )

    def _child_rng(self) -> np.random.Generator:
        with guarded(self._lock, "engine.seeds"):
            (child,) = self._seeds.spawn(1)
        return np.random.default_rng(child)

    def _execute_shard_contained(
        self, shard: list[ScanRequest], parent: Span | None = None
    ) -> list[_Outcome]:
        """Run one shard without ever raising.

        Returns one outcome per request, aligned with the shard: a
        ``(algorithm, batch_lists, result)`` tuple on success, a
        :class:`RequestError` on failure.  A shard of several requests
        that raises is retried once in quarantine mode — every member
        re-runs as a shard of one — so a single poisoned request cannot
        take down its shard-mates.

        ``parent`` pins the shard's trace span under the batch span —
        required under the thread-pool driver, where this method runs
        on a worker thread whose span stack is empty.
        """
        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        with span(
            "shard",
            parent=parent,
            lists=len(shard),
            nodes=sum(req.n for req in shard),
        ):
            try:
                algorithm, results = self._execute_shard(shard)
                return [(algorithm, len(shard), result) for result in results]
            except Exception as exc:
                if len(shard) == 1:
                    with guarded(self._lock, "engine.stats"):
                        self.stats.quarantined += 1
                    return [_execution_error(exc)]
                with guarded(self._lock, "engine.stats"):
                    self.stats.retries += 1
                with span("quarantine_retry", lists=len(shard)):
                    return [
                        outcome
                        for req in shard
                        for outcome in self._execute_shard_contained([req])
                    ]

    def _execute_shard(
        self, shard: list[ScanRequest]
    ) -> tuple[str, list[np.ndarray]]:
        """Run one shard; returns ``(algorithm, per-request results)``.

        The shard fuses into one forest — a lone request is a forest of
        one — and runs on the routed kernel.  Forced algorithms without
        a forest kernel run per list through the dispatch API.

        Each attempt collects a fresh kernel :class:`ScanStats`, merged
        into the engine stats only after the kernel returns: an attempt
        that raises discards its partial counters, so the quarantine
        re-runs start from zero and never double-count.
        """
        forced = shard[0].algorithm  # uniform within a shard (shard key)
        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        kstats = ScanStats()

        if forced != "auto" and forced not in CANDIDATES:
            results = [
                list_scan(
                    req.lst,
                    req.op,
                    inclusive=req.inclusive,
                    algorithm=forced,
                    rng=self._child_rng(),
                    stats=kstats,
                    trace=tracer,
                )
                for req in shard
            ]
            with guarded(self._lock, "engine.stats"):
                self.stats.solo_runs += len(shard)
                self.stats.count_algorithm(forced, len(shard))
                self.stats.merge_kernel_stats(kstats)
            return forced, results

        batch = FusedBatch.fuse(shard)
        forest = batch.forest
        router = self.router
        if forced != "auto":
            algorithm = forced
        else:
            algorithm = router.choose(batch.n_nodes, batch.n_lists)
        if tracer is not None:
            tracer.event(
                "route",
                algorithm=algorithm,
                forced=forced != "auto",
                n_nodes=batch.n_nodes,
                n_lists=batch.n_lists,
                predicted_clocks={
                    candidate: float(
                        router.predicted_clocks(batch.n_nodes, candidate, batch.n_lists)
                    )
                    for candidate in CANDIDATES
                },
            )
        backend = self._backend
        predicted = self._predicted_seconds(algorithm, batch.n_nodes, batch.n_lists)
        t0 = self.clock()
        with span(
            "execute",
            algorithm=algorithm,
            lists=batch.n_lists,
            nodes=batch.n_nodes,
        ):
            results = run_fused_kernel(
                forest,
                batch.op,
                batch.inclusive,
                algorithm,
                kstats,
                [np.empty_like(values) for values in forest.values],
                tracer,
                kernel_backend=backend.kernels,
            )
        elapsed = self.clock() - t0
        with guarded(self._lock, "engine.stats"):
            if batch.n_lists == 1:
                self.stats.solo_runs += 1
            else:
                self.stats.fused_lists += batch.n_lists
                self.stats.fused_nodes += batch.n_nodes
            self.stats.count_algorithm(algorithm, batch.n_lists)
            self.stats.merge_kernel_stats(kstats)
        self._observe_execution(predicted, elapsed)
        return algorithm, results
