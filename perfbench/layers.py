"""Per-layer accounting for the traced benchmark run.

Every layer is measured from outside: a shim wraps one public function
of the layer, at the name its caller binds it under, and adds the wall
time of each call to a named account.  Nothing inside ``src/`` changes;
removing the shims (:meth:`Shims.close`) restores the original objects.

Layers and the calls that are timed, by repo module:

``kernels``  the five hook methods of the resolved ``KernelBackend``
             (Phase-1/3 traversal, Phase-1/3 pack, Phase-2 reduced
             scan, plus the Wyllie reduced-list scans ``core.sublist``
             and ``core.forest`` run for Phase 2 when the backend has
             no blocked scan); scan entry calls (``core.list_scan``
             and ``engine.workers.run_fused_kernel``) also fold the
             ``ScanStats`` they were handed into one total.
``engine``   ``fingerprint``, ``validate_request``, ``ResultCache.get/
             put``, ``shard_requests``, ``FusedBatch.fuse/unfuse``,
             ``Router.choose``, ``run_fused_kernel`` + solo
             ``list_scan`` and ``Engine.run_batch``, as bound in
             ``repro.engine.engine``.
``protocol`` ``decode_message``, ``parse_request``, ``response_to_wire``
             and ``encode_frame`` as bound in ``repro.serve.server``.
``server``   ``Engine.run_batch`` as the flush worker calls it (queue
             wait, batch size) and ``ScanServer._flush``.

Self time of a layer is its account minus the accounts of the layers
it calls (e.g. ``core.sublist_self_s`` = scan entry time minus kernel
hook time).  Metrics are per op: totals divided by the op count the
workload passes to :func:`per_layer`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

from repro.core.stats import ScanStats

KERNEL_HOOKS = (
    "traverse_phase1",
    "pack_phase1",
    "reduced_scan",
    "traverse_phase3",
    "pack_phase3",
)

ENGINE_CALLS = ("fingerprint", "validate", "cache", "shard", "fuse", "route", "kernel")

PROTOCOL_CALLS = ("decode", "parse", "response", "encode")

#: Every per-layer metric the traced run reports, with its unit.  A
#: workload that does not exercise a layer reports 0 for it.  ``_s``
#: times and counts are per op (call, batch or request), except
#: ``server.flush_s`` (per flush) and ``server.flushes`` (the traced
#: phase's total).
PER_LAYER_UNITS: dict[str, str] = {
    **{f"kernels.{hook}_s": "s" for hook in KERNEL_HOOKS},
    "core.sublist_self_s": "s",
    "kernels.packs": "count",
    "kernels.rounds": "count",
    "kernels.work_per_elem": "count",
    "kernels.bytes_computed": "B",
    "model.packs_predicted": "count",
    **{f"engine.{call}_s": "s" for call in ENGINE_CALLS},
    "engine.run_batch_self_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_probes": "count",
    "engine.coalesced": "count",
    "engine.shards": "count",
    "engine.lists_per_shard": "count",
    "client.encode_s": "s",
    "client.decode_s": "s",
    **{f"protocol.{call}_s": "s" for call in PROTOCOL_CALLS},
    "protocol.bytes_in": "B",
    "protocol.bytes_out": "B",
    "server.queue_wait_s": "s",
    "server.flush_s": "s",
    "server.requests_per_flush": "count",
    "server.flushes": "count",
    "server.window_final_ms": "ms",
    "server.shed": "count",
    "host.gather_ns_per_elem": "ns",
    "baseline.serial_ns_per_elem": "ns",
    "kernels.speedup_vs_serial": "x",
    "trace.overhead_frac": "ratio",
}


def _find_stats(args: tuple[Any, ...], kwargs: dict[str, Any]) -> ScanStats | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, ScanStats):
            return value
    return None


class Shims:
    """Timing shims plus the accounts they fill.

    ``seconds[name]`` accumulates per account;
    ``kstats`` sums the ``ScanStats`` of every scan entry call and
    ``kernel_nodes`` the nodes those calls scanned; ``counts`` holds
    plain event counters (bytes on the wire, requests per flush, …).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._undo: list[tuple[Any, str, bool, Any]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.kstats = ScanStats()
        self.kernel_nodes = 0

    def reset(self) -> None:
        """Zero every account (the shims stay installed)."""
        self.seconds.clear()
        self.counts.clear()
        self.kstats = ScanStats()
        self.kernel_nodes = 0

    # -- installing -----------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        account: str,
        after: Callable[[tuple[Any, ...], dict[str, Any], Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a shim timing it into ``account``.

        Works for module functions, plain and class methods on a class,
        and bound methods on one instance; ``after(args, kwargs,
        result)`` runs once the call returned, outside the timing.
        """
        had = attr in vars(owner)
        raw = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        clock, seconds = self.clock, self.seconds

        @functools.wraps(target)
        def shim(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                seconds[account] += clock() - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapped: Any = staticmethod(shim) if isinstance(raw, classmethod) else shim
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, had, raw))

    def close(self) -> None:
        """Remove every shim, newest first."""
        while self._undo:
            owner, attr, had, raw = self._undo.pop()
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _fold_stats(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        stats = _find_stats(args, kwargs)
        if stats is not None:
            self.kstats.merge(stats)
            # list_scan takes a LinkedList, run_fused_kernel the raw successors
            nxt = getattr(args[0], "next", args[0])
            self.kernel_nodes += int(nxt.shape[0])

    def kernels(self) -> None:
        """Time the hooks of the kernel backend the scans resolve to.

        A backend without a blocked Phase-2 scan (numpy) never calls
        ``reduced_scan``: the scans run Wyllie on the reduced
        list instead, so those calls are timed into the same account.
        """
        from repro.kernels.backend import resolve_backend

        backend = resolve_backend(None)
        for hook in KERNEL_HOOKS:
            self.patch(backend, hook, f"kernels.{hook}")
        sublist = importlib.import_module("repro.core.sublist")
        forest = importlib.import_module("repro.core.forest")
        self.patch(sublist, "wyllie_list_scan", "kernels.reduced_scan")
        self.patch(forest, "wyllie_forest_scan", "kernels.reduced_scan")

    def scan_entry(self, module: Any) -> None:
        """Time ``module.list_scan``, the scan entry point."""
        self.patch(module, "list_scan", "core.scan", self._fold_stats)

    def engine_module(self) -> None:
        """Time the engine's module-level calls (once per process)."""
        import repro.engine.engine as eng
        from repro.engine.batch import FusedBatch

        self.patch(eng, "fingerprint", "engine.fingerprint")
        self.patch(eng, "validate_request", "engine.validate")
        self.patch(eng, "shard_requests", "engine.shard")
        self.patch(eng, "run_fused_kernel", "engine.kernel", self._fold_stats)
        self.patch(eng, "list_scan", "engine.kernel", self._fold_stats)
        self.patch(FusedBatch, "fuse", "engine.fuse")
        self.patch(FusedBatch, "unfuse", "engine.fuse")

    def engine_instance(self, engine: Any) -> None:
        """Time one engine's cache, router and ``run_batch``."""
        self.patch(engine.cache, "get", "engine.cache")
        self.patch(engine.cache, "put", "engine.cache")
        self.patch(engine.router, "choose", "engine.route")
        self.patch(engine, "run_batch", "engine.run_batch")

    def protocol(self) -> None:
        """Time the wire codec as the server binds it."""
        import repro.serve.server as srv

        self.patch(srv, "decode_message", "protocol.decode", self._bytes_in)
        self.patch(srv, "parse_request", "protocol.parse")
        self.patch(srv, "response_to_wire", "protocol.response")
        self.patch(srv, "encode_frame", "protocol.encode", self._bytes_out)

    def _bytes_in(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        self.counts["protocol.bytes_in"] += len(args[0])

    def _bytes_out(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        self.counts["protocol.bytes_out"] += len(result)

    def server(self, server: Any) -> None:
        """Time one ``ScanServer``'s flushes and its requests' queue wait.

        Installed after :meth:`engine_instance`, so the queue-wait stamp
        is taken where the flush worker enters ``run_batch``.
        """
        engine = server.engine
        run_batch = engine.run_batch
        flush = server._flush
        clock, counts = self.clock, self.counts

        def queued_run_batch(requests: Any, *args: Any, **kwargs: Any) -> Any:
            start = engine.clock()
            for req in requests:
                if req.submitted_at is not None:
                    counts["server.queue_wait"] += start - req.submitted_at
            counts["server.requests"] += len(requests)
            counts["server.flushes"] += 1
            return run_batch(requests, *args, **kwargs)

        async def timed_flush() -> None:
            t0 = clock()
            try:
                await flush()
            finally:
                counts["server.flush_time"] += clock() - t0

        had_run_batch = "run_batch" in vars(engine)
        engine.run_batch = queued_run_batch
        server._flush = timed_flush
        self._undo.append((engine, "run_batch", had_run_batch, run_batch))
        self._undo.append((server, "_flush", False, None))

    # -- reporting ------------------------------------------------------

    def accounts(self) -> dict[str, Any]:
        """JSON-safe copy of every account (crosses the process pipe)."""
        k = self.kstats
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "kstats": {
                "element_ops": k.element_ops,
                "gathers": k.gathers,
                "scatters": k.scatters,
                "rounds": k.rounds,
                "packs": k.packs,
            },
            "kernel_nodes": self.kernel_nodes,
        }


def per_layer(accounts: dict[str, Any], ops: int, engine_stats: dict[str, Any] | None) -> dict[str, float]:
    """Per-op layer metrics from one process's :meth:`Shims.accounts`.

    ``engine_stats`` is the summed ``Engine.stats_snapshot()`` counters
    of the traced engines (``None`` when no engine ran).
    """
    ops = max(ops, 1)
    sec = defaultdict(float, accounts["seconds"])
    counts = defaultdict(float, accounts["counts"])
    k = accounts["kstats"]
    out: dict[str, float] = {}
    hooks = 0.0
    for hook in KERNEL_HOOKS:
        out[f"kernels.{hook}_s"] = sec[f"kernels.{hook}"] / ops
        hooks += sec[f"kernels.{hook}"]
    scans = sec["core.scan"] + sec["engine.kernel"]
    out["core.sublist_self_s"] = (scans - hooks) / ops if scans else 0.0
    out["kernels.packs"] = k["packs"] / ops
    out["kernels.rounds"] = k["rounds"] / ops
    nodes = accounts["kernel_nodes"]
    out["kernels.work_per_elem"] = k["element_ops"] / nodes if nodes else 0.0
    out["kernels.bytes_computed"] = 8.0 * (k["gathers"] + k["scatters"]) / ops
    inner = 0.0
    for call in ENGINE_CALLS:
        out[f"engine.{call}_s"] = sec[f"engine.{call}"] / ops
        inner += sec[f"engine.{call}"]
    run_batch = sec["engine.run_batch"]
    out["engine.run_batch_self_s"] = (run_batch - inner) / ops if run_batch else 0.0
    if engine_stats:
        probes = engine_stats["cache_hits"] + engine_stats["cache_misses"]
        executed = engine_stats["fused_lists"] + engine_stats["solo_runs"]
        out["engine.cache_hit_ratio"] = engine_stats["cache_hits"] / probes if probes else 0.0
        out["engine.cache_probes"] = probes / ops
        out["engine.coalesced"] = engine_stats["coalesced"] / ops
        out["engine.shards"] = engine_stats["shards"] / ops
        out["engine.lists_per_shard"] = (
            executed / engine_stats["shards"] if engine_stats["shards"] else 0.0
        )
    for call in PROTOCOL_CALLS:
        out[f"protocol.{call}_s"] = sec[f"protocol.{call}"] / ops
    out["protocol.bytes_in"] = counts["protocol.bytes_in"] / ops
    out["protocol.bytes_out"] = counts["protocol.bytes_out"] / ops
    requests = counts["server.requests"]
    flushes = counts["server.flushes"]
    out["server.queue_wait_s"] = counts["server.queue_wait"] / requests if requests else 0.0
    out["server.flush_s"] = counts["server.flush_time"] / flushes if flushes else 0.0
    out["server.requests_per_flush"] = requests / flushes if flushes else 0.0
    out["server.flushes"] = flushes
    return out
