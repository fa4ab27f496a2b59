"""Batched-engine throughput vs. sequential dispatch.

The engine's claim mirrors the paper's: many independent traversals
kept at full (vector) width beat the same traversals run one at a
time.  Here the "vector" is NumPy bulk work across a fused forest of
requests, and the baseline is one ``list_scan(algorithm="auto")`` call
per list — so both sides use cost-model routing and the comparison
isolates *batching*, not algorithm choice.

Records the headline ordering claim ("batching ≥ 1× sequential on
mixed workloads") in the harness registry, plus the cache's effect on
a repeated workload and the worker-scaling curves of the pooled
execution backends (speedup vs workers for ``threads`` and
``processes`` against the ``sync`` driver).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import print_table, record, record_speedup
from repro.core.list_scan import list_scan
from repro.engine import Engine
from repro.lists.generate import random_list, random_values


def _mixed_workload(count, min_n, max_n, seed):
    rng = np.random.default_rng(seed)
    sizes = np.exp(
        rng.uniform(np.log(min_n), np.log(max_n), count)
    ).astype(np.int64)
    return [
        random_list(int(n), rng, values=random_values(int(n), rng))
        for n in sizes
    ]


def _sequential_seconds(lists):
    t0 = time.perf_counter()
    results = [list_scan(lst, "sum", algorithm="auto") for lst in lists]
    return time.perf_counter() - t0, results


@pytest.mark.benchmark(group="engine")
def test_engine_vs_sequential_mixed(benchmark, full_sweep, smoke):
    count = 24 if smoke else (256 if full_sweep else 96)
    max_n = (1 << 11) if smoke else ((1 << 17) if full_sweep else (1 << 14))
    lists = _mixed_workload(count, 32, max_n, seed=20240805)
    total_nodes = sum(lst.n for lst in lists)

    t_seq, seq_results = _sequential_seconds(lists)

    engine = Engine(cache_capacity=0)  # isolate batching from caching
    eng_results = benchmark.pedantic(
        lambda: engine.map_scan(lists, "sum"), rounds=1, iterations=1
    )
    t_eng = engine.stats.seconds_executing

    for got, ref in zip(eng_results, seq_results):
        np.testing.assert_array_equal(got, ref)

    print_table(
        ["driver", "seconds", "Mnodes/s"],
        [
            ["sequential auto list_scan", t_seq, total_nodes / t_seq / 1e6],
            ["batched engine", t_eng, total_nodes / t_eng / 1e6],
        ],
        title=f"mixed workload: {count} lists, {total_nodes:,} nodes",
    )
    print_table(["counter", "value"], engine.stats.as_rows(),
                title="engine stats")
    record_speedup(
        "engine",
        "batched engine >= 1x sequential list_scan on mixed workloads",
        t_seq,
        t_eng,
        note=f"{count} lists, {total_nodes:,} nodes",
    )


@pytest.mark.benchmark(group="engine")
def test_engine_cache_repeated_workload(benchmark, smoke):
    count = 12 if smoke else 48
    max_n = (1 << 10) if smoke else (1 << 13)
    lists = _mixed_workload(count, 64, max_n, seed=7)
    engine = Engine(cache_capacity=256)
    cold_results = engine.map_scan(lists, "sum")
    t_cold = engine.stats.seconds_executing

    warm_results = benchmark.pedantic(
        lambda: engine.map_scan(lists, "sum"), rounds=1, iterations=1
    )
    t_warm = engine.stats.seconds_executing - t_cold

    for got, ref in zip(warm_results, cold_results):
        np.testing.assert_array_equal(got, ref)
    assert engine.stats.cache_hits == len(lists)
    record_speedup(
        "engine",
        "structural result cache speedup on a repeated workload",
        t_cold,
        t_warm,
        note=f"{len(lists)} lists resubmitted verbatim",
    )


@pytest.mark.benchmark(group="engine")
def test_engine_worker_scaling(benchmark, full_sweep, smoke):
    """Speedup-vs-workers curves for the pooled backends (paper Fig. 14).

    The paper's Section 5 scales the sublist algorithm across 1–8 C-90
    CPUs; the engine's analogue divides a batch's *shards* among
    workers.  This records one scaling point per (executor, worker
    count) pair against the sync driver on a cold-cache, mixed-size
    workload.  At every sweep size its lists fit under the fusion cap
    (``engine.batch.FUSE_NODES``) and fuse into one shard, so the
    curve measures each backend's dispatch overhead rather than a
    parallel speedup.

    The issue's gate — ``processes`` at 4 workers ≥ 1.5× sync — is
    recorded with its real threshold so the registry's ``ok`` flag
    reports it honestly, but the hard assertion is correctness only:
    on a CI box with few cores (or one), no executor can physically
    reach the gate, and a capacity-dependent hard-fail would flake the
    suite exactly like a noisy-runner timing bound (see
    ``test_trace_off_overhead``).
    """
    import os

    count = 10 if smoke else (48 if full_sweep else 24)
    max_n = (1 << 11) if smoke else ((1 << 16) if full_sweep else (1 << 14))
    lists = _mixed_workload(count, 256, max_n, seed=31)
    total_nodes = sum(lst.n for lst in lists)

    def run(executor, workers):
        with Engine(
            cache_capacity=0, executor=executor, max_workers=workers, seed=9
        ) as engine:
            # one untimed pass over the measured lists spins the pool up
            # (forkserver/spawn workers cold-start in ~seconds) and warms
            # the workers' per-size tuning caches, so the curve measures
            # steady-state serving — the regime the >= 1.5x gate is a
            # claim about — and not one-time setup
            engine.map_scan(lists, "sum", parallel=(executor != "sync"))
            t0 = time.perf_counter()
            results = engine.map_scan(
                lists, "sum", parallel=(executor != "sync")
            )
            return time.perf_counter() - t0, results

    run("sync", 1)  # warm-up (allocator, router calibration, imports)
    t_sync, ref = benchmark.pedantic(
        lambda: run("sync", 1), rounds=1, iterations=1
    )

    cpus = os.cpu_count() or 1
    worker_counts = [1, 2] if smoke else sorted({1, 2, 4, cpus})
    rows = [["sync", 1, t_sync, 1.0]]
    gate = None
    for executor in ("threads", "processes"):
        for workers in worker_counts:
            t, results = run(executor, workers)
            for got, want in zip(results, ref):
                np.testing.assert_array_equal(got, want)  # bit-identical
            speedup = t_sync / t if t > 0 else float("inf")
            rows.append([executor, workers, t, speedup])
            # curve points are measurements, not gates: threshold 0 so
            # only the explicit 1.5x record below carries an ok verdict
            record_speedup(
                "engine_scaling",
                f"{executor} executor, {workers} worker(s) vs sync driver",
                t_sync,
                t,
                threshold=0.0,
                note=(
                    f"{count} lists, {total_nodes:,} nodes, cold cache, "
                    f"{cpus} cpu(s) on this host"
                ),
            )
            if executor == "processes" and workers == max(worker_counts):
                gate = (workers, t)
    assert gate is not None
    workers, t = gate
    record_speedup(
        "engine_scaling",
        f"processes executor at {workers} workers >= 1.5x sync driver",
        t_sync,
        t,
        threshold=1.5,
        note=(
            f"issue gate (needs >= 4 usable cores; this host has {cpus}); "
            f"{count} lists, {total_nodes:,} nodes, cold cache"
        ),
    )
    print_table(
        ["executor", "workers", "seconds", "speedup vs sync"],
        rows,
        title=(
            f"worker scaling: {count} lists, {total_nodes:,} nodes, "
            f"{cpus} cpu(s)"
        ),
    )


@pytest.mark.benchmark(group="trace")
def test_trace_off_overhead(benchmark, smoke):
    """Tracing must be free when off and cheap when disabled.

    ``trace=None`` skips every hook via ``is not None`` guards;
    ``trace="off"`` routes every hook through the shared disabled
    tracer (the call sites stay live, so this is the configuration
    whose cost is actually interesting).  The recorded claim is the
    issue's gate: the ``trace="off"`` overhead on ``list_scan`` stays
    under 2%.  The hard assertion is deliberately looser (<10%) so a
    noisy CI runner cannot flake the suite; the recorded ``ok`` flag
    still reports the 2% gate.
    """
    from repro.trace import Tracer, compare_trace, trace_to_dict

    n = 30_000 if smoke else 100_000
    repeats = 3 if smoke else 5
    rng = np.random.default_rng(42)
    lst = random_list(n, rng, values=random_values(n, rng))

    def timed(trace):
        t0 = time.perf_counter()
        out = list_scan(lst.copy(), "sum", algorithm="sublist", rng=0, trace=trace)
        return time.perf_counter() - t0, out

    # warm-up (schedule caches, numpy allocator)
    timed(None)

    t_none = t_off = t_on = float("inf")
    ref = out_off = out_on = None
    tracer = Tracer()
    for _ in range(repeats):  # interleave to decorrelate from drift
        dt, ref = timed(None)
        t_none = min(t_none, dt)
        dt, out_off = timed("off")
        t_off = min(t_off, dt)
        tracer.reset()
        dt, out_on = timed(tracer)
        t_on = min(t_on, dt)

    np.testing.assert_array_equal(out_off, ref)
    np.testing.assert_array_equal(out_on, ref)

    overhead_off = t_off / t_none - 1.0
    overhead_on = t_on / t_none - 1.0
    print_table(
        ["configuration", "seconds", "overhead"],
        [
            ["trace=None", t_none, 0.0],
            ["trace='off'", t_off, overhead_off],
            ["trace=Tracer()", t_on, overhead_on],
        ],
        title=f"tracing overhead on list_scan, n={n:,} (min of {repeats})",
    )
    report = compare_trace(tracer)
    record(
        "trace",
        "trace='off' overhead on list_scan < 2%",
        paper=0.02,
        measured=overhead_off,
        unit="frac",
        ok=overhead_off < 0.02,
        trace={
            "enabled_overhead": overhead_on,
            "compare": report.as_dict(),
            "spans": trace_to_dict(tracer.last_root()),
        },
    )
    benchmark.pedantic(lambda: timed("off"), rounds=1, iterations=1)
    assert overhead_off < 0.10, (
        f"trace='off' overhead {overhead_off:.1%} exceeds the loose 10% bound"
    )
