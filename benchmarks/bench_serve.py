"""Serving front-end: natural batching vs. no batching.

The serving layer's claim is the paper's economics applied to the
network edge: admitting many concurrent clients' requests into one
fused ``run_batch`` beats executing each request the moment it
arrives.  The baseline is the same server with ``max_batch=1`` — one
engine call per request.  The measured configuration is the default
server: whenever the engine is free it drains everything queued (up
to ``max_batch``) into one call, so requests that arrive during a
flush form the next batch.

Records the ordering claim ("natural batching ≥ 2× no-batching
throughput at equal-or-better p95") in the harness registry; the CI
smoke job runs the small shape.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bench.harness import print_table, record_speedup
from repro.engine import Engine
from repro.serve import ScanServer, ServeConfig
from repro.serve.client import run_bench

#: Latency bound of the forfeit rule: batching may not push p95 above
#: both the baseline's p95 and this many seconds.
P95_BOUND = 0.050


def _drive(clients: int, requests: int, sizes, **config_kw) -> dict:
    """One fresh server + engine, driven to completion by the bench
    client; returns the client's report (verify off: the measurement
    targets the serving path, not client-side reference scans)."""

    async def main():
        engine = Engine(executor="sync", max_pending=4096)
        server = ScanServer(engine, ServeConfig(port=0, **config_kw))
        await server.start()
        try:
            return await run_bench(
                "127.0.0.1",
                server.port,
                clients=clients,
                requests=requests,
                sizes=sizes,
                verify=False,
                seed=7,
            )
        finally:
            await server.shutdown()

    return asyncio.run(main())


@pytest.mark.benchmark(group="serve")
def test_natural_batching_vs_no_batching(benchmark, full_sweep, smoke):
    clients = 4 if smoke else 8
    requests = 40 if smoke else (300 if full_sweep else 150)
    sizes = (16, 48, 128) if smoke else (16, 64, 256, 1024)

    # one untimed pass of each configuration first: the router's tuning
    # cache fills once per process and per fused size, and whichever
    # configuration ran first would pay for it
    for config_kw in ({"max_batch": 1}, {}):
        _drive(clients, requests, sizes, **config_kw)

    baseline = _drive(clients, requests, sizes, max_batch=1)

    measured = benchmark.pedantic(
        lambda: _drive(clients, requests, sizes),
        rounds=1,
        iterations=1,
    )

    for report in (baseline, measured):
        counters = report["counters"]
        assert counters["ok"] == clients * requests, counters
        assert counters["mismatched"] == 0

    base_p95 = baseline["latency"]["p95"]
    batch_p95 = measured["latency"]["p95"]
    print_table(
        ["configuration", "seconds", "responses/s", "p50 ms", "p95 ms"],
        [
            ["max_batch=1 (no batching)", baseline["elapsed"],
             baseline["throughput_rps"], 1e3 * baseline["latency"]["p50"],
             1e3 * base_p95],
            ["natural batching", measured["elapsed"],
             measured["throughput_rps"], 1e3 * measured["latency"]["p50"],
             1e3 * batch_p95],
        ],
        title=f"serving throughput, {clients} clients x {requests} requests",
    )
    # "equal or better p95": batching must not buy throughput with tail
    # latency
    p95_ok = batch_p95 <= max(base_p95, P95_BOUND)
    record_speedup(
        "serve_natural_batching",
        "natural batching >= 2x no-batching (max_batch=1) throughput at "
        "equal-or-better p95",
        baseline_seconds=baseline["elapsed"],
        measured_seconds=measured["elapsed"]
        if p95_ok
        else float("inf"),  # a blown p95 forfeits the claim
        threshold=2.0,
        note=(
            f"p95 {1e3 * batch_p95:.2f}ms vs baseline "
            f"{1e3 * base_p95:.2f}ms (bound {1e3 * P95_BOUND:.0f}ms); "
            f"{clients} clients x {requests} requests, sizes {sizes}"
        ),
    )
