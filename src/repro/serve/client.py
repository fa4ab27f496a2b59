"""Benchmark / load client for the serving front-end.

``run_bench`` opens ``clients`` concurrent connections to a running
:class:`~repro.serve.server.ScanServer`, drives each with a stream of
deterministic scan requests (mixed list sizes, optional poison
messages exercising the structured error path), honors ``retry_after``
hints on shed responses, and verifies every result bit-for-bit against
the reference :func:`~repro.core.list_scan.list_scan`.

The report is a JSON-safe dict built around the same
:class:`~repro.engine.histogram.LatencyHistogram` the engine uses, so
``repro-c90 bench-client`` can print latency p50/p95/p99 in exactly
the shape the server's ``/stats`` endpoint reports — the CI smoke job
uploads this as its latency artifact.

Used by ``repro-c90 bench-client``, the serve test suite, and the CI
``serve-smoke`` job.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np

from ..core.list_scan import list_scan
from ..engine.histogram import LatencyHistogram
from ..lists.generate import LinkedList, random_list  # noqa: F401 (LinkedList in annotations)
from .protocol import FrameDecoder, encode_frame

__all__ = ["run_bench", "bench_client"]


class _Workload:
    """Deterministic request stream for one client."""

    def __init__(
        self,
        name: str,
        requests: int,
        sizes: tuple[int, ...],
        poison_every: int,
        op: str,
        algorithm: str,
        seed: int,
    ):
        self.name = name
        self.requests = requests
        self.sizes = sizes
        self.poison_every = poison_every
        self.op = op
        self.algorithm = algorithm
        self.seed = seed

    def make(self, index: int) -> tuple[dict[str, Any], LinkedList | None]:
        """Build request ``index``: the wire message + reference list.

        Every ``poison_every``-th request is structurally broken,
        alternately every node pointing at node 0 and a valid chain
        beside a disjoint 3-cycle (whose in-degrees are all right).
        Both sail through wire validation and come back as the
        engine's structured ``bad-structure`` error; reference is None.
        Request ``index`` is the same on every call, so a shed request
        is resent unchanged.
        """
        n = int(self.sizes[index % len(self.sizes)])
        if self.poison_every and (index + 1) % self.poison_every == 0:
            n = max(4, n)
            cycle = [*range(1, n - 3), n - 4, n - 2, n - 1, n - 3]  # 0 → … → n-4, 3-cycle
            message = {
                "id": index,
                "type": "scan",
                "client": self.name,
                "next": [0] * n if (index + 1) // self.poison_every % 2 else cycle,
                "head": 0,
                "op": self.op,
            }
            return message, None
        rng = np.random.default_rng([self.seed, index])
        values = rng.integers(-100, 100, size=n)
        lst = random_list(n, rng=rng, values=values)
        message = {
            "id": index,
            "type": "scan",
            "client": self.name,
            "next": lst.next,
            "head": int(lst.head),
            "values": values,
            "op": self.op,
            "inclusive": False,
            "algorithm": self.algorithm,
        }
        return message, lst


async def bench_client(
    host: str,
    port: int,
    workload: _Workload,
    histogram: LatencyHistogram,
    counters: dict[str, int],
    max_outstanding: int = 32,
    max_retries: int = 20,
    verify: bool = True,
) -> None:
    """Drive one connection through its workload (framed dialect).

    Keeps up to ``max_outstanding`` requests in flight; a shed response
    (``rate-limited`` / ``overloaded``) sleeps the advertised
    ``retry_after`` and resends, up to ``max_retries`` per request.
    Mutates the shared ``histogram``/``counters`` (single event loop —
    no locking needed).
    """
    reader, writer = await asyncio.open_connection(host, port)
    decoder = FrameDecoder()
    loop = asyncio.get_running_loop()
    outstanding: dict[int, tuple[LinkedList | None, float, int]] = {}
    next_index = 0
    done = 0
    try:
        while done < workload.requests:
            while (
                next_index < workload.requests
                and len(outstanding) < max_outstanding
            ):
                message, reference = workload.make(next_index)
                outstanding[next_index] = (reference, loop.time(), 0)
                writer.write(encode_frame(message))
                counters["sent"] += 1
                next_index += 1
            await writer.drain()
            data = await reader.read(1 << 16)
            if not data:
                counters["disconnects"] += 1
                break
            for response in decoder.feed(data):
                done += await _settle(
                    response,
                    workload,
                    outstanding,
                    histogram,
                    counters,
                    writer,
                    loop,
                    max_retries,
                    verify,
                )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _settle(
    response: dict[str, Any],
    workload: _Workload,
    outstanding: dict[int, tuple[LinkedList | None, float, int]],
    histogram: LatencyHistogram,
    counters: dict[str, int],
    writer: asyncio.StreamWriter,
    loop: asyncio.AbstractEventLoop,
    max_retries: int,
    verify: bool,
) -> int:
    """Account one response; returns 1 when its request is finished."""
    index = response.get("id")
    entry = outstanding.get(index)  # type: ignore[arg-type]
    if entry is None:
        counters["unmatched"] += 1
        return 0
    reference, sent_at, retries = entry
    if response.get("ok"):
        del outstanding[index]  # type: ignore[arg-type]
        histogram.observe(loop.time() - sent_at)
        counters["ok"] += 1
        if reference is None:
            counters["poison_accepted"] += 1  # poison must NOT succeed
        elif verify:
            expected = list_scan(reference, op=workload.op, inclusive=False)
            if response.get("result") == expected.tolist():
                counters["verified"] += 1
            else:
                counters["mismatched"] += 1
        return 1
    error = response.get("error") or {}
    code = error.get("code", "")
    if code in ("rate-limited", "overloaded") and retries < max_retries:
        counters["shed"] += 1
        outstanding[index] = (reference, sent_at, retries + 1)  # type: ignore[index]
        retry_after = response.get("retry_after")
        await asyncio.sleep(
            float(retry_after) if retry_after is not None else 0.005
        )
        message, _ = workload.make(int(index))  # type: ignore[arg-type]
        writer.write(encode_frame(message))
        counters["sent"] += 1
        return 0
    del outstanding[index]  # type: ignore[arg-type]
    histogram.observe(loop.time() - sent_at)
    counters["errors"] += 1
    if reference is None and code:
        counters["poison_rejected"] += 1  # structured error: the good path
    if code in ("rate-limited", "overloaded"):
        counters["gave_up"] += 1
    return 1


async def _request_stats(host: str, port: int) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame({"id": "stats", "type": "stats"}))
        await writer.drain()
        decoder = FrameDecoder()
        while True:
            data = await reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed before answering stats")
            messages = decoder.feed(data)
            if messages:
                return messages[0]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _request_shutdown(host: str, port: int) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame({"id": "shutdown", "type": "shutdown"}))
        await writer.drain()
        decoder = FrameDecoder()
        data = await reader.read(1 << 16)
        messages = decoder.feed(data) if data else []
        return messages[0] if messages else {"ok": False}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_bench(
    host: str,
    port: int,
    clients: int = 4,
    requests: int = 100,
    sizes: tuple[int, ...] = (16, 64, 256),
    poison_every: int = 0,
    op: str = "sum",
    algorithm: str = "auto",
    max_outstanding: int = 32,
    verify: bool = True,
    seed: int = 0,
    fetch_stats: bool = False,
    shutdown: bool = False,
) -> dict[str, Any]:
    """Run the full benchmark; returns the JSON-safe report.

    ``clients`` connections run concurrently, each sending ``requests``
    messages.  With ``poison_every=k``, every ``k``-th request per
    client is structurally broken and must come back as a structured
    error.  ``shutdown`` sends the admin shutdown message afterwards
    (the server must have been started with ``allow_shutdown``).
    """
    histogram = LatencyHistogram()
    counters: dict[str, int] = {
        "sent": 0,
        "ok": 0,
        "errors": 0,
        "shed": 0,
        "gave_up": 0,
        "verified": 0,
        "mismatched": 0,
        "poison_rejected": 0,
        "poison_accepted": 0,
        "unmatched": 0,
        "disconnects": 0,
    }
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    await asyncio.gather(
        *(
            bench_client(
                host,
                port,
                _Workload(
                    name=f"bench-{i}",
                    requests=requests,
                    sizes=sizes,
                    poison_every=poison_every,
                    op=op,
                    algorithm=algorithm,
                    seed=seed * 1_000_003 + i,
                ),
                histogram,
                counters,
                max_outstanding=max_outstanding,
                verify=verify,
            )
            for i in range(clients)
        )
    )
    elapsed = loop.time() - t0
    report: dict[str, Any] = {
        "clients": clients,
        "requests_per_client": requests,
        "elapsed": round(elapsed, 6),
        "throughput_rps": round((counters["ok"] + counters["errors"]) / elapsed, 2)
        if elapsed > 0
        else None,
        "counters": counters,
        "latency": histogram.snapshot(),
    }
    if fetch_stats:
        reply = await _request_stats(host, port)
        report["server_stats"] = reply.get("stats")
    if shutdown:
        reply = await _request_shutdown(host, port)
        report["shutdown"] = bool(reply.get("ok"))
    return report
