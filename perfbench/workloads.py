"""The four benchmark workloads.

Every workload is a closed loop driven from this process: an op is sent
only when a slot frees.  Inputs come from the seed alone; results are
checked against an oracle built from the generating permutation,
``expected[order] = exclusive cumsum(values[order])``, outside every
op's timed interval.

``rank_4m``
    ``core.list_scan(algorithm="sublist")`` over one 2^22-node random
    list, one call in flight, the same splitter seed every call.  The
    paper's own measurement; the time is in ``core``/``kernels``.
``engine_zipf``
    ``Engine(executor="sync").run_batch`` over a fixed stream of 44
    batches of 128 requests, drawn Zipf(1.1) from 1,024 random lists
    of log-uniform size in 64..65,536.  The stream's shape is fixed and
    the seed fills the lists.  One pass replays the stream on a fresh
    engine, so each pass repeats the same cache hits, coalescing and
    shards.  The time is in the ``engine`` layers; no wire.
``serve_1m``
    A loopback ``ScanServer`` in a child process; one connection sends
    2^20-node scan requests one at a time.  The wire codec dominates.
``serve_small``
    The same server; 2 connections keep 32 requests each outstanding,
    sizes cycling 64/256/1,024/4,096.  Per-request layers dominate:
    admission, the adaptive window, flush and fusion.

The serve client speaks the repo's own wire code
(``repro.serve.protocol.encode_frame`` / ``FrameDecoder``), so a wire
change made on both sides is measured without editing this file.
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import layers
from layers import Shims
from measure import TAIL_BEYOND, Recorder, peak_rss_mb

from repro.core.operators import SUM
from repro.core.stats import ScanStats
from repro.engine import Engine
from repro.engine.queue import ScanRequest
from repro.lists.generate import INDEX_DTYPE, LinkedList, from_order
from repro.serve import protocol

HERE = Path(__file__).resolve().parent

# the module, not the function ``repro.core`` re-exports under its name
scan_module = importlib.import_module("repro.core.list_scan")

clock = time.perf_counter

#: Bytes per list node the scan keeps resident: successor, value, result.
NODE_BYTES = 24


def oracle(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exclusive SUM scan of the list that visits ``order`` in turn."""
    ordered = values[order]
    expected = np.empty_like(values)
    expected[order] = np.cumsum(ordered) - ordered
    return expected


def make_list(rng: np.random.Generator, n: int) -> tuple[LinkedList, np.ndarray]:
    """A random-permutation list with int64 values, and its oracle."""
    order = rng.permutation(n).astype(INDEX_DTYPE)
    values = rng.integers(-1000, 1000, size=n, dtype=np.int64)
    return from_order(order, values), oracle(order, values)


@dataclass
class Outcome:
    """What one timed phase of a workload measured."""

    rec: Recorder
    wall: float
    attempted: int
    failed: int
    peak_rss_mb: float
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """Set up, measure for a while, tear down."""

    name = ""
    working_set_bytes = 0
    #: Nodes of every op's list when all ops scan one size, else 0.
    op_nodes = 0
    #: Ops the closed loop keeps outstanding.
    in_flight = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, traced: bool = False) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def primary_seconds(self, outcome: Outcome) -> float:
        """The e2e seconds per element the trace overhead is judged on:
        the median op's for equal ops, else the throughput's inverse."""
        if self.op_nodes:
            return float(np.median(outcome.rec.seconds)) / self.op_nodes
        return outcome.wall / sum(outcome.rec.elems)


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


class Rank4M(Workload):
    name = "rank_4m"
    op_nodes = 1 << 22
    working_set_bytes = NODE_BYTES * op_nodes

    def setup(self, traced: bool = False) -> None:
        self.lst, self.expected = make_list(np.random.default_rng([self.seed, 0]), self.op_nodes)
        if not np.array_equal(self.scan(), self.expected):
            raise RuntimeError("rank_4m: warm-up scan disagrees with the oracle")

    def scan(self, stats: ScanStats | None = None) -> np.ndarray:
        # the module attribute, so a traced run's shim sees the call
        return scan_module.list_scan(
            self.lst, SUM, algorithm="sublist", rng=self.seed, stats=stats
        )

    def measure(self, seconds: float, traced: bool = False) -> Outcome:
        shims = Shims() if traced else None
        if shims is not None:
            shims.kernels()
            shims.scan_entry(scan_module)
        rec, failed = Recorder(), 0
        deadline = clock() + seconds
        try:
            # at least TAIL_BEYOND + 1 ops, so the tail has its samples
            while clock() < deadline or len(rec) <= TAIL_BEYOND:
                gc.collect()
                stats = ScanStats() if traced else None
                t0 = clock()
                out = self.scan(stats)
                rec.observe(clock() - t0, self.op_nodes)
                failed += not np.array_equal(out, self.expected)
                del out
        finally:
            if shims is not None:
                shims.close()
        outcome = Outcome(rec, sum(rec.seconds), len(rec), failed, peak_rss_mb())
        if shims is not None:
            outcome.layers = layers.per_layer(shims.accounts(), len(rec), None)
        return outcome

    def teardown(self) -> None:
        self.lst = self.expected = None  # type: ignore[assignment]


class EngineZipf(Workload):
    name = "engine_zipf"
    POOL = 1024
    BATCH = 128
    BATCHES = 44
    ZIPF = 1.1
    SIZES = (64, 65536)

    #: Seeds the stream's shape (list sizes, popularity, draws).  The
    #: workload seed only fills the lists, so every seed repeats the
    #: same sizes, cache hits, coalescing and shards: with 1,024 lists
    #: under Zipf(1.1), a seeded shape would let the size of the few
    #: most popular lists swing the cost of a run by tens of percent.
    SHAPE_SEED = 20240611

    def setup(self, traced: bool = False) -> None:
        shape = np.random.default_rng(self.SHAPE_SEED)
        lo, hi = (math.log(s) for s in self.SIZES)
        sizes = np.rint(np.exp(np.linspace(lo, hi, self.POOL))).astype(int)
        by_rank = shape.permutation(self.POOL)
        weights = np.arange(1, self.POOL + 1, dtype=np.float64) ** -self.ZIPF
        draws = by_rank[
            shape.choice(self.POOL, self.BATCH * self.BATCHES, p=weights / weights.sum())
        ]
        self.lists: dict[int, LinkedList] = {}
        self.expected: dict[int, np.ndarray] = {}
        for k in np.unique(draws).tolist():
            self.lists[k], self.expected[k] = make_list(
                np.random.default_rng([self.seed, 2, k]), int(sizes[k])
            )
        self.stream = [
            draws[b * self.BATCH : (b + 1) * self.BATCH].tolist() for b in range(self.BATCHES)
        ]
        self.batches = [[ScanRequest(lst=self.lists[k], op=SUM) for k in ks] for ks in self.stream]
        self.batch_elems = [sum(int(sizes[k]) for k in ks) for ks in self.stream]
        self.working_set_bytes = NODE_BYTES * sum(lst.n for lst in self.lists.values())
        # warm-up: one whole pass; the first pass in a process runs about
        # 10% slower while the allocator grows to the cache's size
        with Engine(executor="sync", seed=self.seed) as engine:
            for keys, batch in zip(self.stream, self.batches):
                if self.check(keys, engine.run_batch(batch)):
                    raise RuntimeError("engine_zipf: warm-up batch disagrees with the oracle")

    def check(self, keys: list[int], responses: list[Any]) -> int:
        """Number of responses that failed or disagree with the oracle."""
        return sum(
            not (resp.ok and np.array_equal(resp.result, self.expected[k]))
            for k, resp in zip(keys, responses)
        )

    def measure(self, seconds: float, traced: bool = False) -> Outcome:
        shims = Shims() if traced else None
        if shims is not None:
            shims.kernels()
            shims.engine_module()
        rec, failed, passes = Recorder(), 0, 0
        totals: dict[str, int] = {}
        deadline = clock() + seconds
        try:
            # whole passes only: every pass repeats the same counts
            while passes == 0 or clock() < deadline:
                engine = Engine(executor="sync", seed=self.seed)
                if shims is not None:
                    shims.engine_instance(engine)
                for keys, batch, elems in zip(self.stream, self.batches, self.batch_elems):
                    gc.collect()
                    t0 = clock()
                    responses = engine.run_batch(batch)
                    rec.observe(clock() - t0, elems)
                    failed += self.check(keys, responses)
                for name, value in engine.stats_snapshot().items():
                    if isinstance(value, int):
                        totals[name] = totals.get(name, 0) + value
                engine.close()
                passes += 1
        finally:
            if shims is not None:
                shims.close()
        outcome = Outcome(rec, sum(rec.seconds), len(rec) * self.BATCH, failed, peak_rss_mb())
        if shims is not None:
            outcome.layers = layers.per_layer(shims.accounts(), len(rec), totals)
        return outcome

    def teardown(self) -> None:
        self.lists, self.expected, self.batches = {}, {}, []


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------


class ServerProcess:
    """The ``serve_child.py`` process and its stdin/stdout handshake."""

    def __init__(self, seed: int, traced: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
             "--trace", str(int(traced))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._reply()["port"])

    def _reply(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server child exited with code {self.proc.returncode}")
        return json.loads(line)

    def reset(self) -> None:
        """Zero the child's layer accounts; returns once it has."""
        assert self.proc.stdin is not None
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        self._reply()

    def stop(self) -> dict[str, Any]:
        """Shut the server down; returns its final report."""
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class ClientTally:
    """Client-side counts and layer times of one driven phase."""

    rec: Recorder = field(default_factory=Recorder)
    sent: int = 0
    done: int = 0
    failed: int = 0
    encode_s: float = 0.0
    decode_s: float = 0.0


class ServeWorkload(Workload):
    """Shared client for the two serve workloads.

    ``pool`` holds ``(list, expected result as a list)`` pairs; request
    ``i`` carries ``pool[i % len(pool)]``.  Each connection keeps
    ``OUTSTANDING`` requests in flight until the phase's deadline, then
    drains.  A request's time runs from before its message is built
    until its response is decoded; the oracle check follows the decode.
    """

    CONNECTIONS = 1
    OUTSTANDING = 1
    WARMUP_S = 0.0
    WARMUP_OPS = 0
    MIN_OPS = 0
    LEAD_IN_S = 0.0

    pool: list[tuple[LinkedList, list[int]]]

    def setup(self, traced: bool = False) -> None:
        self.build_pool(np.random.default_rng([self.seed, 3]))
        self.server = ServerProcess(self.seed, traced)
        tally = asyncio.run(self.drive(self.WARMUP_S, self.WARMUP_OPS, record_from=math.inf))
        if tally.failed:
            raise RuntimeError(f"{self.name}: warm-up responses disagree with the oracle")
        self.server.reset()

    def build_pool(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def message(self, index: int) -> dict[str, Any]:
        lst = self.pool[index % len(self.pool)][0]
        return {
            "id": index,
            "type": "scan",
            "next": lst.next.tolist(),
            "head": lst.head,
            "values": lst.values.tolist(),
            "op": "sum",
        }

    async def drive(self, seconds: float, min_ops: int, record_from: float) -> ClientTally:
        """Run the closed loop for ``seconds``, and on until ``min_ops``
        responses arrived; responses decoded ``record_from`` seconds or
        more after the start are recorded (the first ``min_ops`` also
        after the deadline)."""
        tally = ClientTally()
        start = clock()
        deadline = start + seconds
        record_at = start + record_from
        counter = iter(range(1 << 62))

        async def connection() -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
            decoder = protocol.FrameDecoder()
            inflight: dict[int, float] = {}

            def send() -> None:
                index = next(counter)
                t0 = clock()
                frame = protocol.encode_frame(self.message(index))
                tally.encode_s += clock() - t0
                inflight[index] = t0
                tally.sent += 1
                writer.write(frame)

            try:
                for _ in range(self.OUTSTANDING):
                    send()
                while inflight:
                    await writer.drain()
                    data = await reader.read(1 << 20)
                    if not data:
                        raise ConnectionError("server closed the connection")
                    t0 = clock()
                    messages = decoder.feed(data)
                    done = clock()
                    tally.decode_s += done - t0
                    for msg in messages:
                        index = msg["id"]
                        lst, expected = self.pool[index % len(self.pool)]
                        if done >= record_at and (done < deadline or tally.done < min_ops):
                            tally.rec.observe(done - inflight[index], lst.n)
                        del inflight[index]
                        tally.done += 1
                        tally.failed += not (msg.get("ok") and msg.get("result") == expected)
                        if done < deadline or tally.done + len(inflight) < min_ops:
                            send()
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(connection() for _ in range(self.CONNECTIONS)))
        return tally

    def measure(self, seconds: float, traced: bool = False) -> Outcome:
        gc.collect()
        tally = asyncio.run(
            self.drive(self.LEAD_IN_S + seconds, self.MIN_OPS, record_from=self.LEAD_IN_S)
        )
        report = self.server.stop()
        # one request in flight: the sum of request times; overlapping
        # requests: the recorded window
        wall = seconds if self.in_flight > 1 else sum(tally.rec.seconds)
        outcome = Outcome(tally.rec, wall, tally.sent, tally.failed, report["peak_rss_mb"])
        if traced:
            counters = report["counters"]
            outcome.layers = layers.per_layer(
                report["accounts"], max(counters["requests"], 1), counters
            )
            outcome.layers.update(
                {
                    "client.encode_s": tally.encode_s / tally.sent,
                    "client.decode_s": tally.decode_s / tally.sent,
                    "server.window_final_ms": report["window_final_ms"],
                    "server.shed": float(counters["server_shed"]),
                }
            )
        return outcome

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.kill()
            self.server = None  # type: ignore[assignment]


class Serve1M(ServeWorkload):
    name = "serve_1m"
    op_nodes = 1 << 20
    WARMUP_OPS = 1
    #: A run takes at least this many requests (about 1.7 s each), so
    #: the tail sample has ten above it and two below it rather than
    #: being the single fastest request.
    MIN_OPS = 13
    working_set_bytes = NODE_BYTES * op_nodes

    def build_pool(self, rng: np.random.Generator) -> None:
        lst, expected = make_list(rng, self.op_nodes)
        self.pool = [(lst, expected.tolist())]


class ServeSmall(ServeWorkload):
    name = "serve_small"
    SIZES = (64, 256, 1024, 4096)
    PER_SIZE = 64
    CONNECTIONS = 2
    OUTSTANDING = 32
    in_flight = CONNECTIONS * OUTSTANDING
    WARMUP_S = 1.0
    #: Responses in the first LEAD_IN_S of a phase are not recorded:
    #: after the 64 requests sent at once, the 92nd-percentile latency
    #: of the first second runs about 2.5x its steady value.
    LEAD_IN_S = 2.0
    working_set_bytes = NODE_BYTES * CONNECTIONS * OUTSTANDING * sum(SIZES) // len(SIZES)

    def build_pool(self, rng: np.random.Generator) -> None:
        self.pool = []
        for i in range(self.PER_SIZE * len(self.SIZES)):
            lst, expected = make_list(rng, self.SIZES[i % len(self.SIZES)])
            self.pool.append((lst, expected.tolist()))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Rank4M, EngineZipf, Serve1M, ServeSmall)
}
