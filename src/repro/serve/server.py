"""The asyncio serving front-end: admission, batching, shedding.

``ScanServer`` is the network layer above the batched engine.  Many
concurrent clients connect over TCP (length-prefixed frames — a JSON
header followed by the ``next``/``values``/``result`` arrays as raw
little-endian sections — or JSONL; see ``serve.protocol``, which also
states the dtype allow-list and the ``max_frame_bytes`` bound on one
frame body or line); their requests are admitted into the
engine's bounded :class:`~repro.engine.queue.SubmissionQueue`; a
single flush task drains up to ``max_batch`` of them into
``Engine.run_batch`` whenever the queue is non-empty and no flush is
running; responses are routed back to the connection that asked.

The control flow per request::

    client ──frame──► admit (parse → fairness → queue.submit)
                        │ shed: rate-limited / overloaded (+retry_after)
                        ▼
                 SubmissionQueue ──engine free──► flush task
                                                      │ run_batch
                                                      ▼ (executor thread)
    client ◄─frame── respond (latency observed → histograms)

Key properties:

* **No text codec on the array path.**  A frame's sections decode
  with ``np.frombuffer`` into the arrays the scan runs on, and the
  response writes ``result`` straight from the engine's ndarray.
  An oversized frame or JSONL line gets a structured ``bad-message``
  reply (an oversized HTTP request, ``431``) before the connection
  closes.
* **Admission never blocks.**  The queue's ``submit`` never waits: it
  turns saturation into a structured ``overloaded`` response with a
  ``retry_after`` hint (the smoothed flush time), so an overloaded
  server degrades into explicit shed responses instead of hung
  clients.
* **Natural batching, one flush at a time.**  The flush task never
  waits for more work: the engine call runs on a dedicated worker
  thread (the event loop never blocks on a kernel), admissions
  continue concurrently, and whatever queues up meanwhile is the
  *next* batch.  Batches grow with load on their own; ``max_batch=1``
  turns batching off.
* **Telemetry end to end.**  Every response's admission→response
  latency feeds the engine's ``total`` histogram; a traced server
  additionally records ``accept``/``admit``/``flush``/``respond``
  spans around the engine's own ``run_batch`` trees.
* **Clean shutdown.**  ``shutdown()`` stops accepting, lets the flush
  task drain what was admitted, then ``Engine.close()`` answers
  anything still queued with structured ``shutdown`` errors — no
  request is ever silently dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import struct
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..engine.engine import Engine
from ..engine.errors import RequestError
from ..engine.queue import BackpressureError, QueueClosedError, ScanResponse
from ..sanitize.runtime import start_loop_watchdog
from ..trace.tracer import Tracer, null_span, resolve_trace
from .config import ServeConfig
from .fairness import ClientGovernor
from .protocol import (
    ADMIN_TYPES,
    ProtocolError,
    decode_message,
    encode_frame,
    encode_line,
    error_to_wire,
    parse_request,
    response_to_wire,
)

__all__ = ["ScanServer"]

_LEN = struct.Struct(">I")

#: Smallest ``retry_after`` hint, seconds: the shed hint before the
#: first flush has been timed.
_RETRY_AFTER_FLOOR = 0.0005


class _Connection:
    """One client connection: mode-aware, write-serialized."""

    __slots__ = ("conn_id", "writer", "mode", "closed", "_send_lock")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter, mode: str):
        self.conn_id = conn_id
        self.writer = writer
        self.mode = mode
        self.closed = False
        self._send_lock = asyncio.Lock()

    async def send(self, message: dict[str, Any]) -> bool:
        """Write one message; False when the peer is gone."""
        data = (
            encode_frame(message)
            if self.mode == "frame"
            else encode_line(message)
        )
        async with self._send_lock:
            if self.closed:
                return False
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True
                return False
        return True

    def close(self) -> None:
        self.closed = True
        with contextlib.suppress(Exception):
            self.writer.close()


class _Pending:
    """Bookkeeping for one admitted-but-unanswered request."""

    __slots__ = ("conn", "wire_id", "client", "admitted_at")

    def __init__(
        self, conn: _Connection, wire_id: object, client: object, admitted_at: float
    ):
        self.conn = conn
        self.wire_id = wire_id
        self.client = client
        self.admitted_at = admitted_at


class ScanServer:
    """Asyncio TCP front-end serving scan/rank requests through an engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.Engine` executing the batches;
        the server owns its lifecycle (``shutdown()`` closes it).
    config:
        A :class:`~repro.serve.config.ServeConfig`.
    clock:
        Zero-argument time source for admission stamps and latency
        accounting; defaults to the *engine's* clock so queue-wait
        telemetry and server latencies share one epoch.  Injectable
        for deterministic tests (``injectable-clock`` lint rule).
    trace:
        ``None`` / ``"off"`` / a :class:`~repro.trace.Tracer` — same
        contract as the engine.  Records ``accept``/``admit``/
        ``flush``/``respond`` spans; the engine's ``run_batch`` trees
        appear alongside (they execute on the flush worker thread).

    Usage::

        engine = Engine(max_pending=1024)
        server = ScanServer(engine, ServeConfig(port=0))
        await server.start()     # server.port has the bound port
        ...
        await server.shutdown()
    """

    def __init__(
        self,
        engine: Engine,
        config: ServeConfig | None = None,
        clock: Any = None,
        trace: str | Tracer | None = None,
    ):
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else engine.clock
        self.trace = resolve_trace(trace)
        # a batch window that is always zero: perfbench/serve_child.py reads it
        self.window = types.SimpleNamespace(window=0.0)
        self.governor = ClientGovernor(
            rate=self.config.rate,
            burst=self.config.burst,
            max_inflight=self.config.max_inflight,
        )
        self.counters: dict[str, int] = {
            "connections": 0,
            "http_requests": 0,
            "messages": 0,
            "responses": 0,
            "flushes": 0,
            "protocol_errors": 0,
            "shed_rate_limited": 0,
            "shed_overloaded": 0,
        }
        self.port: int | None = None
        self._conn_ids = itertools.count(1)
        self._conns: dict[int, _Connection] = {}
        self._pending: dict[int, _Pending] = {}
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._flush_task: asyncio.Task[None] | None = None
        self._stats_task: asyncio.Task[None] | None = None
        self._shutdown_task: asyncio.Task[None] | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-flush"
        )
        self._flush_ema: float | None = None
        self._watchdog: Any = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ScanServer":
        """Bind, start accepting, and start the flush loop."""
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_frame_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._flush_task = asyncio.create_task(self._flush_loop())
        if self.config.stats_interval > 0:
            self._stats_task = asyncio.create_task(self._stats_loop())
        # no-op unless a sanitizer scope is active (CI sanitize job,
        # pytest plugin): measures event-loop scheduling stalls
        self._watchdog = start_loop_watchdog()
        return self

    async def wait_closed(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._stopped is not None, "server never started"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Stop accepting, drain admitted work, close the engine.

        Order matters: the flush task finishes (delivering every
        response for work already admitted), then ``Engine.close()``
        answers anything still queued with structured ``shutdown``
        errors, and only then do connections close — so a client that
        got a request admitted always gets *some* response.
        """
        if not self._running:
            return
        self._running = False
        assert self._wake is not None and self._stopped is not None
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._wake.set()
        if self._flush_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._flush_task
        # fail whatever is still queued (none, unless the final flush
        # itself raced a last admission) with structured shutdown errors
        for resp in self.engine.close():
            entry = self._pending.pop(resp.request_id, None)
            if entry is not None and resp.error is not None:
                self.governor.settle(entry.client)
                await entry.conn.send(error_to_wire(entry.wire_id, resp.error))
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
        for conn in list(self._conns.values()):
            conn.close()
        self._conns.clear()
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        self._executor.shutdown(wait=True)
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = next(self._conn_ids)
        self.counters["connections"] += 1
        try:
            first = await reader.readexactly(1)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        if first == b"G":
            await self._handle_http(first, reader, writer)
            return
        mode = "jsonl" if first == b"{" else "frame"
        conn = _Connection(conn_id, writer, mode)
        self._conns[conn_id] = conn
        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        with span("accept", conn=conn_id, mode=mode):
            pass
        try:
            if mode == "jsonl":
                await self._read_jsonl(conn, reader, first)
            else:
                await self._read_frames(conn, reader, first)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._conns.pop(conn_id, None)
            conn.close()
            self.governor.forget(f"conn-{conn_id}")
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _refuse_oversized(self, conn: _Connection, what: str) -> None:
        """Answer a frame or line over the limit; the caller then closes."""
        self.counters["protocol_errors"] += 1
        await conn.send(
            error_to_wire(
                None,
                RequestError(
                    code="bad-message",
                    message=(
                        f"{what} exceeds the "
                        f"{self.config.max_frame_bytes}-byte limit"
                    ),
                    phase="admit",
                ),
            )
        )

    async def _read_jsonl(
        self, conn: _Connection, reader: asyncio.StreamReader, first: bytes
    ) -> None:
        data = first
        while True:
            try:
                data += await reader.readline()
            except ValueError:  # readline's form of LimitOverrunError
                await self._refuse_oversized(conn, "line")
                return
            if not data:
                return
            line = data.strip()
            if line:
                await self._handle_payload(conn, line)
            data = b""

    async def _read_frames(
        self, conn: _Connection, reader: asyncio.StreamReader, first: bytes
    ) -> None:
        header = first + await reader.readexactly(_LEN.size - 1)
        while True:
            (length,) = _LEN.unpack(header)
            if length > self.config.max_frame_bytes:
                await self._refuse_oversized(conn, f"frame of {length} bytes")
                return
            payload = await reader.readexactly(length)
            await self._handle_payload(conn, payload)
            header = await reader.readexactly(_LEN.size)

    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP: ``GET /stats`` → the stats snapshot as JSON."""
        self.counters["http_requests"] += 1
        try:
            try:
                request_line = first + await reader.readline()
                while True:  # drain headers
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
            except ValueError:  # readline's form of LimitOverrunError
                status = "431 Request Header Fields Too Large"
                body = b'{"error": "request line or header over the size limit"}'
            else:
                parts = request_line.decode("latin-1", "replace").split()
                path = parts[1] if len(parts) >= 2 else ""
                if path.split("?")[0].rstrip("/") in ("/stats", ""):
                    status = "200 OK"
                    body = json.dumps(self.stats_snapshot(), indent=2).encode("utf-8")
                else:
                    status = "404 Not Found"
                    body = b'{"error": "unknown path; try GET /stats"}'
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            with contextlib.suppress(ConnectionError):
                await writer.drain()
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    async def _handle_payload(self, conn: _Connection, payload: bytes) -> None:
        self.counters["messages"] += 1
        try:
            message = decode_message(payload, self.config.max_frame_bytes)
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            await conn.send(error_to_wire(exc.wire_id, exc.error))
            return
        mtype = message.get("type", "scan")
        if mtype in ADMIN_TYPES:
            await self._handle_admin(conn, message)
            return
        reply = self._admit(conn, message)
        if reply is not None:
            await conn.send(reply)

    def _retry_after(self) -> float:
        """Shed hint: one smoothed flush, when the queue next drains."""
        return max(self._flush_ema or 0.0, _RETRY_AFTER_FLOOR)

    def _admit(
        self, conn: _Connection, message: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Parse → fairness → enqueue; returns an error reply or None.

        Synchronous on purpose: the admit span opens and closes without
        touching an ``await``, so concurrent connections cannot
        interleave spans on the event-loop thread.
        """
        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        now = self.clock()
        wire_id = message.get("id")
        client = message.get("client") or f"conn-{conn.conn_id}"
        with span("admit", conn=conn.conn_id, client=str(client)):
            try:
                request = parse_request(message)
            except ProtocolError as exc:
                self.counters["protocol_errors"] += 1
                if tracer is not None:
                    tracer.event("rejected", code=exc.error.code)
                return error_to_wire(exc.wire_id, exc.error)
            rejection = self.governor.admit(client, now)
            if rejection is not None:
                code, retry_after = rejection
                if retry_after is None:
                    retry_after = self._retry_after()
                self.counters["shed_rate_limited"] += 1
                self.engine.observe_shed()
                if tracer is not None:
                    tracer.event("shed", code=code, retry_after=retry_after)
                return error_to_wire(
                    wire_id,
                    RequestError(
                        code=code,
                        message=(
                            f"client {client!r} exceeded its rate/in-flight "
                            "budget"
                        ),
                        phase="admit",
                    ),
                    retry_after,
                )
            try:
                self.engine.queue.submit(request)
            except BackpressureError as exc:
                self.governor.settle(client)
                self.counters["shed_overloaded"] += 1
                self.engine.observe_shed()
                retry_after = self._retry_after()
                if tracer is not None:
                    tracer.event("shed", code="overloaded", retry_after=retry_after)
                return error_to_wire(
                    wire_id,
                    RequestError(
                        code="overloaded", message=str(exc), phase="admit"
                    ),
                    retry_after,
                )
            except QueueClosedError:
                self.governor.settle(client)
                return error_to_wire(
                    wire_id,
                    RequestError(
                        code="shutdown",
                        message="server is shutting down",
                        phase="shutdown",
                    ),
                )
            self._pending[request.request_id] = _Pending(conn, wire_id, client, now)
            if tracer is not None:
                tracer.event("admitted", request_id=request.request_id, n=request.n)
        assert self._wake is not None
        self._wake.set()
        return None

    async def _handle_admin(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        wire_id = message.get("id")
        mtype = message["type"]
        if mtype == "ping":
            await conn.send({"id": wire_id, "ok": True, "pong": True})
        elif mtype == "stats":
            await conn.send(
                {"id": wire_id, "ok": True, "stats": self.stats_snapshot()}
            )
        elif mtype == "shutdown":
            if not self.config.allow_shutdown:
                await conn.send(
                    error_to_wire(
                        wire_id,
                        RequestError(
                            code="forbidden",
                            message=(
                                "server was started without allow_shutdown; "
                                "refusing remote shutdown"
                            ),
                            phase="admit",
                        ),
                    )
                )
                return
            await conn.send({"id": wire_id, "ok": True, "stopping": True})
            # detach: shutting down from inside this connection's reader
            # task would deadlock on our own teardown
            self._shutdown_task = asyncio.create_task(self.shutdown())

    # ------------------------------------------------------------------
    # the flush loop
    # ------------------------------------------------------------------

    async def _flush_loop(self) -> None:
        """Flush whenever the queue is non-empty and no flush is running."""
        assert self._wake is not None
        try:
            while self._running:
                self._wake.clear()
                if len(self.engine.queue):
                    await self._flush()
                else:
                    await self._wake.wait()
        finally:
            # shutdown path: one final drain so admitted work completes
            await self._flush()

    async def _flush(self) -> None:
        tracer = self.trace
        span = tracer.span if tracer is not None else null_span
        with span("flush") as flush_span:
            batch = self.engine.queue.drain(self.config.max_batch)
            if tracer is not None and flush_span is not None:
                flush_span.attrs["requests"] = len(batch)
        if not batch:
            return
        self.counters["flushes"] += 1
        t0 = self.clock()
        loop = asyncio.get_running_loop()
        try:
            responses = await loop.run_in_executor(
                self._executor, self.engine.run_batch, batch
            )
        except Exception as exc:
            # run_batch never raises per request; reaching here means the
            # batch as a whole could not run (e.g. backend torn down mid-
            # shutdown).  Answer every member so no client hangs.
            error = RequestError.from_exception(exc, code="execution", phase="execute")
            responses = [
                ScanResponse(
                    request_id=req.request_id,
                    n=req.n,
                    tag=req.tag,
                    ok=False,
                    error=error,
                )
                for req in batch
            ]
        flush_dt = self.clock() - t0
        self._flush_ema = (
            flush_dt
            if self._flush_ema is None
            else 0.8 * self._flush_ema + 0.2 * flush_dt
        )
        now = self.clock()
        outgoing: list[tuple[_Connection, dict[str, Any]]] = []
        with span("respond", responses=len(responses)):
            for resp in responses:
                entry = self._pending.pop(resp.request_id, None)
                if entry is None:  # direct run_batch callers, never ours
                    continue
                latency = max(0.0, now - entry.admitted_at)
                self.engine.observe_response(latency)
                self.governor.settle(entry.client)
                outgoing.append(
                    (entry.conn, response_to_wire(entry.wire_id, resp, latency))
                )
        self.counters["responses"] += len(outgoing)
        for conn, payload in outgoing:
            await conn.send(payload)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``/stats`` payload: engine snapshot + server gauges.

        The engine part is exactly
        :meth:`~repro.engine.engine.EngineStats.snapshot` — the same
        serializer ``repro-c90 batch --stats`` prints.  ``calibration``
        carries the engine's profile provenance and its drift counts
        (``drift: {observations, alerts}``, the engine's
        ``drift_checks``/``drift_alerts``; ``active: false`` while
        routing on the static paper table); see ``docs/calibration.md``.
        """
        return {
            # locked snapshot: the flush worker thread mutates these
            # counters concurrently with the event loop rendering them
            "engine": self.engine.stats_snapshot(),
            "calibration": self.engine.calibration_snapshot(),
            "server": {
                **self.counters,
                "pending": len(self._pending),
                "queued": len(self.engine.queue),
                "fairness": self.governor.snapshot(),
            },
        }

    async def _stats_loop(self) -> None:
        while self._running:
            await asyncio.sleep(self.config.stats_interval)
            print(
                json.dumps({"stats": self.stats_snapshot()}),
                file=sys.stderr,
                flush=True,
            )
