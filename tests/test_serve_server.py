"""Integration tests for the asyncio serving front-end.

Every test runs a real :class:`ScanServer` on an ephemeral loopback
port and talks to it over real sockets.  The engine-side locks are
instrumented with the runtime lock-order checker for the whole suite
(the serving layer drives the engine from an executor thread while
admissions run on the event-loop thread — exactly the interleaving the
audit exists to police).

No pytest-asyncio here: each test owns its loop via ``asyncio.run``.
"""

import asyncio
import json
import struct
import threading

import numpy as np
import pytest

import repro.engine.cache as cache_mod
import repro.engine.engine as engine_mod
import repro.engine.workers as workers_mod
from repro.core.list_scan import list_scan
from repro.engine import Engine
from repro.lint.lockorder import instrumented_locks
from repro.lists.generate import LinkedList, random_list, random_values
from repro.serve import ScanServer, ServeConfig
from repro.serve.client import run_bench
from repro.serve.protocol import FrameDecoder, encode_frame, encode_line
from repro.trace.tracer import Tracer


@pytest.fixture(autouse=True)
def lock_order_audit():
    """Race-audit the whole serve suite: engine locks become checked
    locks while the server suite hammers them from two threads."""
    with instrumented_locks(engine_mod, workers_mod, cache_mod) as graph:
        yield graph
    graph.assert_acyclic()


def make_server(**config_kw):
    config_kw.setdefault("port", 0)
    engine_kw = config_kw.pop("engine_kw", {})
    engine_kw.setdefault("executor", "sync")
    engine_kw.setdefault("max_pending", 1024)
    trace = config_kw.pop("trace", None)
    if trace is not None:  # one tracer sees both layers' spans
        engine_kw.setdefault("trace", trace)
    engine = Engine(**engine_kw)
    return ScanServer(engine, ServeConfig(**config_kw), trace=trace)


class FlushGate:
    """Hold the server's flush worker inside ``run_batch`` until released.

    ``run_batch`` runs on the flush thread, so admission goes on while a
    flush is held; ``sizes`` records the request count of every call.
    """

    def __init__(self, server):
        self.entered = threading.Event()
        self.opened = threading.Event()
        self.sizes = []
        run_batch = server.engine.run_batch

        def gated(batch, *args, **kwargs):
            self.sizes.append(len(batch))
            self.entered.set()
            assert self.opened.wait(timeout=30.0), "flush gate never released"
            return run_batch(batch, *args, **kwargs)

        server.engine.run_batch = gated

    def release(self):
        self.opened.set()


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` from the event loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def scan_message(mid, n, seed, client=None):
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=random_values(n, rng))
    message = {
        "id": mid,
        "type": "scan",
        "next": lst.next.tolist(),
        "head": int(lst.head),
        "values": lst.values.tolist(),
        "op": "sum",
    }
    if client is not None:
        message["client"] = client
    return message, lst


async def framed_exchange(port, messages, expect=None, raw=b""):
    """Send ``raw`` bytes and then frames; read until ``expect`` (default
    len(messages)) replies or EOF."""
    expect = len(messages) if expect is None else expect
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    replies = []
    try:
        writer.write(raw)
        for message in messages:
            writer.write(encode_frame(message))
        await writer.drain()
        while len(replies) < expect:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10.0)
            if not data:
                break
            replies.extend(decoder.feed(data))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies


# ----------------------------------------------------------------------
# correctness under concurrency
# ----------------------------------------------------------------------


def test_concurrent_client_soak_is_bit_identical():
    async def main():
        server = make_server()
        await server.start()
        try:
            report = await run_bench(
                "127.0.0.1",
                server.port,
                clients=6,
                requests=25,
                sizes=(4, 33, 190, 512),
                poison_every=7,
                verify=True,
                seed=3,
            )
        finally:
            await server.shutdown()
        return report, server

    report, server = asyncio.run(main())
    counters = report["counters"]
    total = 6 * 25
    poison = sum(1 for i in range(25) if (i + 1) % 7 == 0) * 6
    assert counters["ok"] == total - poison
    # every healthy result matched list_scan bit for bit
    assert counters["verified"] == counters["ok"]
    assert counters["mismatched"] == 0
    # every poison request came back as a structured error, never a hang
    assert counters["poison_rejected"] == poison
    assert counters["poison_accepted"] == 0
    assert counters["disconnects"] == 0
    assert report["latency"]["count"] > 0
    # the engine saw every request; the server answered every request
    assert server.counters["responses"] == total
    snap = server.engine.stats.snapshot()
    assert snap["latency"]["total"]["count"] == total


def test_jsonl_dialect_and_admin_messages():
    async def main():
        server = make_server()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            message, lst = scan_message(5, 12, seed=1)
            writer.write(encode_line(message))
            writer.write(encode_line({"id": 6, "type": "ping"}))
            await writer.drain()
            replies = {}
            while len(replies) < 2:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                reply = json.loads(line)
                replies[reply["id"]] = reply
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return replies, lst

    replies, lst = asyncio.run(main())
    assert replies[6]["pong"] is True
    scan = replies[5]
    assert scan["ok"] is True
    assert scan["result"] == list_scan(lst, "sum").tolist()
    assert scan["latency"] > 0


def test_http_stats_endpoint():
    async def main():
        server = make_server()
        await server.start()
        try:
            # run one request through so the histograms are non-trivial
            message, _ = scan_message(1, 16, seed=2)
            await framed_exchange(server.port, [message])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return raw

    raw = asyncio.run(main())
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    assert b"application/json" in head
    payload = json.loads(body)
    # the engine half is exactly EngineStats.snapshot (same serializer
    # as `repro-c90 batch --stats`)
    assert payload["engine"]["requests"] == 1
    assert payload["engine"]["latency"]["total"]["count"] == 1
    assert payload["server"]["responses"] == 1
    assert payload["server"]["flushes"] >= 1
    assert payload["server"]["fairness"]["admitted"] == 1


def test_http_unknown_path_is_404():
    async def main():
        server = make_server()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return raw

    assert b"404" in asyncio.run(main()).split(b"\r\n")[0]


def test_malformed_frames_get_structured_errors_and_connection_survives():
    async def main():
        server = make_server()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            decoder = FrameDecoder()
            garbage = b"this is not json"
            writer.write(struct.pack(">I", len(garbage)) + garbage)
            bad_field, _ = scan_message(2, 8, seed=0)
            bad_field["head"] = 999
            writer.write(encode_frame(bad_field))
            good, lst = scan_message(3, 8, seed=0)
            writer.write(encode_frame(good))
            await writer.drain()
            replies = []
            while len(replies) < 3:
                data = await asyncio.wait_for(reader.read(1 << 16), timeout=10.0)
                assert data, "server hung up instead of answering"
                replies.extend(decoder.feed(data))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return replies, lst

    replies, lst = asyncio.run(main())
    by_id = {r["id"]: r for r in replies}
    assert by_id[None]["error"]["code"] == "bad-message"
    assert by_id[2]["error"]["code"] == "bad-field"
    assert by_id[3]["ok"] is True
    assert by_id[3]["result"] == list_scan(lst, "sum").tolist()


def _parity_cases():
    """One table of requests, each sent over both dialects."""
    rng = np.random.default_rng(11)

    def scan(n, values="int", **fields):
        lst = random_list(n, rng)
        message = {"type": "scan", "next": lst.next.tolist(), "head": int(lst.head)}
        if values == "int":
            message["values"] = rng.integers(-1000, 1000, n).tolist()
        elif values is not None:
            message["values"] = values(n)
        message.update(fields)
        return message

    def affine(n):
        return np.stack([rng.integers(1, 3, n), rng.integers(-5, 6, n)], axis=1).tolist()

    big_next = scan(6)
    big_next["next"][0] = 2**70
    return {
        # (message, expected: "ok" or the error code)
        "int64": (scan(300), "ok"),
        "float64": (scan(300, lambda n: rng.standard_normal(n).tolist()), "ok"),
        "bool": (scan(100, lambda n: (rng.random(n) < 0.5).tolist()), "ok"),
        "affine-2d": (scan(200, affine, op="affine"), "ok"),
        "rank": (scan(500, None, type="rank"), "ok"),
        # >= 8,192 nodes: routed to sublist rather than serial
        "sublist-auto": (scan(8192), "ok"),
        "sublist-forced": (scan(9000, algorithm="sublist"), "ok"),
        "float-next": (
            {"type": "scan", "next": [1.0, 2.0, 3.0, 3.0], "head": 0, "values": [1, 2, 3, 4]},
            "ok",
        ),
        "str-values": (scan(5, lambda n: ["x"] * n), "bad-dtype"),
        "none-values": (scan(5, lambda n: [None] * n), "bad-field"),
        "ragged-values": (scan(3, lambda n: [[1, 2], [3], [4, 5]]), "bad-field"),
        "big-int-next": (big_next, "bad-field"),
        "big-int-values": (scan(4, lambda n: [2**70] * n), "bad-field"),
        "empty-next": ({"type": "scan", "next": [], "head": 0}, "bad-field"),
    }


async def _one_at_a_time(port, dialect, messages):
    """Send each message and await its reply before the next, so every
    request runs alone and takes the same route in both dialects."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    decoder = FrameDecoder()
    replies = {}
    try:
        for mid, message in messages.items():
            message = {**message, "id": mid}
            writer.write(encode_frame(message) if dialect == "frame" else encode_line(message))
            await writer.drain()
            got = []
            while not got:
                if dialect == "frame":
                    data = await asyncio.wait_for(reader.read(1 << 20), timeout=10.0)
                    assert data, "server hung up"
                    got = decoder.feed(data)
                else:
                    got = [json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))]
            (reply,) = got
            assert reply["id"] == mid
            replies[mid] = reply
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


def test_frame_and_jsonl_dialects_give_identical_replies():
    cases = _parity_cases()
    messages = {name: message for name, (message, _) in cases.items()}

    async def main():
        server = make_server()
        await server.start()
        try:
            framed = await _one_at_a_time(server.port, "frame", messages)
            lines = await _one_at_a_time(server.port, "jsonl", messages)
        finally:
            await server.shutdown()
        return framed, lines

    framed, lines = asyncio.run(main())
    for name, (message, expected) in cases.items():
        f, j = framed[name], lines[name]
        assert f["ok"] == j["ok"], name
        if not f["ok"]:
            assert f["error"]["code"] == j["error"]["code"] == expected, name
            continue
        assert expected == "ok", name
        a, b = np.asarray(f["result"]), np.asarray(j["result"])
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # the integer results are the serial oracle's, bit for bit
    for name in ("int64", "rank", "sublist-auto", "sublist-forced", "affine-2d"):
        message = messages[name]
        lst = LinkedList(np.asarray(message["next"]), message["head"], message.get("values"))
        expected = list_scan(lst, message.get("op", "sum"), algorithm="serial")
        assert np.asarray(framed[name]["result"]).tobytes() == expected.tobytes(), name
    assert framed["sublist-auto"]["algorithm"] == framed["sublist-forced"]["algorithm"] == "sublist"


def _malformed_bodies():
    eight = np.arange(8, dtype=np.int64).tobytes()

    def body(specs, sections=eight, **header):
        return json.dumps({"id": "bad", **header, "$arrays": specs}).encode() + b"\0" + sections

    return {
        "truncated": body([["next", "<i8", [8]]], eight[:-3]),
        "trailing": body([["next", "<i8", [8]]], eight + b"xx"),
        "dtype-object": body([["next", "|O", [8]]]),
        "negative-shape": body([["next", "<i8", [-8]]]),
        "shape-overflow": body([["next", "<i8", [2**62, 2**62]]]),
        "unknown-field": body([["payload", "<i8", [8]]]),
        "duplicate-field": body([["values", "<i8", [8]]], values=[1] * 8),
    }


def test_malformed_sections_get_bad_message_and_connection_survives():
    bodies = _malformed_bodies()

    async def main():
        server = make_server()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            decoder = FrameDecoder()
            replies = []
            for payload in bodies.values():
                writer.write(struct.pack(">I", len(payload)) + payload)
                good, lst = scan_message(len(replies), 8, seed=len(replies))
                writer.write(encode_frame(good))
                await writer.drain()
                got = []
                while len(got) < 2:
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=10.0)
                    assert data, "server hung up instead of answering"
                    got.extend(decoder.feed(data))
                replies.append((got, lst))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return replies, server.counters

    replies, counters = asyncio.run(main())
    for name, (got, lst) in zip(bodies, replies):
        bad, good = sorted(got, key=lambda r: r["id"] != "bad")
        assert bad["ok"] is False and bad["error"]["code"] == "bad-message", name
        assert good["ok"] is True, name
        assert good["result"] == list_scan(lst, "sum").tolist(), name
    assert counters["protocol_errors"] == len(bodies)


def _padded_ping(body_bytes):
    message = {"id": 1, "type": "ping", "pad": ""}
    message["pad"] = "y" * (body_bytes - len(encode_frame(message)) + 4)
    return encode_frame(message)


def test_frame_of_exactly_the_limit_is_served_one_byte_over_is_refused():
    limit = 2048

    async def exchange(frame):
        """Send ``frame`` and a ping; read two replies or up to EOF."""
        server = make_server(max_frame_bytes=limit)
        await server.start()
        try:
            ping = {"id": 2, "type": "ping"}
            replies = await framed_exchange(server.port, [ping], expect=2, raw=frame)
        finally:
            await server.shutdown()
        return replies

    frame = _padded_ping(limit)
    assert len(frame) - 4 == limit
    at_limit = asyncio.run(exchange(frame))
    assert [r.get("pong") for r in at_limit] == [True, True]
    over = asyncio.run(exchange(_padded_ping(limit + 1)))
    # refused with a structured error; the ping behind it is never read
    assert len(over) == 1
    assert over[0]["error"]["code"] == "bad-message"
    assert "exceeds the 2048-byte limit" in over[0]["error"]["message"]


@pytest.mark.parametrize(
    "request_bytes, reply_start",
    [
        (
            b'{"id": 1, "pad": "' + b"y" * 4096 + b'"}\n',
            b'{"id":null,"ok":false,"error":{"code":"bad-message",'
            b'"message":"line exceeds the 1024-byte limit"',
        ),
        (
            b"GET /stats HTTP/1.1\r\nX-Pad: " + b"y" * 4096 + b"\r\n\r\n",
            b"HTTP/1.1 431 ",
        ),
    ],
    ids=["jsonl", "http"],
)
def test_oversized_line_is_answered_not_a_crash(request_bytes, reply_start):
    async def main():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        server = make_server(max_frame_bytes=1024)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(request_bytes)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)  # to EOF
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return raw, loop_errors

    raw, loop_errors = asyncio.run(main())
    assert raw.startswith(reply_start)
    assert loop_errors == []


# ----------------------------------------------------------------------
# fairness and shedding
# ----------------------------------------------------------------------


def test_greedy_client_is_limited_while_polite_client_sails_through():
    async def main():
        server = make_server(rate=50.0, burst=5.0)
        await server.start()
        try:
            # greedy: 40 requests in one burst, ignoring retry_after
            greedy = [
                scan_message(i, 8, seed=i, client="greedy")[0]
                for i in range(40)
            ]
            greedy_task = asyncio.ensure_future(
                framed_exchange(server.port, greedy)
            )
            # polite: 5 sequential requests, each awaited
            polite_ok = 0
            for i in range(5):
                message, _ = scan_message(100 + i, 8, seed=i, client="polite")
                (reply,) = await framed_exchange(server.port, [message])
                assert reply["ok"], reply
                polite_ok += 1
            greedy_replies = await greedy_task
        finally:
            await server.shutdown()
        return polite_ok, greedy_replies, server

    polite_ok, greedy_replies, server = asyncio.run(main())
    assert polite_ok == 5
    assert len(greedy_replies) == 40
    limited = [
        r for r in greedy_replies
        if not r["ok"] and r["error"]["code"] == "rate-limited"
    ]
    assert limited, "the greedy burst was never rate-limited"
    for reply in limited:
        assert reply["retry_after"] > 0
    assert server.counters["shed_rate_limited"] == len(limited)
    assert server.engine.stats.shed >= len(limited)


def test_saturation_sheds_with_overloaded_and_bounded_latency():
    async def main():
        server = make_server(engine_kw={"max_pending": 4})
        gate = FlushGate(server)
        await server.start()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            messages = [scan_message(i, 8, seed=i)[0] for i in range(60)]
            held = asyncio.ensure_future(framed_exchange(server.port, messages[:1]))
            await until(gate.entered.is_set)
            rest = asyncio.ensure_future(framed_exchange(server.port, messages[1:]))
            # the flush worker is held: four requests fill the queue and
            # every later one is shed at admission
            await until(lambda: server.counters["shed_overloaded"] == 55)
            gate.release()
            replies = await held + await rest
        finally:
            gate.release()
            await server.shutdown()
        return replies, loop.time() - t0, server

    replies, elapsed, server = asyncio.run(main())
    # every request was answered: no unhandled exception, no hung client
    assert len(replies) == 60
    ok = [r for r in replies if r["ok"]]
    shed = [r for r in replies if not r["ok"]]
    assert len(ok) == 1 + 4  # the held batch + the queue's capacity
    assert len(shed) == 55
    for reply in shed:
        assert reply["error"]["code"] == "overloaded"
        assert reply["error"]["phase"] == "admit"
        # no flush has finished yet: the hint's floor keeps it positive
        assert reply["retry_after"] > 0
    # shed responses return immediately; the whole episode is bounded
    # by the held flush, nowhere near a timeout
    assert elapsed < 5.0
    assert server.counters["shed_overloaded"] == 55
    assert server.engine.stats.snapshot()["shed"] == 55


def test_bench_client_resends_shed_requests_unchanged():
    async def main():
        server = make_server(engine_kw={"max_pending": 2})
        await server.start()
        try:
            return await run_bench(
                "127.0.0.1",
                server.port,
                clients=2,
                requests=12,
                sizes=(16, 40),
                max_outstanding=6,
                seed=5,
            )
        finally:
            await server.shutdown()

    counters = asyncio.run(main())["counters"]
    assert counters["shed"] > 0
    # a resent request is the one its reference result was built for
    assert counters["ok"] == counters["verified"] == 24
    assert counters["mismatched"] == 0


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


def test_shutdown_answers_admitted_work_and_closes_engine():
    async def main():
        server = make_server()
        gate = FlushGate(server)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        decoder = FrameDecoder()
        lists = {}
        for i in range(5):
            message, lst = scan_message(i, 16, seed=i)
            lists[i] = lst
            writer.write(encode_frame(message))
            await writer.drain()
            if i == 0:  # hold the first flush; the rest queue behind it
                await until(gate.entered.is_set)
        await until(lambda: len(server.engine.queue) == 4)
        stopping = asyncio.ensure_future(server.shutdown())  # must drain, not drop
        await asyncio.sleep(0.05)
        gate.release()
        await stopping
        replies = []
        while len(replies) < 5:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10.0)
            if not data:
                break
            replies.extend(decoder.feed(data))
        writer.close()
        return replies, lists, server, gate

    replies, lists, server, gate = asyncio.run(main())
    # admitted work was executed on the way down, results intact
    assert len(replies) == 5
    for reply in replies:
        assert reply["ok"], reply
        expected = list_scan(lists[reply["id"]], "sum")
        assert reply["result"] == expected.tolist()
    assert gate.sizes == [1, 4]
    assert server.engine.queue.closed
    assert len(server._pending) == 0


@pytest.mark.parametrize(
    "max_batch, sizes", [(1024, [5]), (2, [2, 2, 1])], ids=["one-batch", "max-batch-2"]
)
def test_requests_queued_behind_a_flush_form_the_next_batches(max_batch, sizes):
    async def main():
        server = make_server(max_batch=max_batch)
        gate = FlushGate(server)
        await server.start()
        try:
            messages, lists = zip(*(scan_message(i, 16, seed=i) for i in range(6)))
            held = asyncio.ensure_future(framed_exchange(server.port, messages[:1]))
            await until(gate.entered.is_set)
            rest = asyncio.ensure_future(framed_exchange(server.port, messages[1:]))
            await until(lambda: len(server.engine.queue) == 5)
            gate.release()
            replies = await held + await rest
        finally:
            gate.release()
            await server.shutdown()
        return replies, lists, gate, server

    replies, lists, gate, server = asyncio.run(main())
    assert sorted(r["id"] for r in replies) == list(range(6))
    for reply in replies:
        assert reply["ok"], reply
        assert reply["result"] == list_scan(lists[reply["id"]], "sum").tolist()
    # nothing waits for a window: the held flush, then the queue in
    # max_batch slices
    assert gate.sizes == [1, *sizes]
    assert server.counters["flushes"] == 1 + len(sizes)


def test_config_rejects_empty_batches():
    with pytest.raises(ValueError, match="max_batch"):
        ServeConfig(max_batch=0)


def test_remote_shutdown_requires_opt_in():
    async def main():
        server = make_server()  # allow_shutdown defaults to False
        await server.start()
        try:
            (reply,) = await framed_exchange(
                server.port, [{"id": 1, "type": "shutdown"}]
            )
        finally:
            await server.shutdown()
        return reply

    reply = asyncio.run(main())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "forbidden"


def test_remote_shutdown_with_opt_in_stops_the_server():
    async def main():
        server = make_server(allow_shutdown=True)
        await server.start()
        (reply,) = await framed_exchange(
            server.port, [{"id": 1, "type": "shutdown"}]
        )
        await asyncio.wait_for(server.wait_closed(), timeout=10.0)
        return reply, server

    reply, server = asyncio.run(main())
    assert reply["ok"] is True and reply["stopping"] is True
    assert server.engine.queue.closed


def test_traced_server_records_serving_spans():
    async def main():
        tracer = Tracer()
        server = make_server(trace=tracer)
        await server.start()
        try:
            message, _ = scan_message(1, 16, seed=0)
            (reply,) = await framed_exchange(server.port, [message])
            assert reply["ok"]
        finally:
            await server.shutdown()
        return tracer

    tracer = asyncio.run(main())
    names = {span.name for root in tracer.roots for span in root.walk()}
    for expected in ("accept", "admit", "flush", "respond", "run_batch"):
        assert expected in names, f"missing {expected} span (got {names})"
