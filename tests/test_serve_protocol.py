"""Wire-protocol unit tests: framing, parsing, error mapping."""

import json
import struct

import numpy as np
import pytest

from repro.core.list_scan import list_scan
from repro.engine.queue import ScanResponse
from repro.lists.generate import random_list
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_message,
    encode_frame,
    encode_line,
    error_to_wire,
    parse_request,
    response_to_wire,
)


def valid_message(**overrides):
    rng = np.random.default_rng(0)
    lst = random_list(8, rng)
    message = {
        "id": 1,
        "type": "scan",
        "next": lst.next.tolist(),
        "head": int(lst.head),
        "values": list(range(8)),
        "op": "sum",
    }
    message.update(overrides)
    return message


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def test_frame_roundtrip():
    message = {"id": 42, "type": "ping"}
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(message)) == [message]


def test_frame_decoder_handles_partial_and_batched_feeds():
    messages = [{"id": i, "v": "x" * i} for i in range(5)]
    stream = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
        out.extend(decoder.feed(stream[i : i + 3]))
    assert out == messages


def test_frame_decoder_rejects_oversized_frame():
    decoder = FrameDecoder(max_bytes=16)
    with pytest.raises(ProtocolError) as exc_info:
        decoder.feed(encode_frame({"pad": "y" * 100}))
    assert exc_info.value.error.code == "bad-message"


def test_frame_limit_admits_exactly_the_limit():
    limit = 1024
    message = {"id": 1, "type": "ping", "pad": ""}
    message["pad"] = "y" * (limit - len(encode_frame(message)) + 4)
    frame = encode_frame(message)
    assert len(frame) - 4 == limit
    assert FrameDecoder(max_bytes=limit).feed(frame) == [message]
    assert decode_message(frame[4:], limit) == message
    message["pad"] += "y"
    frame = encode_frame(message)
    with pytest.raises(ProtocolError) as exc_info:
        FrameDecoder(max_bytes=limit).feed(frame)
    assert exc_info.value.error.code == "bad-message"
    with pytest.raises(ProtocolError):
        decode_message(frame[4:], limit)


def test_default_limit_admits_a_4m_node_int64_scan():
    n = 1 << 22
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[-1] = n - 1  # the tail self-loops
    values = np.ones(n, dtype=np.int64)
    frame = encode_frame({"id": 1, "next": nxt, "head": 0, "values": values})
    assert len(frame) - 4 <= MAX_FRAME_BYTES
    assert len(frame) > 64 << 20  # the sections alone fill 64 MiB


# ----------------------------------------------------------------------
# array sections
# ----------------------------------------------------------------------


def test_arrays_travel_as_sections_after_a_json_header():
    nxt = np.array([1, 2, 2], dtype=np.int64)
    values = np.array([[1.5, 2.0], [0.5, -1.0], [2.0, 3.0]])
    frame = encode_frame({"id": 7, "next": nxt, "head": 0, "values": values})
    body = frame[4:]
    head, _, sections = body.partition(b"\0")
    assert json.loads(head) == {
        "id": 7,
        "head": 0,
        "$arrays": [["next", "<i8", [3]], ["values", "<f8", [3, 2]]],
    }
    assert sections == nxt.tobytes() + values.tobytes()
    decoded = decode_message(body)
    assert decoded.keys() == {"id", "head", "next", "values"}
    for field, sent in (("next", nxt), ("values", values)):
        got = decoded[field]
        assert got.dtype == sent.dtype and np.array_equal(got, sent)
        assert got.flags.writeable  # copied out of the frame bytes (aligned)
    # the client side turns sections back into lists
    assert FrameDecoder().feed(frame) == [
        {"id": 7, "head": 0, "next": nxt.tolist(), "values": values.tolist()}
    ]


def test_decoded_sections_scan_in_place():
    # the decoded sections are copies out of the frame; the sublist scan
    # runs over them and leaves them as they were sent
    lst = random_list(9000, np.random.default_rng(2))
    frame = encode_frame(
        {"id": 1, "next": lst.next, "head": lst.head, "values": lst.values}
    )
    request = parse_request(decode_message(frame[4:]))
    result = list_scan(request.lst, "sum", algorithm="sublist")
    assert np.array_equal(result, list_scan(lst, "sum", algorithm="serial"))
    assert np.array_equal(request.lst.next, lst.next)  # only read


def test_list_arrays_round_trip_through_the_client_decoder():
    message = valid_message()
    message["values"] = [True, False] * 4
    assert b"$arrays" in encode_frame(message)
    assert FrameDecoder().feed(encode_frame(message)) == [message]


def test_frame_without_arrays_is_plain_json():
    for message in (
        {"id": 42, "type": "ping"},
        {"id": 1, "ok": False, "error": {"code": "bad-field"}},
        # arrays that cannot be sections stay JSON in the header
        {"id": 2, "next": ["a", "b"], "values": [1, None]},
        {"id": 3, "next": [2**70, 0], "values": np.array(["x", "y"])},
    ):
        body = json.dumps(message, separators=(",", ":"), default=np.ndarray.tolist)
        assert encode_frame(message) == struct.pack(">I", len(body)) + body.encode()


def test_pretty_printed_json_frame_decodes():
    message = {"id": 1, "type": "scan", "next": [1, 1], "head": 0}
    body = json.dumps(message, indent=2).encode()
    assert b"\n" in body
    assert FrameDecoder().feed(struct.pack(">I", len(body)) + body) == [message]


_EIGHT = np.arange(8, dtype=np.int64).tobytes()


def _body(specs, sections=_EIGHT, **header):
    """A frame body with id 5; ``specs=None`` leaves out ``$arrays``."""
    header = {"id": 5, **header}
    if specs is not None:
        header["$arrays"] = specs
    return json.dumps(header).encode() + b"\0" + sections


MALFORMED = {
    "truncated": _body([["next", "<i8", [8]]], _EIGHT[:-1]),
    "trailing-bytes": _body([["next", "<i8", [8]]], _EIGHT + b"\0"),
    "dtype-object": _body([["next", "|O", [8]]]),
    "dtype-str": _body([["next", "<U1", [16]]]),
    "dtype-big-endian": _body([["next", ">i8", [8]]]),
    "dtype-complex": _body([["next", "<c16", [4]]]),
    "negative-shape": _body([["next", "<i8", [-8]]]),
    "bool-shape": _body([["next", "<i8", [True]]], _EIGHT[:8]),
    "shape-not-list": _body([["next", "<i8", 8]]),
    "shape-overflow": _body([["next", "<i8", [2**40, 2**40]]]),
    "dim-overflow": _body([["next", "<i8", [0, 2**70]]], b""),
    "size-overflow": _body([["next", "<i8", [0, 2**62]]], b""),
    "unknown-field": _body([["payload", "<i8", [8]]]),
    "duplicate-section": _body([["next", "<i8", [4]], ["next", "<i8", [4]]]),
    "section-and-header": _body([["next", "<i8", [8]]], next=[1]),
    "spec-not-triple": _body([["next", "<i8"]]),
    "arrays-not-list": _body({"next": "<i8"}),
    "no-arrays-key": _body(None),
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_sections_are_bad_messages(body):
    with pytest.raises(ProtocolError) as exc_info:
        decode_message(body)
    assert exc_info.value.error.code == "bad-message"
    assert exc_info.value.wire_id == 5  # the header parsed: reply is addressed


def test_jsonl_roundtrip():
    message = {"id": 7, "type": "stats"}
    line = encode_line(message)
    assert line.endswith(b"\n")
    assert decode_message(line.strip()) == message


@pytest.mark.parametrize(
    "payload",
    [b"not json at all", b"\xff\xfe\x00", b"[1, 2, 3]", b'"just a string"'],
)
def test_decode_message_rejects_garbage(payload):
    with pytest.raises(ProtocolError) as exc_info:
        decode_message(payload)
    assert exc_info.value.error.code == "bad-message"
    assert exc_info.value.error.phase == "admit"


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------


def test_parse_request_builds_equivalent_scan_request():
    message = valid_message()
    request = parse_request(message)
    assert request.lst.next.tolist() == message["next"]
    assert request.lst.values.tolist() == message["values"]
    assert request.op.name == "sum"
    assert request.inclusive is False
    assert request.algorithm == "auto"


def test_parse_rank_defaults_to_unit_values():
    message = valid_message(type="rank")
    message.pop("values")
    request = parse_request(message)
    assert request.lst.values.tolist() == [1] * 8


@pytest.mark.parametrize(
    "mutation",
    [
        {"type": "frobnicate"},
        {"next": None},
        {"next": []},
        {"next": [[0, 1], [1, 0]]},
        {"next": ["a", "b"]},
        {"head": None},
        {"head": "zero"},
        {"head": 99},
        {"head": -1},
        {"head": True},
        {"values": "not-a-list"},
        {"values": ["a", 1, None]},
        {"op": "no-such-op"},
        {"inclusive": "yes"},
        {"algorithm": "quantum"},
    ],
    ids=lambda m: f"{next(iter(m))}={next(iter(m.values()))!r}"[:40],
)
def test_parse_request_rejects_bad_fields(mutation):
    message = valid_message(**mutation)
    with pytest.raises(ProtocolError) as exc_info:
        parse_request(message)
    error = exc_info.value.error
    assert error.code == "bad-field"
    assert error.phase == "admit"
    assert exc_info.value.wire_id == message.get("id")


# ----------------------------------------------------------------------
# response encoding
# ----------------------------------------------------------------------


def test_response_to_wire_success_shape():
    rng = np.random.default_rng(1)
    lst = random_list(16, rng)
    result = list_scan(lst, "sum")
    resp = ScanResponse(
        request_id=3, result=result, algorithm="serial", n=16, batch_lists=4
    )
    wire = response_to_wire("abc", resp, latency=0.002)
    # the engine's ndarray itself: encode_frame writes it as a section
    assert wire.pop("result") is result
    assert wire == {
        "id": "abc",
        "ok": True,
        "algorithm": "serial",
        "cached": False,
        "coalesced": False,
        "batch_lists": 4,
        "n": 16,
        "latency": 0.002,
    }


def test_error_responses_carry_structured_error_and_retry_after():
    message = valid_message(head=99)
    with pytest.raises(ProtocolError) as exc_info:
        parse_request(message)
    wire = error_to_wire(exc_info.value.wire_id, exc_info.value.error, 0.012)
    assert wire["ok"] is False
    assert wire["id"] == 1
    assert wire["error"]["code"] == "bad-field"
    assert wire["error"]["phase"] == "admit"
    assert wire["retry_after"] == 0.012
    # without a hint the key is absent, not null
    assert "retry_after" not in error_to_wire(1, exc_info.value.error)
