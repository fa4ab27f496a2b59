"""Wire protocol: length-prefixed frames, JSONL, and ``/stats``.

The serving front-end speaks three self-identifying dialects on one
port, distinguished by the first byte of the connection:

* a control byte (``0x00``–``0x1f``) — **length-prefixed frames**: a 4-byte big-endian
  body length followed by the body, a compact UTF-8 JSON header
  optionally followed by raw array sections (layout below).  The
  bench client's default.  (A legal body is far below 2\\ :sup:`29`
  bytes, so the first byte of a frame is always a control byte —
  which no JSON text and no HTTP method starts with.)
* ``{`` — **JSONL**: one JSON object per ``\\n``-terminated line, arrays
  as JSON number lists.  The ``netcat``-friendly dialect.
* ``G`` — a minimal **HTTP GET**: ``GET /stats`` returns the engine's
  :meth:`~repro.engine.engine.EngineStats.snapshot` (plus the server's
  own gauges) as ``application/json``, so a browser or ``curl`` can
  watch a running server without a custom client.

Frame layout
------------

::

    frame = u32be(len(body)) ‖ body
    body  = header ‖ [0x00 ‖ section ‖ section …]

``header`` is a compact JSON object.  The array fields ``next``,
``values`` and ``result`` travel as *sections*: the raw C-order,
little-endian bytes of the array, removed from the header and listed
in section order under the reserved key ``"$arrays"`` as
``[field, dtype, shape]`` triples, e.g.
``"$arrays": [["next", "<i8", [1048576]], ["values", "<i8", [1048576]]]``.
A section's dtype is one of :data:`SECTION_DTYPES` (bool, integer and
float, never ``|O``).  The NUL separator cannot split a plain JSON
body — valid UTF-8 JSON never contains a 0x00 byte — so a frame with
no sections is exactly the JSON object, and admin messages, error
replies and plain-JSON clients share one decoder.

:func:`encode_frame` turns ``next`` into a section when
``np.asarray(next, dtype=INDEX_DTYPE)`` succeeds, and ``values`` or
``result`` when ``np.asarray(value)`` yields one of
:data:`SECTION_DTYPES` — the same conversions :func:`parse_request`
applies, so either dialect draws the same reply.  Anything else stays
JSON in the header, where the server's ``bad-field`` checks see it.
:func:`decode_message` checks every section against its header entry
(known field, not repeated, allowed dtype, non-negative shape, bytes
adding up to exactly the rest of the body) and answers ``bad-message``
otherwise; decoded sections are writable ndarrays.
:class:`FrameDecoder`, the client side, hands sections back as lists.

:data:`MAX_FRAME_BYTES` bounds one frame's body (and one JSONL line):
64 MiB of sections — a 2\\ :sup:`22`-node scan with int64 values —
plus 64 KiB of header.

Message shapes
--------------

Request (client → server)::

    {"id": 7, "type": "scan", "next": [1, 2, 2], "head": 0,
     "values": [5, 1, 2], "op": "sum", "inclusive": false,
     "algorithm": "auto"}

``type`` may also be ``"rank"`` (values forced to ones), ``"stats"``
(returns the stats snapshot), ``"ping"``, or ``"shutdown"`` (honored
only when the server was started with ``allow_shutdown``).  ``id`` is
an opaque JSON value echoed on the response.

Response (server → client)::

    {"id": 7, "ok": true, "result": [0, 5, 6], "algorithm": "serial",
     "cached": false, "coalesced": false, "batch_lists": 12, "n": 3,
     "latency": 0.0041}

    {"id": 9, "ok": false,
     "error": {"code": "overloaded", "message": "…",
               "phase": "admit", "exception": null},
     "retry_after": 0.012}

Failures reuse the engine's structured
:class:`~repro.engine.errors.RequestError` — the same shape a
validation failure or a quarantined kernel crash produces — with the
admission-time codes ``bad-message``, ``bad-field``, ``rate-limited``
and ``overloaded`` (see ``engine/errors.py``).  ``retry_after`` rides
next to the error on shed responses.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

import numpy as np

from ..core.list_scan import ALGORITHMS
from ..core.operators import get_operator
from ..engine.errors import RequestError
from ..engine.queue import ScanRequest, ScanResponse
from ..lists.generate import INDEX_DTYPE, LinkedList

__all__ = [
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "encode_line",
    "decode_message",
    "parse_request",
    "response_to_wire",
    "error_to_wire",
    "REQUEST_TYPES",
    "ADMIN_TYPES",
    "ARRAY_FIELDS",
    "SECTION_DTYPES",
    "MAX_FRAME_BYTES",
]

#: Default hard cap on one frame body or JSONL line: 64 MiB of array
#: sections (a 2^22-node scan with int64 values) plus a 64 KiB header.
MAX_FRAME_BYTES = (64 << 20) + (64 << 10)

#: Message types that carry a list-scan problem.
REQUEST_TYPES = ("scan", "rank")

#: Message types handled by the server itself, never queued.
ADMIN_TYPES = ("stats", "ping", "shutdown")

#: Fields a frame may carry as raw array sections, in the order encode_frame writes them.
ARRAY_FIELDS = ("next", "values", "result")

#: The dtypes a section may have: little-endian bool, integers, floats.
SECTION_DTYPES = (
    "|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f2", "<f4", "<f8"
)

#: Reserved header key listing a frame's sections.
_ARRAYS = "$arrays"

_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """A message failed before it could become a :class:`ScanRequest`.

    Carries the structured :class:`RequestError` (code ``bad-message``
    for unparseable bytes, ``bad-field`` for a parseable payload with
    missing/invalid fields) that the server writes back — when it can
    still extract a wire ``id`` to address the reply to.
    """

    def __init__(self, error: RequestError, wire_id: object = None):
        self.error = error
        self.wire_id = wire_id
        super().__init__(f"[{error.code}] {error.message}")


def _bad_message(message: str, wire_id: object = None) -> ProtocolError:
    return ProtocolError(
        RequestError(code="bad-message", message=message, phase="admit"),
        wire_id,
    )


def _bad_field(message: str, wire_id: object = None) -> ProtocolError:
    return ProtocolError(
        RequestError(code="bad-field", message=message, phase="admit"),
        wire_id,
    )


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def _jsonable(obj: object) -> object:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(message: dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":"), default=_jsonable).encode(
        "utf-8"
    )


def _as_section(field: str, raw: object) -> np.ndarray | None:
    """``raw`` as the array :func:`parse_request` builds from it, or
    None when that array cannot travel as a section."""
    try:
        arr = np.asarray(raw, dtype=INDEX_DTYPE) if field == "next" else np.asarray(raw)
    except (TypeError, ValueError, OverflowError):
        return None
    arr = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
    return arr if arr.dtype.str in SECTION_DTYPES else None


def encode_frame(message: dict[str, Any]) -> bytes:
    """One length-prefixed frame; ``next``/``values``/``result`` (lists
    or ndarrays) travel as raw sections when they can.

    The frame is built in one allocation: the sections are copied
    straight from their arrays into the returned bytes.
    """
    header = dict(message)
    specs: list[list[Any]] = []
    sections: list[np.ndarray] = []
    for field in ARRAY_FIELDS:
        if field not in header:
            continue
        arr = _as_section(field, header[field])
        if arr is not None:
            del header[field]
            specs.append([field, arr.dtype.str, list(arr.shape)])
            sections.append(arr)
    if not sections:
        body = _dumps(header)
        return _LEN.pack(len(body)) + body
    header[_ARRAYS] = specs
    head = _dumps(header)
    size = len(head) + 1 + sum(arr.nbytes for arr in sections)
    return b"".join([_LEN.pack(size), head, b"\0", *sections])


def encode_line(message: dict[str, Any]) -> bytes:
    """One JSONL record (newline-terminated UTF-8 JSON; arrays as lists)."""
    return _dumps(message) + b"\n"


def _attach_sections(
    message: dict[str, Any], payload: bytes | bytearray, offset: int
) -> None:
    """Decode the sections from ``payload[offset:]`` into ``message``,
    checked against its ``$arrays`` header entry."""
    wire_id = message.get("id")
    specs = message.pop(_ARRAYS, None)
    if not isinstance(specs, list):
        raise _bad_message(
            f"bytes follow the header, but it has no {_ARRAYS!r} list", wire_id
        )
    for spec in specs:
        if not (isinstance(spec, list) and len(spec) == 3):
            raise _bad_message(
                f"array section {spec!r} is not [field, dtype, shape]", wire_id
            )
        field, dtype, shape = spec
        if field not in ARRAY_FIELDS or field in message:
            raise _bad_message(
                f"array section {field!r} is unknown or repeated", wire_id
            )
        if dtype not in SECTION_DTYPES:
            raise _bad_message(
                f"array section {field!r} has dtype {dtype!r}; allowed: "
                f"{', '.join(SECTION_DTYPES)}",
                wire_id,
            )
        if not (
            isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise _bad_message(
                f"array section {field!r} has shape {shape!r}, not a list of "
                "non-negative integers",
                wire_id,
            )
        itemsize = np.dtype(dtype).itemsize
        count = math.prod(shape)
        if count * itemsize > len(payload) - offset:
            raise _bad_message(
                f"array section {field!r} of shape {shape} runs past the end "
                "of the frame",
                wire_id,
            )
        try:
            arr = np.frombuffer(payload, dtype, count, offset).reshape(shape)
        except ValueError as exc:  # numpy's own dimension limits
            raise _bad_message(
                f"array section {field!r} has an unusable shape: {exc}", wire_id
            ) from exc
        # copy out of the read-only frame bytes: behind a header of any
        # length the view is usually unaligned, and the scans' gathers
        # over an unaligned array cost more than this one copy
        message[field] = arr if arr.flags.writeable else arr.copy()
        offset += count * itemsize
    if offset != len(payload):
        raise _bad_message(
            f"{len(payload) - offset} bytes follow the last array section",
            wire_id,
        )


def decode_message(
    payload: bytes | bytearray, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Parse one frame body or JSONL line into a message.

    Array sections come back as writable ndarrays.  Raises
    :class:`ProtocolError` (``bad-message``) for oversized,
    undecodable, or non-object payloads and for sections that
    disagree with the header.
    """
    if len(payload) > max_bytes:
        raise _bad_message(
            f"message of {len(payload)} bytes exceeds the {max_bytes}-byte limit"
        )
    cut = payload.find(b"\0")
    try:
        message = json.loads((payload if cut < 0 else payload[:cut]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad_message(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise _bad_message(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    if cut >= 0:
        _attach_sections(message, payload, cut + 1)
    return message


class FrameDecoder:
    """Incremental decoder for the length-prefixed dialect.

    Feed raw bytes; iterate complete frames, with array sections
    turned back into lists (so ``feed(encode_frame(m)) == [m]`` for a
    JSON message ``m``).  Used by tests and by clients — the asyncio
    server reads frames directly off its stream with ``readexactly``.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data``; return every now-complete message."""
        self._buf.extend(data)
        out: list[dict[str, Any]] = []
        while len(self._buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buf)
            if length > self.max_bytes:
                raise _bad_message(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_bytes}-byte limit"
                )
            if len(self._buf) < _LEN.size + length:
                break
            # a bytearray slice: sections decode without a second copy
            payload = self._buf[_LEN.size : _LEN.size + length]
            del self._buf[: _LEN.size + length]
            message = decode_message(payload, self.max_bytes)
            for field in ARRAY_FIELDS:
                if isinstance(message.get(field), np.ndarray):
                    message[field] = message[field].tolist()
            out.append(message)
        return out


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------


def _require_int(message: dict[str, Any], field: str, wire_id: object) -> int:
    value = message.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad_field(
            f"field {field!r} must be an integer, got "
            f"{type(value).__name__ if value is not None else 'nothing'}",
            wire_id,
        )
    return value


def _index_array(message: dict[str, Any], wire_id: object) -> np.ndarray:
    try:
        nxt = np.asarray(message.get("next"), dtype=INDEX_DTYPE)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _bad_field(f"field 'next' is not an index array: {exc}", wire_id) from exc
    if nxt.ndim != 1 or not nxt.size:
        raise _bad_field(
            "field 'next' must be a non-empty array of successor indices",
            wire_id,
        )
    return nxt


def parse_request(message: dict[str, Any], tag: object = None) -> ScanRequest:
    """Turn one ``scan``/``rank`` wire message into a :class:`ScanRequest`.

    Only *shape* is checked here (field presence and types; ``next``
    and ``values`` may be JSON lists or decoded sections).  Structural
    problems — out-of-range successors, broken cycles — are refused by
    the scan kernels (``bad-structure``, phase ``execute``), NaN under a
    hostile operator by the engine's probe-time validation; both come
    back as the same ``ok=False`` responses a library caller would see.
    Raises :class:`ProtocolError` (``bad-field``) on shape problems.
    """
    wire_id = message.get("id")
    kind = message.get("type", "scan")
    if kind not in REQUEST_TYPES:
        raise _bad_field(
            f"type must be one of {REQUEST_TYPES} for a request, got {kind!r}",
            wire_id,
        )
    nxt = _index_array(message, wire_id)
    head = _require_int(message, "head", wire_id)
    if not 0 <= head < nxt.shape[0]:
        raise _bad_field(
            f"head {head} out of range for a {nxt.shape[0]}-node list", wire_id
        )

    values = None
    if kind == "scan" and message.get("values") is not None:
        try:
            values = np.asarray(message["values"])
        except (TypeError, ValueError) as exc:
            raise _bad_field(
                f"field 'values' is not a value array: {exc}", wire_id
            ) from exc
        if values.ndim == 0:
            raise _bad_field("field 'values' must be an array", wire_id)
        if values.dtype == object:
            raise _bad_field("field 'values' mixes incompatible types", wire_id)
    # kind == "rank" (or scan without values): LinkedList defaults to
    # all-ones values, which is exactly list ranking

    op_name = message.get("op", "sum")
    try:
        op = get_operator(op_name)
    except (KeyError, ValueError, TypeError) as exc:
        raise _bad_field(f"unknown operator {op_name!r}", wire_id) from exc

    inclusive = message.get("inclusive", False)
    if not isinstance(inclusive, bool):
        raise _bad_field("field 'inclusive' must be a boolean", wire_id)

    algorithm = message.get("algorithm", "auto")
    if algorithm != "auto" and algorithm not in ALGORITHMS:
        raise _bad_field(
            f"unknown algorithm {algorithm!r}; expected 'auto' or one of "
            f"{ALGORITHMS}",
            wire_id,
        )

    try:
        lst = LinkedList(nxt, head, values)
    except Exception as exc:  # shape/dtype coercion failures
        raise _bad_field(f"could not build the list: {exc}", wire_id) from exc
    return ScanRequest(
        lst=lst, op=op, inclusive=inclusive, algorithm=algorithm, tag=tag
    )


# ----------------------------------------------------------------------
# response encoding
# ----------------------------------------------------------------------


def _error_payload(error: RequestError) -> dict[str, Any]:
    return {
        "code": error.code,
        "message": error.message,
        "phase": error.phase,
        "exception": error.exception,
    }


def response_to_wire(
    wire_id: object, resp: ScanResponse, latency: float | None = None
) -> dict[str, Any]:
    """Serialize one engine :class:`ScanResponse` for the wire.

    ``result`` stays the engine's ndarray: :func:`encode_frame` writes
    it as a section, :func:`encode_line` as a JSON list.
    """
    if not resp.ok:
        assert resp.error is not None
        return error_to_wire(wire_id, resp.error)
    assert resp.result is not None
    out: dict[str, Any] = {
        "id": wire_id,
        "ok": True,
        "result": resp.result,
        "algorithm": resp.algorithm,
        "cached": resp.cached,
        "coalesced": resp.coalesced,
        "batch_lists": resp.batch_lists,
        "n": resp.n,
    }
    if latency is not None:
        out["latency"] = latency
    return out


def error_to_wire(
    wire_id: object,
    error: RequestError,
    retry_after: float | None = None,
) -> dict[str, Any]:
    """Serialize one structured failure (optionally with a shed hint)."""
    out: dict[str, Any] = {"id": wire_id, "ok": False, "error": _error_payload(error)}
    if retry_after is not None:
        out["retry_after"] = retry_after
    return out
