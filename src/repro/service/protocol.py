"""Wire protocol for the live scheduling service.

Every frame is a length-delimited JSON object: a 4-byte big-endian unsigned
length header followed by that many bytes of UTF-8 JSON.  Length-delimited
framing (rather than newline-delimited) keeps payloads free to contain any
JSON — including pretty-printed result documents — and makes torn reads
trivially resumable: :class:`FrameDecoder` buffers partial frames across
``feed()`` calls until the header's byte count has arrived.

Request frames (client → master):

==================  ====================================================
``SUBMIT``          ``{"type": "SUBMIT", "job": <trace-job dict>}`` —
                    one job submission (the same per-job document trace
                    files use, see ``repro.sim.serialization``).
``CLUSTER_EVENT``   ``{"type": "CLUSTER_EVENT", "event": <event dict>}``
                    — one cluster-dynamics event (failure/recovery/
                    scaling, see ``repro.cluster.dynamics``).
``STATUS``          session snapshot (cheap, any time).
``METRICS``         current metrics payload (wall-clock fields excluded,
                    like persisted result documents).
``DRAIN``           ``{"type": "DRAIN", "trace_name": <optional str>}``
                    — close the submission stream, run the simulation to
                    completion, reply ``DRAINED`` with the final result
                    document, and shut the master down.
==================  ====================================================

Reply frames (master → client): ``OK`` (per accepted SUBMIT /
CLUSTER_EVENT), ``STATUS``, ``METRICS``, ``DRAINED`` (carrying the final
result document) and ``ERROR`` (per rejected frame; the connection stays
up — a rejected frame is the *client's* problem, not stream damage).

The framing layer (:func:`encode_frame`, :class:`FrameDecoder`) carries
any RFC 8259 JSON object — both ends reject ``NaN``/``Infinity``.  The key
contract is checked where a frame is received: the master runs
:func:`validate_frame` against :data:`REQUEST_SCHEMAS` on every request,
the client against :data:`REPLY_SCHEMAS` on every reply.
"""

from __future__ import annotations

import json
import math
import struct

from repro.errors import ProtocolError

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: Upper bound on a single frame body.  Generous — a 100k-record DRAINED
#: result document fits — while still catching a corrupted/garbage header
#: before it turns into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Request frame types.
SUBMIT = "SUBMIT"
CLUSTER_EVENT = "CLUSTER_EVENT"
STATUS = "STATUS"
METRICS = "METRICS"
DRAIN = "DRAIN"
# Reply frame types.
OK = "OK"
ERROR = "ERROR"
DRAINED = "DRAINED"


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame (header + compact JSON body).

    ``allow_nan=False`` — NaN/Infinity have no JSON encoding and must not
    leak onto the wire (the metrics layer already maps NaN to null before
    building payloads, matching persisted result documents).
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a dict, got {type(payload).__name__}"
        )
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES="
            f"{MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


def _reject_constant(name: str) -> float:
    raise ProtocolError(f"undecodable frame body: {name} is not RFC 8259 JSON")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ProtocolError(
            f"undecodable frame body: {literal} overflows a double"
        )
    return value


_DECODER = json.JSONDecoder(
    parse_constant=_reject_constant, parse_float=_finite_float
)


class FrameDecoder:
    """Incremental frame decoder with torn-frame buffering.

    Feed it whatever ``recv()`` returned; it yields every frame that is now
    complete and keeps the tail buffered for the next feed.  One decoder
    per connection — frames from different sockets must never share a
    buffer.  Like :func:`encode_frame`, it refuses ``NaN``/``Infinity``,
    including a number literal such as ``1e400`` that overflows to one.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict]:
        self._buf += data
        frames: list[dict] = []
        while True:
            if len(self._buf) < HEADER_BYTES:
                return frames
            (length,) = _HEADER.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame header announces {length} bytes "
                    f"(> MAX_FRAME_BYTES={MAX_FRAME_BYTES}); stream corrupt"
                )
            if len(self._buf) < HEADER_BYTES + length:
                return frames
            body = bytes(self._buf[HEADER_BYTES:HEADER_BYTES + length])
            del self._buf[:HEADER_BYTES + length]
            try:
                payload = _DECODER.decode(body.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                # ValueError covers bad UTF-8, bad JSON and an integer past
                # the interpreter's digit limit; RecursionError, nesting
                # deeper than the C stack allows.  Each is damage to this
                # stream alone.
                raise ProtocolError(f"undecodable frame body: {exc}") from exc
            if not isinstance(payload, dict):
                raise ProtocolError(
                    "frame payload must be a JSON object, got "
                    f"{type(payload).__name__}"
                )
            frames.append(payload)


def error_frame(message: str) -> dict:
    return {"type": ERROR, "error": message}


#: Key contract per frame type and direction: ``(required, optional)``.
#: ``required`` keys must all be present; any key outside
#: ``required | optional`` is a contract violation.  STATUS and METRICS
#: travel both ways with different keys, hence one table per direction.  A
#: frame shape change lands here *and* in the docstring table above.
Schemas = dict[str, tuple[frozenset, frozenset]]
REQUEST_SCHEMAS: Schemas = {
    SUBMIT: (frozenset({"type", "job"}), frozenset()),
    CLUSTER_EVENT: (frozenset({"type", "event"}), frozenset()),
    STATUS: (frozenset({"type"}), frozenset()),
    METRICS: (frozenset({"type"}), frozenset()),
    DRAIN: (frozenset({"type"}), frozenset({"trace_name"})),
}
REPLY_SCHEMAS: Schemas = {
    OK: (
        frozenset({"type"}),
        frozenset({"completed", "event", "job_id", "now"}),
    ),
    STATUS: (frozenset({"type", "status"}), frozenset()),
    METRICS: (frozenset({"type", "metrics"}), frozenset()),
    ERROR: (frozenset({"type", "error"}), frozenset()),
    DRAINED: (
        frozenset({"type", "result"}),
        frozenset({"metrics", "note"}),
    ),
}
REQUEST_TYPES = frozenset(REQUEST_SCHEMAS)


def validate_frame(payload: dict, schemas: Schemas) -> list[str]:
    """Schema problems of one received frame ([] when conformant).

    ``schemas`` is the table of the direction the frame travelled
    (:data:`REQUEST_SCHEMAS` or :data:`REPLY_SCHEMAS`).  Unknown type,
    missing required keys, keys outside the schema, and a non-string
    ``DRAIN.trace_name`` (the one value the master would otherwise have to
    second-guess).
    """
    frame_type = payload.get("type")
    if not isinstance(frame_type, str) or frame_type not in schemas:
        return [f"unknown frame type {frame_type!r}"]
    required, optional = schemas[frame_type]
    problems = [
        f"missing required key {key!r}"
        for key in sorted(required - set(payload))
    ]
    problems.extend(
        f"unexpected key {key!r}"
        for key in sorted(set(payload) - required - optional)
    )
    trace_name = payload.get("trace_name", "")
    if frame_type == DRAIN and not isinstance(trace_name, str):
        problems.append(
            f"trace_name must be a string, got {type(trace_name).__name__}"
        )
    return problems
