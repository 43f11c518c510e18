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
any JSON object; the key contract is checked where a frame is received —
the master runs :func:`validate_frame` on every request, the client on
every reply.
"""

from __future__ import annotations

import json
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

REQUEST_TYPES = frozenset({SUBMIT, CLUSTER_EVENT, STATUS, METRICS, DRAIN})


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


class FrameDecoder:
    """Incremental frame decoder with torn-frame buffering.

    Feed it whatever ``recv()`` returned; it yields every frame that is now
    complete and keeps the tail buffered for the next feed.  One decoder
    per connection — frames from different sockets must never share a
    buffer.
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
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame body: {exc}") from exc
            if not isinstance(payload, dict):
                raise ProtocolError(
                    "frame payload must be a JSON object, got "
                    f"{type(payload).__name__}"
                )
            frames.append(payload)


def error_frame(message: str) -> dict:
    return {"type": ERROR, "error": message}


#: Key contract per frame type: ``(required, optional)``.  ``required``
#: keys must all be present; any key outside ``required | optional`` is a
#: contract violation.  A frame shape change lands here *and* in the
#: docstring table above; :func:`validate_frame` enforces it at both ends
#: of the connection.
FRAME_SCHEMAS: dict[str, tuple[frozenset, frozenset]] = {
    SUBMIT: (frozenset({"type", "job"}), frozenset()),
    CLUSTER_EVENT: (frozenset({"type", "event"}), frozenset()),
    STATUS: (frozenset({"type"}), frozenset({"status"})),
    METRICS: (frozenset({"type"}), frozenset({"metrics"})),
    DRAIN: (frozenset({"type"}), frozenset({"trace_name"})),
    OK: (
        frozenset({"type"}),
        frozenset({"completed", "event", "job_id", "now"}),
    ),
    ERROR: (frozenset({"type", "error"}), frozenset()),
    DRAINED: (
        frozenset({"type", "result"}),
        frozenset({"metrics", "note"}),
    ),
}


def validate_frame(payload: dict) -> list[str]:
    """Schema problems of one received frame ([] when conformant).

    Unknown type, missing required keys, keys outside the schema, and a
    non-string ``DRAIN.trace_name`` (the one value the master would
    otherwise have to second-guess).
    """
    frame_type = payload.get("type")
    if not isinstance(frame_type, str) or frame_type not in FRAME_SCHEMAS:
        return [f"unknown frame type {frame_type!r}"]
    required, optional = FRAME_SCHEMAS[frame_type]
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
