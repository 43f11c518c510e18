"""Scheduling-service client: blocking request/reply + trace replay.

:class:`ServiceClient` is the thin daemon side of the master/daemon
protocol — one blocking TCP connection, one frame out, one frame back.
``replay()`` is the load generator built on top of it: it merges a trace
and an optional cluster-event schedule into a single time-ordered frame
stream and plays it against a master, either as fast as the master acks
(virtual-clock mode — the deterministic CI path) or paced against wall
time scaled by ``speed``.
"""

from __future__ import annotations

import socket
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.cluster.dynamics import ClusterEvent, event_to_dict
from repro.errors import ProtocolError
from repro.service import protocol
from repro.sim.serialization import trace_job_to_dict
from repro.sim.trace import Trace, TraceJob

_RECV_BYTES = 65536


class ServiceClient:
    """Blocking request/reply client for a scheduling-service master.

    Usable as a context manager::

        with ServiceClient(port=port) as client:
            client.submit_job(tj)
            doc = client.drain()["result"]
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int,
        timeout: float | None = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._decoder = protocol.FrameDecoder()

    # -- lifecycle -----------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- core request/reply --------------------------------------------
    def request(self, payload: dict) -> dict:
        """Send one frame and block for the master's reply frame.

        An ``ERROR`` reply raises :class:`ProtocolError` with the master's
        message, as does a reply that fails
        :func:`~repro.service.protocol.validate_frame`; any other reply is
        returned as a dict.
        """
        sock = self.connect()._sock
        assert sock is not None
        sock.sendall(protocol.encode_frame(payload))
        while True:
            data = sock.recv(_RECV_BYTES)
            if data == b"":
                raise ProtocolError(
                    "master closed the connection before replying "
                    f"(request type {payload.get('type')!r})"
                )
            frames = self._decoder.feed(data)
            if frames:
                if len(frames) > 1:
                    raise ProtocolError(
                        f"expected one reply frame, got {len(frames)}"
                    )
                reply = frames[0]
                problems = protocol.validate_frame(reply)
                if problems:
                    raise ProtocolError(
                        f"malformed reply to {payload.get('type')!r}: "
                        + "; ".join(problems)
                    )
                if reply["type"] == protocol.ERROR:
                    raise ProtocolError(reply["error"])
                return reply

    # -- frame helpers -------------------------------------------------
    def submit_job(self, tj: TraceJob) -> dict:
        return self.request(
            {"type": protocol.SUBMIT, "job": trace_job_to_dict(tj)}
        )

    def post_event(self, event: ClusterEvent) -> dict:
        return self.request(
            {"type": protocol.CLUSTER_EVENT, "event": event_to_dict(event)}
        )

    def status(self) -> dict:
        return self.request({"type": protocol.STATUS})["status"]

    def metrics(self) -> dict:
        return self.request({"type": protocol.METRICS})["metrics"]

    def drain(self, trace_name: str | None = None) -> dict:
        """Close the stream and run to completion; returns the DRAINED
        frame (``result`` key holds the final result document)."""
        payload: dict = {"type": protocol.DRAIN}
        if trace_name is not None:
            payload["trace_name"] = trace_name
        return self.request(payload)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """What a replay pushed through the master."""

    jobs: int
    events: int
    result: dict | None


def merged_frames(
    trace: Trace, events: Sequence[ClusterEvent] = ()
) -> Iterable[tuple[float, TraceJob | ClusterEvent]]:
    """Trace jobs and cluster events in submission order.

    Jobs sort before events at equal timestamps — the same tie the batch
    engine breaks by admitting arrivals before applying dynamics within a
    round, so a streamed replay reproduces the batch order.
    """
    items: list[tuple[float, int, TraceJob | ClusterEvent]] = [
        (tj.submit_time, 0, tj) for tj in trace
    ]
    items.extend((ev.time, 1, ev) for ev in events)
    items.sort(key=lambda entry: (entry[0], entry[1]))
    return [(t, item) for t, _, item in items]


def replay(
    trace: Trace,
    client: ServiceClient,
    *,
    events: Sequence[ClusterEvent] = (),
    speed: float | None = None,
    drain: bool = True,
    log: Callable[[str], None] | None = None,
) -> ReplayReport:
    """Stream a trace (and optional cluster events) into a master.

    ``speed=None`` replays in virtual time: frames go out as fast as the
    master acknowledges them, and the master's virtual clock makes the
    session byte-identical to a batch run of the same trace.  A positive
    ``speed`` paces frames against wall time (simulated seconds per wall
    second) for real-time-mode masters.

    With ``drain=True`` (default) the stream is closed afterwards and the
    final result document is returned in the report.
    """
    emit = log if log is not None else (lambda message: None)
    frames = list(merged_frames(trace, events))
    origin = None
    if speed is not None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        origin = _time.monotonic()  # repro-lint: disable=RPL001 -- load-generator pacing against a real-time master; never on a persisted-artifact path
    jobs = events_sent = 0
    for t, item in frames:
        if origin is not None:
            lead = t / speed - (_time.monotonic() - origin)  # repro-lint: disable=RPL001 -- load-generator pacing against a real-time master; never on a persisted-artifact path
            if lead > 0:
                _time.sleep(lead)
        if isinstance(item, TraceJob):
            client.submit_job(item)
            jobs += 1
        else:
            client.post_event(item)
            events_sent += 1
    emit(f"streamed {jobs} jobs, {events_sent} cluster events")
    result_doc = None
    if drain:
        reply = client.drain(trace.name)
        result_doc = reply.get("result")
        emit("drained: session complete")
    return ReplayReport(jobs=jobs, events=events_sent, result=result_doc)
