"""Scheduling-service master: selector-based non-blocking frame loop.

One master owns one live :class:`~repro.sim.engine.Simulator` session
(``start(stream=True)``) and speaks the length-delimited JSON protocol in
``repro.service.protocol`` over TCP.  The shape follows Uberun's SSmaster:
a single-threaded ``selectors`` loop, per-client receive buffers, explicit
daemon-lost handling (an EOF or send failure drops the client and its
half-received frame without disturbing the session), and object-per-frame
dispatch.

Two clock modes (see ``repro.service.clock``):

* **Virtual** — simulated time advances only via push-then-
  ``step(until=t)`` on each SUBMIT / CLUSTER_EVENT frame.  A client that
  streams a trace in submit order reproduces the batch ``run()`` byte for
  byte; this is the deterministic CI mode.
* **Real time** — the selector wakes on ``poll_interval`` and steps the
  engine to ``clock.now()`` (wall seconds × speed); frame timestamps
  behind the clock are clamped to "now" (arrival order is the semantics).

Every request is checked against ``protocol.REQUEST_SCHEMAS`` before it
is dispatched: an unknown type, a missing or stray key, or a non-string
``DRAIN.trace_name`` earns an ERROR reply and the connection stays up.

A DRAIN frame closes the stream, runs the session to completion, replies
``DRAINED`` with the final result document (wall-clock fields excluded,
like every persisted result), and shuts the master down — the clean-exit
path the CI soak job asserts.

Backpressure: a client's unsent replies are bounded.  While more than
``OUTBUF_LIMIT`` bytes wait for it, the master stops reading from that
client and handling its already-decoded frames (they queue in order); it
resumes once the client has read the buffer back under the limit.  The
buffer therefore never exceeds the limit by more than one reply frame, and
other clients are served meanwhile.
"""

from __future__ import annotations

import math
import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.cluster.dynamics import event_from_dict
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.service import protocol
from repro.service.clock import RealTimeClock, VirtualClock
from repro.sim.engine import Simulator
from repro.sim.metrics import SimulationResult
from repro.sim.serialization import result_to_dict, trace_job_from_dict

_RECV_BYTES = 65536
#: Unsent reply bytes per client above which the master stops reading it.
OUTBUF_LIMIT = 4 * 1024 * 1024


def metrics_payload(result: SimulationResult) -> dict:
    """The METRICS frame body: the persisted-document subset of a result.

    Deliberately excludes the wall-clock perf fields
    (``sim_wall_seconds``, ``fit_wall_seconds``, ``policy_wall_seconds``) —
    service metrics follow the same contract as persisted result
    documents: a deterministic function of the submitted work, never of
    host speed (DESIGN.md item 28).
    """
    return {
        "policy_name": result.policy_name,
        "trace_name": result.trace_name,
        "completed": len(result.records) + result.dropped_records,
        "sim_rounds": result.sim_rounds,
        "policy_invocations": result.policy_invocations,
        "policy_skips": result.policy_skips,
        "cluster_events": result.cluster_events,
        "evictions": result.evictions,
        "incidents": len(result.incidents),
        "summary": {
            k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in result.summary().items()
        },
    }


@dataclass
class _Client:
    sock: socket.socket
    addr: str
    decoder: protocol.FrameDecoder = field(
        default_factory=protocol.FrameDecoder
    )
    outbuf: bytearray = field(default_factory=bytearray)
    #: Decoded frames not handled yet (held back while ``outbuf`` is full).
    pending: deque[dict] = field(default_factory=deque)

    @property
    def backlogged(self) -> bool:
        return len(self.outbuf) > OUTBUF_LIMIT


class ServiceMaster:
    """One listening socket + one live simulation session."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: VirtualClock | RealTimeClock | None = None,
        tenants: dict | None = None,
        log: Callable[[str], None] | None = None,
    ):
        self.simulator = simulator
        self.host = host
        self.port = port
        self.tenants = tenants
        self.clock = clock if clock is not None else VirtualClock()
        self._log = log if log is not None else (lambda message: None)
        self._sel: selectors.BaseSelector | None = None
        self._server: socket.socket | None = None
        self._clients: dict[socket.socket, _Client] = {}
        self._result: SimulationResult | None = None
        self._frames_handled = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, port_file: str | Path | None = None) -> tuple[str, int]:
        """Open the listening socket and the simulation session.

        Returns the bound ``(host, port)`` (``port=0`` requests an
        ephemeral port; the real one is returned and, when ``port_file``
        is given, written there for clients to discover).
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._server = listener
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, data=None)
        self.simulator.start(stream=True, tenants=self.tenants)
        if port_file is not None:
            Path(port_file).write_text(f"{self.port}\n")
        self._log(
            f"serving policy {self.simulator.policy.name!r} on "
            f"{self.host}:{self.port} ({self.clock.describe()} clock)"
        )
        return self.host, self.port

    def close(self) -> None:
        for client in list(self._clients.values()):
            self._drop(client.sock, "shutdown")
        if self._server is not None:
            if self._sel is not None:
                self._sel.unregister(self._server)
            self._server.close()
            self._server = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None

    def serve_forever(self) -> SimulationResult | None:
        """Run until a DRAIN frame completes; returns the final result.

        A SimulationError raised by the engine mid-stream (deadlock, policy
        escalation, max_sim_time) propagates after a best-effort ERROR
        frame to every client — ``repro serve`` then exits non-zero.
        """
        if self._sel is None:
            self.bind()
        assert self._sel is not None
        self.clock.start()
        try:
            while self._result is None or self._pending_output():
                events = self._sel.select(self.clock.poll_interval)
                if not self.clock.virtual and self._result is None:
                    sim_now = self.clock.now()
                    if sim_now is not None:
                        self._step_to(sim_now)
                for key, _mask in events:
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data)
                if self._result is not None and not self._clients:
                    break
        except SimulationError as exc:
            self._broadcast_error(f"simulation failed: {exc}")
            raise
        finally:
            self.close()
        return self._result

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        assert self._server is not None and self._sel is not None
        conn, addr = self._server.accept()
        conn.setblocking(False)
        client = _Client(sock=conn, addr=f"{addr[0]}:{addr[1]}")
        self._clients[conn] = client
        self._sel.register(conn, selectors.EVENT_READ, data=client)
        self._log(f"client connected: {client.addr}")

    def _drop(self, sock: socket.socket, reason: str) -> None:
        client = self._clients.pop(sock, None)
        if client is None:
            return
        if self._sel is not None:
            try:
                self._sel.unregister(sock)
            except KeyError:
                pass
        try:
            sock.close()
        except OSError:
            pass
        torn = client.decoder.pending_bytes
        suffix = f" ({torn} bytes of a torn frame discarded)" if torn else ""
        self._log(f"client lost: {client.addr} — {reason}{suffix}")

    def _service(self, client: _Client) -> None:
        """One readable/writable event on an established connection."""
        try:
            data = None if client.backlogged else client.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            data = None
        except OSError as exc:
            self._drop(client.sock, f"recv failed: {exc}")
            return
        if data == b"":
            # Daemon-lost: EOF mid-session.  The session itself survives —
            # a replacement client can reconnect and continue streaming.
            self._drop(client.sock, "connection closed by peer")
            return
        if data:
            try:
                client.pending.extend(client.decoder.feed(data))
            except ProtocolError as exc:
                # Stream damage is unrecoverable per-connection: tell the
                # client why (best effort) and drop it.
                self._send(client, protocol.error_frame(str(exc)))
                self._drop(client.sock, f"protocol error: {exc}")
                return
        # Handle queued frames until the queue empties or the replies back
        # up; a backlogged client keeps EVENT_WRITE, which resumes it here.
        while client.sock in self._clients:
            if client.outbuf:
                self._flush(client)
            if not client.pending or client.backlogged:
                break
            self._handle(client, client.pending.popleft())
            self._frames_handled += 1

    def _send(self, client: _Client, payload: dict) -> None:
        client.outbuf += protocol.encode_frame(payload)
        self._flush(client)

    def _flush(self, client: _Client) -> None:
        if client.sock not in self._clients:
            return
        while client.outbuf:
            try:
                sent = client.sock.send(client.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._drop(client.sock, f"send failed: {exc}")
                return
            if sent == 0:
                break
            del client.outbuf[:sent]
        if self._sel is not None:
            mask = 0 if client.backlogged else selectors.EVENT_READ
            if client.outbuf:
                mask |= selectors.EVENT_WRITE
            self._sel.modify(client.sock, mask, data=client)

    def _pending_output(self) -> bool:
        return any(c.outbuf for c in self._clients.values())

    def _broadcast_error(self, message: str) -> None:
        for client in list(self._clients.values()):
            try:
                self._send(client, protocol.error_frame(message))
            except (ProtocolError, OSError):
                pass

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _handle(self, client: _Client, frame: dict) -> None:
        kind = frame.get("type")
        if not isinstance(kind, str) or kind not in protocol.REQUEST_TYPES:
            self._send(
                client,
                protocol.error_frame(
                    f"unknown frame type {kind!r}; expected one of "
                    + ", ".join(sorted(protocol.REQUEST_TYPES))
                ),
            )
            return
        problems = protocol.validate_frame(frame, protocol.REQUEST_SCHEMAS)
        if problems:
            self._send(
                client,
                protocol.error_frame(f"{kind} rejected: {'; '.join(problems)}"),
            )
            return
        if kind == protocol.SUBMIT:
            self._handle_submit(client, frame)
        elif kind == protocol.CLUSTER_EVENT:
            self._handle_cluster_event(client, frame)
        elif kind == protocol.STATUS:
            self._send(
                client,
                {"type": protocol.STATUS, "status": self.simulator.status()},
            )
        elif kind == protocol.METRICS:
            self._send(
                client,
                {
                    "type": protocol.METRICS,
                    "metrics": metrics_payload(self.simulator.result()),
                },
            )
        else:
            self._handle_drain(client, frame)

    def _handle_submit(self, client: _Client, frame: dict) -> None:
        sim = self.simulator
        try:
            tj = trace_job_from_dict(frame["job"])
            tj = sim.submit(tj, clamp=not self.clock.virtual)
        except SimulationError:
            raise
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self._send(
                client, protocol.error_frame(f"SUBMIT rejected: {exc}")
            )
            return
        if self.clock.virtual:
            # Insert-before-step: the clock lands exactly on the arrival
            # and stops; the admission round runs on the next frame's step
            # — the order of rounds is byte-identical to a batch replay.
            report = sim.step(until=tj.submit_time)
        else:
            report = sim.step(until=self.clock.now())
        self._send(
            client,
            {
                "type": protocol.OK,
                "job_id": tj.job_id,
                "now": report.now,
                "completed": self._completed(),
            },
        )

    def _handle_cluster_event(self, client: _Client, frame: dict) -> None:
        sim = self.simulator
        try:
            event = event_from_dict(frame["event"])
            event = sim.post_cluster_event(
                event, clamp=not self.clock.virtual
            )
        except SimulationError:
            raise
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self._send(
                client, protocol.error_frame(f"CLUSTER_EVENT rejected: {exc}")
            )
            return
        if self.clock.virtual:
            report = sim.step(until=event.time)
        else:
            report = sim.step(until=self.clock.now())
        self._send(
            client,
            {"type": protocol.OK, "now": report.now, "event": event.kind},
        )

    def _handle_drain(self, client: _Client, frame: dict) -> None:
        sim = self.simulator
        sim.drain(frame.get("trace_name"))
        wall = 0.0
        rounds = 0
        report = sim.step(until=float("inf"))
        wall += report.wall_seconds
        rounds += report.rounds
        while not report.done:
            report = sim.step(until=float("inf"))
            wall += report.wall_seconds
            rounds += report.rounds
        result = sim.result()
        self._result = result
        rate = rounds / wall if wall > 0 else 0.0
        self._log(
            f"drained: {len(result.records) + result.dropped_records} jobs, "
            f"{result.sim_rounds} rounds ({self._frames_handled + 1} frames; "
            f"drain leg {rounds} rounds at {rate:.0f} events/s)"
        )
        try:
            doc = result_to_dict(result)
        except ValueError as exc:
            # max_records retention dropped records: the full document
            # cannot be built, ship the metrics payload instead.
            self._send(
                client,
                {
                    "type": protocol.DRAINED,
                    "result": None,
                    "metrics": metrics_payload(result),
                    "note": str(exc),
                },
            )
            return
        self._send(client, {"type": protocol.DRAINED, "result": doc})

    # ------------------------------------------------------------------
    # Engine stepping
    # ------------------------------------------------------------------
    def _completed(self) -> int:
        result = self.simulator.result()
        return len(result.records) + result.dropped_records

    def _step_to(self, sim_time: float) -> None:
        """Real-time mode: advance the engine to the clock's reading."""
        self.simulator.step(until=sim_time)


def serve(
    simulator: Simulator,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    clock: VirtualClock | RealTimeClock | None = None,
    tenants: dict | None = None,
    port_file: str | Path | None = None,
    log: Callable[[str], None] | None = None,
) -> SimulationResult | None:
    """Run a scheduling-service master to completion (blocking).

    Binds, serves frames until a DRAIN completes, and returns the final
    :class:`SimulationResult` (None if the loop exits without a drain).
    """
    master = ServiceMaster(
        simulator, host=host, port=port, clock=clock, tenants=tenants, log=log
    )
    master.bind(port_file=port_file)
    return master.serve_forever()
