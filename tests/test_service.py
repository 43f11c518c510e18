"""Live scheduling service: framing, step()/run() equivalence, streaming.

The contracts pinned here:

* **Wire framing** — length-delimited JSON frames round-trip through
  :class:`FrameDecoder` at every possible tear point, and stream damage
  (oversized header, undecodable body, a ``NaN``/``Infinity`` literal or
  a number that overflows to one, non-object payload, nesting or an integer past the decoder's limits)
  raises :class:`ProtocolError` instead of desyncing silently or killing
  the master; a fuzz test feeds it arbitrary chunks.
* **step() ≡ run()** — driving the engine with incremental ``step()``
  slices (one round at a time, arbitrary ``until`` cuts, or one
  ``step(inf)``) produces result documents byte-identical to ``run()``.
* **Streamed ≡ batch** — pushing the same jobs/events mid-flight through
  ``submit``/``post_cluster_event`` + ``step(until=t)`` (and through real
  sockets via master/client) reproduces the batch run byte for byte in
  virtual-clock mode.
* **Engine config** — knobs go through a frozen ``EngineConfig``; any
  other ``Simulator`` keyword is a ``TypeError``.
* **Backpressure** — a client that sends without reading stops being read
  once its unsent replies pass ``OUTBUF_LIMIT``, without starving others.
* **Frame schemas** — the master rejects a request that breaks
  ``protocol.REQUEST_SCHEMAS`` with an ERROR and keeps the connection; the
  client raises :class:`ProtocolError` on a reply that breaks
  ``protocol.REPLY_SCHEMAS``.
* **Hostile requests** — a frame carrying ``NaN`` or ``1e400``, a job
  with a non-positive batch, or a job the cluster cannot launch, earns an
  ERROR; the master keeps serving other clients.
  A frame nested too deep to decode drops only its sender.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER
from repro.cluster.dynamics import MAX_SCALE_COUNT, resolve_dynamics
from repro.cluster.topology import ClusterSpec
from repro.errors import ProtocolError
from repro.oracle import SyntheticTestbed
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler.registry import make_policy
from repro.service import (
    FrameDecoder,
    ServiceClient,
    ServiceMaster,
    VirtualClock,
    encode_frame,
    metrics_payload,
    replay,
)
from repro.service import master as master_module
from repro.service import protocol
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import (
    plan_to_dict,
    result_to_dict,
    trace_job_to_dict,
)

SMALL = ClusterSpec(num_nodes=2, node=PAPER_CLUSTER.node)
SEED = 7


def make_sim(policy: str = "rubick", seed: int = SEED) -> Simulator:
    return Simulator(
        SMALL,
        make_policy(policy),
        config=EngineConfig(seed=seed),
        testbed=SyntheticTestbed(SMALL, seed=seed),
    )


@pytest.fixture(scope="module")
def workload():
    """(trace, cluster events) shared by the equivalence tests."""
    testbed = SyntheticTestbed(SMALL, seed=SEED)
    trace = generate_trace(
        WorkloadConfig(num_jobs=10, seed=SEED, name="svc"), testbed
    )
    events = resolve_dynamics("flaky").events(
        seed=1, span=12 * 3600.0, cluster=SMALL
    )
    return trace, events


def doc_of(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, allow_nan=False)


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: 1,000 nested objects: deeper than the JSON decoder's C stack allows.
NESTED_BODY = b'{"a":' * 1000 + b"1" + b"}" * 1000

#: Frame-body fragments: raw bytes, or one JSON-ish token repeated a few
#: times or a few thousand (deep nesting, long integers).
_TOKENS = [b'{"a":', b"[", b"7", b'"s",', b"}", b"\xff"]
_FRAGMENTS = st.one_of(
    st.builds(
        lambda token, n: token * n,
        st.sampled_from(_TOKENS),
        st.one_of(st.integers(0, 8), st.integers(1000, 5000)),
    ),
    st.binary(max_size=32),
)
#: Well-framed bodies, then raw bytes that a header is read from.
FUZZ_STREAMS = st.builds(
    lambda bodies, tail: b"".join(map(framed, bodies)) + tail,
    st.lists(
        st.lists(_FRAGMENTS, min_size=1, max_size=3).map(b"".join),
        min_size=1, max_size=3,
    ),
    st.binary(max_size=8),
)


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "STATUS", "n": 3, "x": [1.5, None, "é"]}
        frames = FrameDecoder().feed(encode_frame(payload))
        assert frames == [payload]

    def test_multiple_frames_one_feed(self):
        payloads = [{"i": i} for i in range(5)]
        blob = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(blob) == payloads

    def test_torn_frames_every_split_point(self):
        payloads = [{"type": "SUBMIT", "job": {"id": "a" * 40}}, {"k": 2}]
        blob = b"".join(encode_frame(p) for p in payloads)
        for split in range(1, len(blob)):
            decoder = FrameDecoder()
            got = decoder.feed(blob[:split]) + decoder.feed(blob[split:])
            assert got == payloads, f"split at byte {split}"
            assert decoder.pending_bytes == 0

    def test_byte_at_a_time(self):
        payload = {"type": "DRAIN", "trace_name": "t"}
        decoder = FrameDecoder()
        got = []
        for i, byte in enumerate(encode_frame(payload)):
            got += decoder.feed(bytes([byte]))
        assert got == [payload]

    def test_oversized_header_is_stream_damage(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            FrameDecoder().feed(header)

    def test_undecodable_body(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(framed(b"{not json"))

    @pytest.mark.parametrize("body", [NESTED_BODY, b"7" * 5000],
                             ids=["nested", "long-int"])
    def test_decoder_limits_are_undecodable(self, body):
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(framed(body))

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]
    )
    def test_non_rfc_constant_is_undecodable(self, literal):
        body = f'{{"type": "SUBMIT", "job": {{"x": {literal}}}}}'.encode()
        with pytest.raises(ProtocolError, match=f"undecodable.*{literal}"):
            FrameDecoder().feed(framed(body))

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            FrameDecoder().feed(framed(b"[1, 2, 3]"))

    def test_encode_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="dict"):
            encode_frame([1, 2])

    def test_encode_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_frame({"x": float("nan")})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_chunks_yield_frames_or_protocol_error(self, data):
        blob = data.draw(FUZZ_STREAMS)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=6)))
        decoder = FrameDecoder()
        for start, end in zip([0, *cuts], [*cuts, len(blob)]):
            try:
                frames = decoder.feed(blob[start:end])
            except ProtocolError:
                return  # stream damage: the master drops this client
            assert all(isinstance(frame, dict) for frame in frames)


# ----------------------------------------------------------------------
# step() ≡ run()
# ----------------------------------------------------------------------
class TestStepRunEquivalence:
    @pytest.mark.parametrize("policy", ["rubick", "sia", "synergy"])
    def test_single_round_steps_match_run(self, workload, policy):
        trace, events = workload
        batch = doc_of(
            make_sim(policy).run(trace, cluster_events=events)
        )
        sim = make_sim(policy)
        sim.start(trace, cluster_events=events)
        rounds = 0
        while True:
            report = sim.step()  # until=None: exactly one round
            rounds += report.rounds
            if report.done:
                break
        assert doc_of(sim.result()) == batch
        assert rounds == sim.result().sim_rounds

    def test_arbitrary_until_cuts_match_run(self, workload):
        trace, events = workload
        batch = doc_of(make_sim().run(trace, cluster_events=events))
        sim = make_sim()
        sim.start(trace, cluster_events=events)
        for cut in (1800.0, 7200.0, 7200.0, 30000.0):  # repeat = no-op
            sim.step(until=cut)
        report = sim.step(until=float("inf"))
        assert report.done
        assert doc_of(sim.result()) == batch

    def test_step_after_done_returns_done_noop(self, workload):
        trace, _ = workload
        sim = make_sim()
        sim.run(trace)
        report = sim.step(until=float("inf"))
        assert report.done and report.rounds == 0

    def test_wall_clock_accrues_per_slice_but_never_persists(self, workload):
        trace, _ = workload
        sim = make_sim()
        sim.start(trace)
        report = sim.step(until=float("inf"))
        assert report.wall_seconds > 0
        result = sim.result()
        assert result.sim_wall_seconds > 0
        doc = result_to_dict(result)
        assert "sim_wall_seconds" not in json.dumps(doc)
        assert "policy_wall_seconds" not in json.dumps(doc)
        assert "fit_wall_seconds" not in json.dumps(doc)
        metrics = metrics_payload(result)
        assert "sim_wall_seconds" not in json.dumps(metrics)
        assert "fit_wall_seconds" not in json.dumps(metrics)
        assert "events_per_second" not in json.dumps(metrics)


# ----------------------------------------------------------------------
# Streamed submissions ≡ batch trace
# ----------------------------------------------------------------------
class TestStreamedDeterminism:
    def test_mid_flight_stream_matches_batch(self, workload):
        trace, events = workload
        batch = doc_of(make_sim().run(trace, cluster_events=events))

        sim = make_sim()
        sim.start(stream=True)
        frames = sorted(
            [(tj.submit_time, 0, tj) for tj in trace]
            + [(ev.time, 1, ev) for ev in events],
            key=lambda f: (f[0], f[1]),
        )
        for t, kind, item in frames:
            if kind == 0:
                sim.submit(item)
            else:
                sim.post_cluster_event(item)
            sim.step(until=t)
        sim.drain(trace_name=trace.name)
        while not sim.step(until=float("inf")).done:
            pass
        assert doc_of(sim.result()) == batch

    def test_duplicate_submit_rejected(self, workload):
        trace, _ = workload
        sim = make_sim()
        sim.start(stream=True)
        sim.submit(trace.jobs[0])
        with pytest.raises(ValueError, match="duplicate"):
            sim.submit(trace.jobs[0])

    def test_submit_behind_clock_needs_clamp(self, workload):
        trace, _ = workload
        jobs = trace.jobs  # already sorted by submit_time
        sim = make_sim()
        sim.start(stream=True)
        sim.submit(jobs[-1])
        sim.step(until=jobs[-1].submit_time + 1.0)
        with pytest.raises(ValueError, match="behind"):
            sim.submit(jobs[0])
        clamped = sim.submit(jobs[0], clamp=True)
        assert clamped.submit_time >= jobs[-1].submit_time


# ----------------------------------------------------------------------
# Master/daemon loopback over real sockets
# ----------------------------------------------------------------------
def start_master(sim, factory=ServiceMaster, **kwargs):
    master = factory(sim, clock=VirtualClock(), **kwargs)
    master.bind()
    thread = threading.Thread(target=master.serve_forever, daemon=True)
    thread.start()
    return master, thread


class TestLoopback:
    def test_replay_matches_batch_and_drains_clean(self, workload):
        trace, events = workload
        batch = doc_of(make_sim().run(trace, cluster_events=events))
        master, thread = start_master(make_sim())
        with ServiceClient(port=master.port) as client:
            status = client.status()
            assert status["state"] == "streaming"
            metrics = client.metrics()
            assert metrics["completed"] == 0
            report = replay(trace, client, events=events)
        thread.join(timeout=60)
        assert not thread.is_alive(), "master did not exit after DRAIN"
        assert report.jobs == len(trace)
        assert json.dumps(report.result, sort_keys=True) == batch

    def test_rejected_frame_keeps_connection_alive(self, workload):
        trace, _ = workload
        master, thread = start_master(make_sim())
        with ServiceClient(port=master.port) as client:
            client.submit_job(trace.jobs[0])
            with pytest.raises(ProtocolError, match="SUBMIT rejected"):
                client.submit_job(trace.jobs[0])  # duplicate job id
            with pytest.raises(ProtocolError, match="unknown frame type"):
                client.request({"type": "BOGUS"})
            # A negative node id is rejected at decode; an id beyond the
            # cluster is accepted, then skipped with an incident when due.
            with pytest.raises(ProtocolError, match="CLUSTER_EVENT rejected"):
                client.request(
                    {"type": "CLUSTER_EVENT",
                     "event": {"time": 0.0, "kind": "fail", "node_id": -1}}
                )
            # So is a scale-up past the bound.  The count is one past it, so
            # were it accepted the step would build a few thousand nodes,
            # not one per count of a hostile frame.
            with pytest.raises(ProtocolError, match="count in"):
                client.request(
                    {"type": "CLUSTER_EVENT",
                     "event": {"time": 0.0, "kind": "scale-up",
                               "count": MAX_SCALE_COUNT + 1}}
                )
            client.request(
                {"type": "CLUSTER_EVENT",
                 "event": {"time": trace.jobs[0].submit_time, "kind": "fail",
                           "node_id": 99}}
            )
            # The connection survived every rejection, and the session
            # still steps.
            client.submit_job(trace.jobs[1])
            assert client.status()["admitted"] >= 0
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        incidents = drained["result"]["incidents"]
        assert [i["kind"] for i in incidents] == ["cluster-event-error"]
        assert "node 99" in incidents[0]["message"]

    def _raw_submit_error(self, trace, field, literal) -> str:
        """Send one SUBMIT with ``field`` set to ``literal`` over a raw
        socket; return the ERROR reply's message once the master has
        shown it still serves (a STATUS, then a clean DRAIN)."""
        master, thread = start_master(make_sim())
        job = json.dumps(trace_job_to_dict(trace.jobs[0]), allow_nan=False)
        before = f'"{field}": {getattr(trace.jobs[0], field)!r}'
        assert before in job
        body = f'{{"type": "SUBMIT", "job": {job}}}'.replace(
            before, f'"{field}": {literal}'
        )
        # The timeout turns a master that died without replying into a
        # failure rather than a hang.
        raw = socket.create_connection(("127.0.0.1", master.port), timeout=30)
        with raw:
            raw.sendall(framed(body.encode()))
            decoder = FrameDecoder()
            replies: list[dict] = []
            while not replies:
                data = raw.recv(65536)
                assert data, "master closed without an ERROR reply"
                replies = decoder.feed(data)
        assert replies[0]["type"] == protocol.ERROR
        with ServiceClient(port=master.port) as client:
            assert client.status()["state"] == "streaming"
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert drained["result"]["summary"]["jobs"] == 0
        return replies[0]["error"]

    def test_nan_submit_time_gets_error_and_master_survives(self, workload):
        trace, _ = workload
        assert "NaN" in self._raw_submit_error(trace, "submit_time", "NaN")

    def test_overflowing_number_gets_error_and_master_survives(
        self, workload
    ):
        trace, _ = workload
        # 1e400 is valid JSON but decodes to inf, which int() cannot take.
        error = self._raw_submit_error(trace, "requested_gpus", "1e400")
        assert "1e400" in error
        # A 401-digit integer decodes, but float() cannot take it.
        error = self._raw_submit_error(trace, "submit_time", "1" + "0" * 400)
        assert "SUBMIT rejected" in error

    @pytest.mark.parametrize("batch", ["0", "-64"])
    def test_non_positive_batch_gets_error_and_master_survives(
        self, workload, batch
    ):
        trace, _ = workload
        error = self._raw_submit_error(trace, "global_batch", batch)
        assert "global_batch must be positive" in error

    def test_infinite_work_gets_error_and_master_survives(self, workload):
        trace, _ = workload
        # A finite duration whose work (duration x throughput) overflows:
        # admitted, it could never finish and would end the session.
        error = self._raw_submit_error(trace, "duration", "1e308")
        assert "total_samples must be finite" in error

    def test_infeasible_submit_is_rejected_before_the_ack(self, workload):
        trace, _ = workload
        master, thread = start_master(make_sim())
        first = trace_job_to_dict(trace.jobs[0])
        rejected = [
            {**first, "requested_gpus": 10**6},
            # Memory-feasible, but twice the 16-GPU cluster.
            {**first, "job_id": "big", "model_name": "gpt2-1.5b",
             "requested_gpus": 32, "global_batch": 128,
             "initial_plan": plan_to_dict(
                 ExecutionPlan(dp=32, zero=ZeroStage.OFFLOAD, gc=True))},
        ]
        with ServiceClient(port=master.port) as client:
            for job in rejected:
                with pytest.raises(ProtocolError, match="SUBMIT rejected"):
                    client.request({"type": protocol.SUBMIT, "job": job})
            client.submit_job(trace.jobs[0])
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert drained["result"]["summary"]["jobs"] == 1

    def test_nested_frame_drops_only_its_sender(self, workload):
        trace, _ = workload
        master, thread = start_master(make_sim())
        raw = socket.create_connection(("127.0.0.1", master.port))
        with raw:
            raw.sendall(framed(NESTED_BODY))
            decoder = FrameDecoder()
            replies: list[dict] = []
            while chunk := raw.recv(65536):
                replies += decoder.feed(chunk)
        # The sender got an ERROR and then EOF: it was dropped.
        assert [r["type"] for r in replies] == [protocol.ERROR]
        assert "undecodable" in replies[0]["error"]
        with ServiceClient(port=master.port) as client:
            client.submit_job(trace.jobs[0])
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert drained["result"]["summary"]["jobs"] == 1

    def test_daemon_lost_mid_frame_does_not_kill_session(self, workload):
        trace, _ = workload
        master, thread = start_master(make_sim())
        # A daemon dies mid-frame: half a SUBMIT then EOF.
        torn = socket.create_connection(("127.0.0.1", master.port))
        blob = encode_frame({"type": "SUBMIT", "job": {}})
        torn.sendall(blob[: len(blob) // 2])
        torn.close()
        # The session is unharmed; a replacement client streams and drains.
        with ServiceClient(port=master.port) as client:
            report = replay(trace, client)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert report.result is not None
        assert report.result["summary"]["jobs"] == len(trace)


# ----------------------------------------------------------------------
# Frame schemas, checked where each frame is received
# ----------------------------------------------------------------------
_REQUESTS = "CLUSTER_EVENT, DRAIN, METRICS, STATUS, SUBMIT"

#: (id, request built from a valid job document, the master's ERROR text)
MALFORMED_REQUESTS = [
    ("submit-extra-key",
     lambda job: {"type": "SUBMIT", "job": job, "priority": "high"},
     "SUBMIT rejected: unexpected key 'priority'"),
    ("status-extra-key",
     lambda job: {"type": "STATUS", "verbose": True},
     "STATUS rejected: unexpected key 'verbose'"),
    ("status-reply-key",
     lambda job: {"type": "STATUS", "status": {}},
     "STATUS rejected: unexpected key 'status'"),
    ("metrics-extra-key",
     lambda job: {"type": "METRICS", "since": 0},
     "METRICS rejected: unexpected key 'since'"),
    ("event-missing",
     lambda job: {"type": "CLUSTER_EVENT"},
     "CLUSTER_EVENT rejected: missing required key 'event'"),
    ("drain-int-name",
     lambda job: {"type": "DRAIN", "trace_name": 5},
     "DRAIN rejected: trace_name must be a string, got int"),
    ("reply-type",
     lambda job: {"type": "OK"},
     f"unknown frame type 'OK'; expected one of {_REQUESTS}"),
    ("unhashable-type",
     lambda job: {"type": ["SUBMIT"], "job": job},
     f"unknown frame type ['SUBMIT']; expected one of {_REQUESTS}"),
]


class TestFrameSchemas:
    """``protocol.REQUEST_SCHEMAS``/``REPLY_SCHEMAS``: the master validates
    every request it receives, the client every reply."""

    def test_every_schema_requires_the_type_key(self):
        for schemas in (protocol.REQUEST_SCHEMAS, protocol.REPLY_SCHEMAS):
            for frame_type, (required, optional) in sorted(schemas.items()):
                assert "type" in required, frame_type
                assert not (required & optional), frame_type

    def test_validate_frame_verdicts(self):
        requests, replies = protocol.REQUEST_SCHEMAS, protocol.REPLY_SCHEMAS
        assert protocol.validate_frame({"type": protocol.STATUS}, requests) == []
        assert protocol.validate_frame(
            {"type": protocol.STATUS, "status": "idle"}, replies
        ) == []
        assert protocol.validate_frame(
            {"type": protocol.STATUS, "status": "idle"}, requests
        ) == ["unexpected key 'status'"]
        assert protocol.validate_frame({"type": protocol.STATUS}, replies) == [
            "missing required key 'status'"
        ]
        assert protocol.validate_frame({"type": "NOPE"}, requests) == [
            "unknown frame type 'NOPE'"
        ]
        assert protocol.validate_frame({"type": protocol.OK}, requests) == [
            "unknown frame type 'OK'"
        ]
        assert protocol.validate_frame({"type": {}}, replies) == [
            "unknown frame type {}"
        ]
        assert protocol.validate_frame(
            {"type": protocol.SUBMIT, "jbo": {}}, requests
        ) == ["missing required key 'job'", "unexpected key 'jbo'"]
        assert protocol.validate_frame(
            {"type": protocol.DRAIN, "trace_name": None}, requests
        ) == ["trace_name must be a string, got NoneType"]

    @pytest.mark.parametrize(
        "build,error",
        [case[1:] for case in MALFORMED_REQUESTS],
        ids=[case[0] for case in MALFORMED_REQUESTS],
    )
    def test_malformed_request_is_rejected_on_a_live_connection(
        self, workload, build, error
    ):
        trace, _ = workload
        job = trace.jobs[0]
        master, thread = start_master(make_sim())
        with ServiceClient(port=master.port) as client:
            with pytest.raises(ProtocolError) as rejected:
                client.request(build(trace_job_to_dict(job)))
            assert str(rejected.value) == error
            # Nothing of the rejected frame was acted on: the same job
            # submits (no duplicate id) and the session drains under the
            # name this connection gives it.
            client.submit_job(job)
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert drained["result"]["trace_name"] == trace.name
        assert drained["result"]["summary"]["jobs"] == 1

    @pytest.mark.parametrize(
        "reply",
        [
            {"type": protocol.OK, "job_id": "j0", "priority": "high"},
            {"type": protocol.ERROR},
            {"type": protocol.DRAINED, "metrics": {}},
            {"type": protocol.STATUS},
            {"type": "NOPE"},
        ],
        ids=["stray-key", "error-without-text", "drained-without-result",
             "status-without-status", "unknown-type"],
    )
    def test_malformed_reply_raises_protocol_error(self, reply):
        server = socket.create_server(("127.0.0.1", 0))

        def answer() -> None:
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(encode_frame(reply))

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=server.getsockname()[1], timeout=10) as c:
                with pytest.raises(
                    ProtocolError, match="malformed reply to 'STATUS'"
                ):
                    c.request({"type": protocol.STATUS})
        finally:
            thread.join(timeout=10)
            server.close()

    def test_every_frame_type_is_validated_where_received(
        self, workload, monkeypatch
    ):
        """One record-limited session sends and receives every frame type
        in the registry, and each passes through ``validate_frame`` at its
        receiving end — including the metrics-only DRAINED reply whose
        ``note`` says why the full document could not be built."""
        trace, events = workload
        seen: set[tuple[str, bool]] = set()
        validate = protocol.validate_frame

        def spy(payload: dict, schemas: protocol.Schemas) -> list[str]:
            seen.add((payload["type"], schemas is protocol.REPLY_SCHEMAS))
            return validate(payload, schemas)

        monkeypatch.setattr(protocol, "validate_frame", spy)
        sim = Simulator(
            SMALL,
            make_policy("rubick"),
            config=EngineConfig(seed=SEED, result_record_limit=2),
            testbed=SyntheticTestbed(SMALL, seed=SEED),
        )
        master, thread = start_master(sim)
        with ServiceClient(port=master.port) as client:
            assert client.status()["state"] == "streaming"
            assert client.metrics()["completed"] == 0
            with pytest.raises(ProtocolError, match="unknown frame type"):
                client.request({"type": "BOGUS"})
            replay(trace, client, events=events, drain=False)
            drained = client.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert drained["result"] is None
        assert "records were dropped" in drained["note"]
        assert drained["metrics"]["completed"] == len(trace)
        assert seen == {
            (frame_type, is_reply)
            for is_reply, schemas in (
                (False, protocol.REQUEST_SCHEMAS),
                (True, protocol.REPLY_SCHEMAS),
            )
            for frame_type in schemas
        }


class TestBackpressure:
    """A client that never reads cannot grow the master without bound."""

    def test_unread_replies_pause_reading_without_starving_others(
        self, workload, monkeypatch
    ):
        trace, _ = workload
        limit = 64 * 1024
        monkeypatch.setattr(master_module, "OUTBUF_LIMIT", limit)
        seen = {"outbuf": 0, "pending": 0, "backlogged_events": 0}

        class Probe(ServiceMaster):
            def _accept(self):
                super()._accept()
                # Small fixed kernel buffers, so the replies back up in
                # the master after a few KiB instead of a few MiB.
                for sock in self._clients:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

            def _service(self, client):
                if client.backlogged:
                    seen["backlogged_events"] += 1
                super()._service(client)
                seen["pending"] = max(seen["pending"], len(client.pending))

            def _flush(self, client):
                seen["outbuf"] = max(seen["outbuf"], len(client.outbuf))
                super()._flush(client)

        master, thread = start_master(make_sim(), factory=Probe)
        # ~1 KiB STATUS frames (padded with JSON whitespace after the
        # object, which the decoder skips); every 50th is an unknown type
        # whose ERROR reply names it, so the order of the replies is
        # checkable.
        frames = [
            {"type": f"SEQ{i}" if i % 50 == 0 else protocol.STATUS}
            for i in range(5000)
        ]
        bodies = [json.dumps(f).encode() + b" " * 1000 for f in frames]
        wire = [struct.pack(">I", len(b)) + b for b in bodies]
        blob = b"".join(wire)
        hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        hog.connect(("127.0.0.1", master.port))
        sender = threading.Thread(target=hog.sendall, args=(blob,), daemon=True)
        sender.start()

        deadline = time.monotonic() + 60
        while seen["outbuf"] <= limit and time.monotonic() < deadline:
            time.sleep(0.01)
        assert seen["outbuf"] > limit, "the hog never backed up"
        with ServiceClient(port=master.port, timeout=10) as other:
            assert other.status()["state"] == "streaming"
            time.sleep(0.2)
            # The hog is parked: not read (its sendall is blocked), and
            # not woken either — its selector mask has no EVENT_READ.
            assert sender.is_alive()
            assert seen["backlogged_events"] < 20

            hog.settimeout(30)
            decoder = FrameDecoder()
            replies: list[dict] = []
            # A slow reader wakes the master with EVENT_WRITE while still
            # backlogged; those wakeups must not read more requests.
            for _ in range(40):
                replies += decoder.feed(hog.recv(2048))
                time.sleep(0.005)
            while len(replies) < len(frames):
                chunk = hog.recv(65536)
                assert chunk, "master closed the hog's connection"
                replies += decoder.feed(chunk)
            sender.join(timeout=30)
            assert not sender.is_alive()
            assert [r["type"] for r in replies] == [
                protocol.STATUS if f["type"] == protocol.STATUS
                else protocol.ERROR
                for f in frames
            ]
            markers = [r["error"].split("'")[1] for r in replies
                       if r["type"] == protocol.ERROR]
            assert markers == [f["type"] for f in frames
                               if f["type"] != protocol.STATUS]
            largest = max(len(encode_frame(r)) for r in replies)
            assert seen["outbuf"] <= limit + largest
            # Nothing is read while backlogged: at most one recv queues.
            per_recv = master_module._RECV_BYTES // len(wire[1])
            assert seen["pending"] <= per_recv + 1
            hog.close()
            other.submit_job(trace.jobs[0])
            other.drain(trace.name)
        thread.join(timeout=60)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Engine config: knobs go through EngineConfig only
# ----------------------------------------------------------------------
class TestEngineConfigShim:
    def test_unknown_keyword_is_type_error(self):
        with pytest.raises(TypeError, match="bogus_knob"):
            Simulator(
                SMALL,
                make_policy("rubick"),
                testbed=SyntheticTestbed(SMALL, seed=0),
                bogus_knob=1,
            )

    def test_config_is_frozen(self):
        config = EngineConfig(seed=9)
        with pytest.raises(AttributeError):
            config.seed = 10
