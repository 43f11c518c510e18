"""Cluster dynamics: event streams, state transitions, engine integration.

Covers the three layers end to end: the `repro.cluster.dynamics` profiles
(determinism, serialization, registry), the `Cluster.remove_node` /
`add_node` transitions (eviction semantics, down-node invisibility), and
the simulator wiring — evictions re-queue through `_requeue` with cleared
placements, the restart penalty is charged once, lost/goodput GPU-hours
sum to the total, and failure rounds never take the steady-state
short-circuit.  Every policy's result under ``FAIL_AT_1H`` is pinned
absolutely by the ``*-fail-1h-*`` cases of ``tests/data/golden.json``.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
)
from repro.cluster.dynamics import (
    NODE_FAIL,
    NODE_RECOVER,
    SCALE_DOWN,
    SCALE_UP,
    ClusterEvent,
    FixedDynamics,
    NoDynamics,
    RandomFailures,
    ScaleSchedule,
    dynamics_from_dict,
    dynamics_to_dict,
    load_cluster_events,
    resolve_dynamics,
    save_cluster_events,
)
from repro.errors import ClusterDynamicsError, PlacementError
from repro.models import all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler import PerfModelStore
from repro.scheduler.job import JobStatus
from repro.scheduler.registry import POLICIES, make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.events import EventCalendar
from repro.sim.serialization import result_from_dict, result_to_dict
from repro.units import HOUR

CLUSTER = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 11


# ----------------------------------------------------------------------
# Dynamics profiles
# ----------------------------------------------------------------------
class TestDynamicsProfiles:
    def test_event_validation(self):
        with pytest.raises(ClusterDynamicsError):
            ClusterEvent(time=10.0, kind="explode")
        with pytest.raises(ClusterDynamicsError):
            ClusterEvent(time=-1.0, kind=NODE_FAIL, node_id=0)
        with pytest.raises(ClusterDynamicsError):
            ClusterEvent(time=10.0, kind=NODE_FAIL)  # no node_id
        with pytest.raises(ClusterDynamicsError, match="node_id must be >= 0"):
            ClusterEvent(time=10.0, kind=NODE_FAIL, node_id=-1)
        with pytest.raises(ClusterDynamicsError):
            ClusterEvent(time=10.0, kind=SCALE_UP, count=0)

    def test_no_dynamics_is_empty(self):
        assert NoDynamics().events(seed=0, span=1e5, cluster=CLUSTER) == ()

    def test_random_failures_deterministic_and_alternating(self):
        dyn = RandomFailures(mtbf=2 * HOUR, mttr=0.5 * HOUR)
        a = dyn.events(seed=3, span=12 * HOUR, cluster=CLUSTER)
        b = dyn.events(seed=3, span=12 * HOUR, cluster=CLUSTER)
        assert a == b  # pure function of (seed, span, cluster)
        assert a != dyn.events(seed=4, span=12 * HOUR, cluster=CLUSTER)
        assert all(e.time >= 0 for e in a)
        assert list(a) == sorted(a, key=lambda e: e.time)
        # Per node: strictly alternating fail/recover, fail first.
        for node_id in range(CLUSTER.num_nodes):
            kinds = [e.kind for e in a if e.node_id == node_id]
            assert kinds[::2] == [NODE_FAIL] * len(kinds[::2])
            assert kinds[1::2] == [NODE_RECOVER] * len(kinds[1::2])

    def test_random_failures_per_node_streams_are_stable(self):
        """Scaling the cluster must not reshuffle other nodes' histories."""
        dyn = RandomFailures(mtbf=2 * HOUR, mttr=0.5 * HOUR)
        small = dyn.events(seed=3, span=12 * HOUR, cluster=CLUSTER)
        big = dyn.events(
            seed=3, span=12 * HOUR, cluster=ClusterSpec(num_nodes=4)
        )
        for node_id in range(CLUSTER.num_nodes):
            assert [e for e in small if e.node_id == node_id] == [
                e for e in big if e.node_id == node_id
            ]

    def test_scale_schedule_events(self):
        dyn = ScaleSchedule(steps=((0.25, 2), (0.75, -1)))
        events = dyn.events(seed=0, span=1000.0, cluster=CLUSTER)
        assert events == (
            ClusterEvent(time=250.0, kind=SCALE_UP, count=2),
            ClusterEvent(time=750.0, kind=SCALE_DOWN, count=1),
        )
        with pytest.raises(ClusterDynamicsError):
            ScaleSchedule(steps=((1.5, 2),))
        with pytest.raises(ClusterDynamicsError):
            ScaleSchedule(steps=((0.5, 0),))

    def test_registry_and_builtins(self):
        assert isinstance(resolve_dynamics("none"), NoDynamics)
        assert isinstance(resolve_dynamics("flaky"), RandomFailures)
        assert isinstance(resolve_dynamics("scaleout-midday"), ScaleSchedule)
        with pytest.raises(ClusterDynamicsError):
            resolve_dynamics("thunderstorm")

    def test_serialization_roundtrip(self):
        for dyn in (
            NoDynamics(),
            RandomFailures(mtbf=3 * HOUR, mttr=600.0),
            ScaleSchedule(steps=((0.1, 1), (0.9, -1))),
            FixedDynamics(fixed_events=(
                ClusterEvent(time=5.0, kind=NODE_FAIL, node_id=1),
                ClusterEvent(time=50.0, kind=NODE_RECOVER, node_id=1),
            )),
        ):
            assert dynamics_from_dict(dynamics_to_dict(dyn)) == dyn

    def test_event_file_roundtrip(self, tmp_path):
        dyn = FixedDynamics(fixed_events=(
            ClusterEvent(time=9.0, kind=SCALE_UP, count=3),
            ClusterEvent(time=2.0, kind=NODE_FAIL, node_id=0),
        ))
        path = tmp_path / "events.json"
        save_cluster_events(dyn, path)
        loaded = load_cluster_events(path)
        assert loaded == dyn  # FixedDynamics sorts at construction
        assert loaded.fixed_events[0].kind == NODE_FAIL
        # The file: prefix resolves through the registry entry point.
        assert resolve_dynamics(f"file:{path}") == dyn
        with pytest.raises(ClusterDynamicsError):
            resolve_dynamics(f"file:{tmp_path}/missing.json")


# ----------------------------------------------------------------------
# Cluster state transitions
# ----------------------------------------------------------------------
class TestClusterTransitions:
    def _cluster_with_jobs(self) -> Cluster:
        cluster = Cluster(CLUSTER)
        cluster.apply("a", Placement({0: ResourceVector(gpus=4, cpus=16)}))
        cluster.apply("b", Placement({
            0: ResourceVector(gpus=2, cpus=8),
            1: ResourceVector(gpus=2, cpus=8),
        }))
        cluster.apply("c", Placement({1: ResourceVector(gpus=6, cpus=24)}))
        return cluster

    def test_remove_node_evicts_whole_placements(self):
        cluster = self._cluster_with_jobs()
        victims = cluster.remove_node(0)
        assert victims == ["a", "b"]  # b spans both nodes -> still a victim
        # The gang is gone everywhere, not just on the failed node.
        assert cluster.placement_of("a").is_empty
        assert cluster.placement_of("b").is_empty
        assert cluster.placement_of("c").total.gpus == 6
        assert not cluster.nodes[0].up

    def test_down_node_is_invisible_to_capacity_queries(self):
        cluster = self._cluster_with_jobs()
        cluster.remove_node(0)
        assert cluster.total.gpus == 8
        assert cluster.num_up_nodes == 1
        assert cluster.free.gpus == 2  # node 1 keeps c's 6
        assert cluster.nodes[0].free.is_zero
        assert cluster.gpu_utilization() == pytest.approx(6 / 8)
        with pytest.raises(PlacementError):
            cluster.apply("d", Placement({0: ResourceVector(gpus=1, cpus=1)}))

    def test_recover_restores_capacity(self):
        cluster = self._cluster_with_jobs()
        cluster.remove_node(0)
        cluster.add_node(0)
        assert cluster.total.gpus == CLUSTER.total_gpus
        assert cluster.free.gpus == CLUSTER.total_gpus - 6
        cluster.apply("d", Placement({0: ResourceVector(gpus=8, cpus=32)}))

    def test_scale_up_appends_fresh_nodes(self):
        cluster = Cluster(CLUSTER)
        new_id = cluster.add_node()
        assert new_id == 2
        assert cluster.total.gpus == 24
        cluster.apply("x", Placement({2: ResourceVector(gpus=8, cpus=32)}))
        assert cluster.placement_of("x").total.gpus == 8

    def test_transition_misuse_raises(self):
        cluster = Cluster(CLUSTER)
        with pytest.raises(ClusterDynamicsError):
            cluster.remove_node(7)  # no such node
        # A negative id must not index from the end of the node list.
        with pytest.raises(ClusterDynamicsError):
            cluster.remove_node(-1)
        with pytest.raises(ClusterDynamicsError):
            cluster.add_node(-1)
        assert all(node.up for node in cluster.nodes)
        assert cluster.total == Cluster(CLUSTER).total
        with pytest.raises(ClusterDynamicsError):
            cluster.add_node(0)  # already up
        cluster.remove_node(0)
        with pytest.raises(ClusterDynamicsError):
            cluster.remove_node(0)  # already down

    def test_all_up_totals_match_spec(self):
        """Live totals are exactly the spec-derived ones when nothing is
        down — the identity every static code path relies on."""
        cluster = Cluster(CLUSTER)
        assert cluster.total == ResourceVector(
            CLUSTER.total_gpus, CLUSTER.total_cpus, CLUSTER.total_host_mem
        )


# ----------------------------------------------------------------------
# Event calendar integration
# ----------------------------------------------------------------------
class TestCalendarClusterEvents:
    def test_cursor_drains_in_order(self):
        events = [
            ClusterEvent(time=t, kind=SCALE_UP) for t in (5.0, 20.0, 20.0, 90.0)
        ]
        cal = EventCalendar([], tick_interval=300.0, cluster_events=events)
        assert cal.has_cluster_events
        assert [e.time for e in cal.pop_cluster_events(20.5)] == [5.0, 20.0, 20.0]
        assert cal.next_event_time(20.5, []) == 90.0  # event beats the tick
        assert [e.time for e in cal.pop_cluster_events(1e9)] == [90.0]
        assert not cal.has_cluster_events
        assert cal.next_event_time(90.0, []) == 390.0  # back to ticks

    def test_clock_stops_exactly_at_event_time(self):
        events = [ClusterEvent(time=123.0, kind=NODE_FAIL, node_id=0)]
        cal = EventCalendar([], tick_interval=300.0, cluster_events=events)
        assert cal.next_event_time(0.0, []) == 123.0


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted():
    """(trace, fitted store) shared by the engine-level dynamics tests."""
    testbed = SyntheticTestbed(CLUSTER, seed=SEED)
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=10, seed=SEED, span=1800.0, cluster=CLUSTER,
            model_weights={"llama-30b": 0.0},
        ),
        testbed,
    )
    store = PerfModelStore()
    for model in all_models():
        if model.name == "llama-30b":
            continue
        perf, _ = build_perf_model(
            testbed, model, model.global_batch_size, seed=SEED
        )
        store.add(perf)
    return trace, store


def _run(policy_name, trace, store, events, *, short_circuit=True, **knobs):
    policy = make_policy(policy_name)
    if not short_circuit:
        # Disarm the steady-state skip: the policy runs on every round.
        policy.steady_state = lambda jobs, ctx: False
    sim = Simulator(
        CLUSTER,
        policy,
        testbed=SyntheticTestbed(CLUSTER, seed=SEED),
        perf_store=store,
        config=EngineConfig(seed=SEED, **knobs),
    )
    return sim.run(trace, cluster_events=events)


#: One failure/recovery mid-trace: lands while several jobs are running.
#: ``test_golden.py`` pins every policy under it (``fail-1h``).
FAIL_AT_1H = (
    ClusterEvent(time=3600.0, kind=NODE_FAIL, node_id=0),
    ClusterEvent(time=5400.0, kind=NODE_RECOVER, node_id=0),
)


class TestEngineDynamics:
    def test_no_events_is_the_static_simulation(self, fitted):
        trace, store = fitted
        static = _run("rubick", trace, store, None)
        empty = _run("rubick", trace, store, ())
        assert static.records == empty.records
        assert static.cluster_events == 0 and static.evictions == 0

    def test_failure_evicts_requeues_and_completes(self, fitted):
        trace, store = fitted
        result = _run("rubick", trace, store, FAIL_AT_1H)
        assert result.cluster_events == 2
        assert result.evictions > 0
        # Every job still completes (the node comes back).
        assert len(result.records) == len(trace)
        assert result.total_restarts == result.evictions
        evicted = [r for r in result.records if r.restart_count]
        assert evicted
        # Evicted jobs paid the restart penalty on top of the delta.
        assert all(r.reconfig_count >= 1 for r in evicted)

    def test_lost_plus_goodput_is_total(self, fitted):
        trace, store = fitted
        result = _run("rubick", trace, store, FAIL_AT_1H)
        assert result.lost_gpu_hours >= 0.0
        assert result.lost_gpu_hours + result.goodput_gpu_hours == (
            pytest.approx(result.total_gpu_hours, rel=1e-12)
        )

    def test_failure_round_never_short_circuits(self, fitted):
        """An eviction round must invoke the policy even if the previous
        round reached a steady-state fixed point."""
        trace, store = fitted
        static = _run("antman", trace, store, None)
        assert static.policy_skips > 0  # antman steady-states quickly
        dynamic = _run("antman", trace, store, FAIL_AT_1H)
        # The dynamics rounds (and the post-eviction reshuffling) ran the
        # policy: jobs were evicted and still all completed.
        assert dynamic.evictions > 0
        assert len(dynamic.records) == len(trace)

    def test_eviction_clears_placement_mid_run(self, fitted):
        """Inspect the live state right after the failure round."""
        trace, store = fitted
        sim = Simulator(
            CLUSTER, make_policy("rubick"),
            testbed=SyntheticTestbed(CLUSTER, seed=SEED),
            perf_store=store, config=EngineConfig(seed=SEED),
        )
        cluster = Cluster(CLUSTER)
        calendar = EventCalendar([], 300.0)
        from repro.cluster.placement import Placement as P
        from repro.cluster.resources import ResourceVector as RV
        from repro.scheduler.job import Job, JobSpec
        from repro.models import GPT2
        from repro.plans import ExecutionPlan
        from repro.sim.metrics import SimulationResult

        spec = JobSpec(
            job_id="v", model=GPT2, global_batch=GPT2.global_batch_size,
            requested=RV(gpus=2, cpus=8),
            initial_plan=ExecutionPlan(dp=2, ga_steps=8),
            total_samples=1e5, submit_time=0.0,
        )
        job = Job(spec=spec, status=JobStatus.RUNNING)
        job.start_time = 0.0
        job.placement = P({0: RV(gpus=2, cpus=8)})
        job.plan = spec.initial_plan
        job.throughput = 10.0
        job.samples_done = 500.0  # progress since the (implicit) checkpoint
        cluster.apply("v", job.placement)
        result = SimulationResult(policy_name="p", trace_name="t")
        sim._apply_cluster_event(
            ClusterEvent(time=100.0, kind=NODE_FAIL, node_id=0),
            cluster, {"v": job}, 100.0, calendar, result,
        )
        assert job.status == JobStatus.QUEUED
        assert job.placement.is_empty and job.plan is None
        assert job.throughput == 0.0
        assert cluster.placement_of("v").is_empty
        assert job.restart_count == 1 and result.evictions == 1
        # Progress rolled back to the checkpoint; the held GPU-seconds that
        # produced it are charged as lost: 2 GPUs x (500 samples / 10/s).
        assert job.samples_done == 0.0
        assert job.lost_gpu_seconds == pytest.approx(2 * 50.0)
        assert job.pending_restart_penalty == sim.config.restart_penalty

    def test_restart_penalty_is_lost_not_reconfig_overhead(self, fitted):
        """The penalty tail of a restart pause must not inflate the
        reconfiguration metrics: a policy that merely suffered evictions
        would otherwise read as reconfiguring more aggressively."""
        trace, store = fitted
        no_penalty = _run(
            "rubick", trace, store, FAIL_AT_1H, restart_penalty=0.0
        )
        with_penalty = _run(
            "rubick", trace, store, FAIL_AT_1H, restart_penalty=600.0
        )
        assert no_penalty.evictions == with_penalty.evictions > 0
        # Reconfig *time* per pause is capped by count x delta in both runs
        # (the 600 s penalty tails land in lost, not reconfig_seconds).
        for r in with_penalty.records:
            assert r.reconfig_seconds <= r.reconfig_count * 78.0 + 1e-6
        # And the penalty run lost strictly more GPU-hours.
        assert with_penalty.lost_gpu_hours > no_penalty.lost_gpu_hours
        assert with_penalty.lost_gpu_hours + with_penalty.goodput_gpu_hours \
            == pytest.approx(with_penalty.total_gpu_hours, rel=1e-12)

    def test_scale_up_expands_and_scale_down_evicts(self, fitted):
        trace, store = fitted
        events = (
            ClusterEvent(time=1200.0, kind=SCALE_UP, count=1),
            ClusterEvent(time=3600.0, kind=SCALE_DOWN, count=1),
        )
        result = _run("rubick", trace, store, events)
        assert result.cluster_events == 2
        assert len(result.records) == len(trace)
        assert result.evictions > 0

    def test_recovery_disarms_the_deadlock_guard(self, fitted):
        """All nodes down with jobs queued must wait for the recovery, not
        raise the cannot-place SimulationError."""
        trace, store = fitted
        events = (
            ClusterEvent(time=600.0, kind=NODE_FAIL, node_id=0),
            ClusterEvent(time=601.0, kind=NODE_FAIL, node_id=1),
            ClusterEvent(time=3 * 3600.0, kind=NODE_RECOVER, node_id=0),
            ClusterEvent(time=3 * 3600.0, kind=NODE_RECOVER, node_id=1),
        )
        result = _run("rubick", trace, store, events)
        assert len(result.records) == len(trace)
        assert result.evictions > 0

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_fast_path_byte_identical_under_dynamics(self, fitted, policy_name):
        """A post-failure round with the steady-state skip armed (diff-apply,
        completion-hint heap, memos) reproduces the run that invokes the
        policy on every round byte for byte."""
        trace, store = fitted
        fast = _run(policy_name, trace, store, FAIL_AT_1H)
        reference = _run(
            policy_name, trace, store, FAIL_AT_1H, short_circuit=False
        )
        assert fast.records == reference.records  # exact float equality
        assert fast.makespan == reference.makespan
        assert fast.evictions == reference.evictions
        assert fast.cluster_events == reference.cluster_events
        assert reference.policy_skips == 0


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestDynamicsSerialization:
    def test_dynamic_result_roundtrip(self, fitted):
        trace, store = fitted
        result = _run("rubick", trace, store, FAIL_AT_1H)
        doc = result_to_dict(result)
        assert doc["cluster_events"] == result.cluster_events
        assert doc["evictions"] == result.evictions
        assert "goodput_gpu_h" in doc["summary"]
        loaded = result_from_dict(doc)
        assert loaded.records == result.records
        assert loaded.evictions == result.evictions
        assert loaded.cluster_events == result.cluster_events
        assert loaded.lost_gpu_hours == result.lost_gpu_hours

    def test_nan_sla_serializes_as_null_json(self, fitted):
        """Documents must stay RFC-8259 valid: NaN travels as null."""
        import json
        import math

        trace, store = fitted
        result = _run("rubick", trace, store, FAIL_AT_1H)
        record = result.records[0]
        object.__setattr__(record, "sla_ratio", float("nan"))
        doc = result_to_dict(result)
        json.dumps(doc, allow_nan=False)  # raises on any NaN token
        loaded = result_from_dict(json.loads(json.dumps(doc)))
        assert math.isnan(loaded.records[0].sla_ratio)
        assert loaded.records[1:] == result.records[1:]

    def test_static_documents_carry_no_dynamics_keys(self, fitted):
        trace, store = fitted
        doc = result_to_dict(_run("rubick", trace, store, None))
        assert "cluster_events" not in doc and "evictions" not in doc
        assert "goodput_gpu_h" not in doc["summary"]
        for record in doc["records"]:
            assert "restart_count" not in record
            assert "lost_gpu_seconds" not in record
        # Legacy loads default the fields.
        loaded = result_from_dict(doc)
        assert loaded.cluster_events == 0 and loaded.evictions == 0
