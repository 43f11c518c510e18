"""Discrete-time simulator: lifecycle, penalties, conservation invariants."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, Placement, ResourceVector
from repro.errors import OutOfMemoryError, SimulationError
from repro.models import GPT2
from repro.oracle import SyntheticTestbed
from repro.plans import ExecutionPlan
from repro.scheduler import (
    Allocation,
    JobPriority,
    JobSpec,
    JobStatus,
    rubick,
    rubick_n,
)
from repro.scheduler.job import Job
from repro.scheduler.baselines import SynergyPolicy
from repro.sim import (
    EngineConfig,
    Simulator,
    Trace,
    TraceJob,
    WorkloadConfig,
    generate_trace,
)
from repro.sim.events import EventCalendar
from repro.sim.metrics import SimulationResult

CLUSTER = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 11


def _tiny_trace(testbed, n=8, span=1800.0):
    # LLaMA-30B needs more than this 16-GPU test cluster can profile with
    # the paper's 7-sample minimum; exclude it from the tiny workload.
    return generate_trace(
        WorkloadConfig(
            num_jobs=n, seed=SEED, span=span, cluster=CLUSTER,
            model_weights={"llama-30b": 0.0},
        ),
        testbed,
    )


def _sim(policy, **knobs) -> Simulator:
    return Simulator(
        CLUSTER, policy, testbed=SyntheticTestbed(CLUSTER, seed=SEED),
        config=EngineConfig(seed=SEED, **knobs),
    )


@pytest.fixture(scope="module")
def testbed():
    return SyntheticTestbed(CLUSTER, seed=SEED)


class TestLifecycle:
    def test_all_jobs_complete(self, testbed):
        trace = _tiny_trace(testbed)
        sim = _sim(rubick())
        res = sim.run(trace)
        assert len(res.records) == len(trace)
        assert all(r.finish_time >= r.submit_time for r in res.records)

    def test_makespan_covers_all_jcts(self, testbed):
        trace = _tiny_trace(testbed)
        sim = _sim(SynergyPolicy())
        res = sim.run(trace)
        first_submit = min(r.submit_time for r in res.records)
        assert res.makespan == pytest.approx(
            max(r.finish_time for r in res.records) - first_submit
        )

    def test_deterministic_replay(self, testbed):
        trace = _tiny_trace(testbed)
        jcts = []
        for _ in range(2):
            sim = _sim(rubick())
            res = sim.run(trace)
            jcts.append(sorted((r.job_id, round(r.jct, 6)) for r in res.records))
        assert jcts[0] == jcts[1]


class TestWorkAccounting:
    def test_single_job_runtime_matches_duration(self, testbed):
        """A lone job at its requested resources with the best plan finishes
        in about its reference duration."""
        model = "gpt2-1.5b"
        job = TraceJob(
            job_id="solo", model_name=model, submit_time=0.0,
            requested_gpus=8, duration=1200.0,
            initial_plan=ExecutionPlan(dp=8, ga_steps=2), global_batch=16,
        )
        sim = _sim(rubick())
        res = sim.run(Trace(jobs=(job,)))
        record = res.records[0]
        # Rubick may beat the reference duration (better plan), never by an
        # absurd factor, and should not be slower than ~1.3x of it.
        assert 0.3 * 1200 <= record.jct <= 1.3 * 1200

    def test_gpu_seconds_positive_and_bounded(self, testbed):
        trace = _tiny_trace(testbed)
        sim = _sim(rubick_n())
        res = sim.run(trace)
        for r in res.records:
            assert r.gpu_seconds > 0
            # Cannot exceed the whole cluster for the job's lifetime.
            assert r.gpu_seconds <= CLUSTER.total_gpus * (r.jct + 1e-6)


class TestReconfigurationCosts:
    def test_reconfig_seconds_track_counts(self, testbed):
        trace = _tiny_trace(testbed, n=12, span=900.0)
        sim = _sim(rubick(), reconfig_delta=50.0)
        res = sim.run(trace)
        for r in res.records:
            assert r.reconfig_seconds <= r.reconfig_count * 50.0 + 1e-6

    def test_reconfig_gpu_seconds_use_held_gpus(self, testbed):
        """Pause GPU-seconds are accumulated from the held placement, so
        they are bounded by cluster size × pause time and are positive
        whenever a pause actually happened."""
        trace = _tiny_trace(testbed, n=12, span=900.0)
        sim = _sim(rubick(), reconfig_delta=50.0)
        res = sim.run(trace)
        for r in res.records:
            assert (
                r.reconfig_gpu_seconds
                <= CLUSTER.total_gpus * r.reconfig_seconds + 1e-6
            )
            if r.reconfig_seconds > 0:
                assert r.reconfig_gpu_seconds > 0
        if any(r.reconfig_count for r in res.records):
            assert res.reconfig_gpu_hour_fraction > 0

    def test_sla_ratios_recorded(self, testbed):
        trace = _tiny_trace(testbed)
        sim = _sim(rubick())
        res = sim.run(trace)
        guar = res.by_priority(JobPriority.GUARANTEED)
        assert guar
        assert all(r.sla_ratio > 0 for r in guar)


class TestRequeueStateConsistency:
    """A re-queued job must never keep a stale, non-empty placement."""

    def _running_job(self, job_id="jr") -> tuple[Job, Placement]:
        plan = ExecutionPlan(dp=2, ga_steps=8)
        spec = JobSpec(
            job_id=job_id, model=GPT2, global_batch=GPT2.global_batch_size,
            requested=ResourceVector(gpus=2, cpus=8, host_mem=0.0),
            initial_plan=plan, total_samples=1e5, submit_time=0.0,
        )
        job = Job(spec=spec)
        placement = Placement({0: ResourceVector(gpus=2, cpus=8)})
        job.status = JobStatus.RUNNING
        job.start_time = 0.0
        job.placement = placement
        job.plan = plan
        job.throughput = 5.0
        return job, placement

    def _sim_and_cluster(self, job, placement):
        sim = _sim(rubick_n())
        cluster = Cluster(CLUSTER)
        cluster.apply(job.job_id, placement)
        return sim, cluster

    @staticmethod
    def _sinks() -> tuple[EventCalendar, SimulationResult]:
        """A fresh calendar and result for a direct ``_apply`` call."""
        return EventCalendar([], 300.0), SimulationResult("p", "t")

    def _assert_clean_requeue(self, job, cluster, now):
        assert job.status == JobStatus.QUEUED
        assert job.placement.is_empty
        assert job.plan is None
        assert job.throughput == 0.0
        assert job.last_queue_enter == now
        assert cluster.placement_of(job.job_id).is_empty

    def test_failed_launch_clears_placement(self):
        """Over-committed placement -> PlacementError -> clean requeue."""
        job, placement = self._running_job()
        sim, cluster = self._sim_and_cluster(job, placement)
        too_big = Placement(
            {0: ResourceVector(gpus=CLUSTER.node.num_gpus + 1, cpus=1)}
        )
        sim._apply({job.job_id: Allocation(too_big, job.plan)}, [job],
                   cluster, 100.0, *self._sinks())
        self._assert_clean_requeue(job, cluster, 100.0)

    def test_oom_launch_clears_placement(self):
        job, placement = self._running_job()
        sim, cluster = self._sim_and_cluster(job, placement)

        def boom(*args, **kwargs):
            raise OutOfMemoryError("plan does not fit")

        sim.testbed.true_throughput = boom
        # `_apply` skips an unchanged configuration without re-querying
        # ground truth, so hand it a changed one (a CPU-only resize).
        resized = Placement({0: ResourceVector(gpus=2, cpus=4)})
        sim._apply({job.job_id: Allocation(resized, job.plan)}, [job],
                   cluster, 200.0, *self._sinks())
        self._assert_clean_requeue(job, cluster, 200.0)

    def test_preemption_clears_placement(self):
        job, placement = self._running_job()
        sim, cluster = self._sim_and_cluster(job, placement)
        sim._apply({}, [job], cluster, 300.0, *self._sinks())
        self._assert_clean_requeue(job, cluster, 300.0)

    def test_node_failure_eviction_clears_placement(self):
        """Cluster-dynamics eviction goes through the same clean requeue."""
        from repro.cluster.dynamics import ClusterEvent, NODE_FAIL

        job, placement = self._running_job()
        sim, cluster = self._sim_and_cluster(job, placement)
        result = SimulationResult(policy_name="p", trace_name="t")
        sim._apply_cluster_event(
            ClusterEvent(time=400.0, kind=NODE_FAIL, node_id=0),
            cluster, {job.job_id: job}, 400.0,
            EventCalendar([], 300.0), result, {job.job_id: 0.0},
        )
        self._assert_clean_requeue(job, cluster, 400.0)
        assert job.restart_count == 1
        assert job.pending_restart_penalty == sim.config.restart_penalty
        assert result.evictions == 1
        assert not cluster.nodes[0].up


class TestOomUnderScaleAndDynamics:
    """Launch-time OOM requeue across loop modes and cluster dynamics.

    The transient-OOM requeue (``_apply``'s narrow ``OutOfMemoryError``
    handler) is normal operation, not a fault: both simulator loops must
    absorb it without incidents, stale placements, or lost jobs — also
    while dynamics evict and restore a node mid-trace.
    """

    @pytest.fixture(scope="class")
    def fitted_store(self):
        """Pre-fitted models so profiling never touches the flaky oracle."""
        from repro.models import all_models
        from repro.oracle import build_perf_model
        from repro.scheduler import PerfModelStore

        testbed = SyntheticTestbed(CLUSTER, seed=SEED)
        store = PerfModelStore()
        for model in all_models():
            if model.name == "llama-30b":
                continue
            perf, _ = build_perf_model(
                testbed, model, model.global_batch_size
            )
            store.add(perf)
        return store

    def _events(self):
        from repro.cluster.dynamics import (
            ClusterEvent,
            NODE_FAIL,
            NODE_RECOVER,
        )

        return (
            ClusterEvent(time=900.0, kind=NODE_FAIL, node_id=1),
            ClusterEvent(time=1800.0, kind=NODE_RECOVER, node_id=1),
        )

    @pytest.mark.parametrize("scale_mode", [False, True],
                             ids=["default-loop", "scale-loop"])
    @pytest.mark.parametrize("dynamic", [False, True],
                             ids=["static", "dynamics"])
    def test_transient_oom_requeues_and_completes(
        self, fitted_store, scale_mode, dynamic
    ):
        import sys

        testbed = SyntheticTestbed(CLUSTER, seed=SEED)
        trace = _tiny_trace(testbed, n=8, span=1800.0)
        sim = Simulator(
            CLUSTER, rubick_n(), testbed=testbed, perf_store=fitted_store,
            config=EngineConfig(seed=SEED, scale_mode=scale_mode),
        )
        real = sim.scorer.true_throughput
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            # Only the launch-time query (`_apply`) is OOM-requeued;
            # admission-time SLA baselines must keep seeing the real
            # oracle.  Raising at the wrapper also keeps the scorer's
            # infeasibility memo unpoisoned, so the retry can succeed.
            if sys._getframe(1).f_code.co_name == "_apply":
                calls["n"] += 1
                if calls["n"] <= 3:
                    raise OutOfMemoryError("transient launch OOM")
            return real(*args, **kwargs)

        sim.scorer.true_throughput = flaky
        events = self._events() if dynamic else ()
        res = sim.run(trace, cluster_events=events)
        # The first launches OOM'd (the oracle really was exercised past
        # its flaky prefix), yet every job finished with clean state.
        assert calls["n"] > 3
        assert len(res.records) == len(trace)
        assert all(r.finish_time >= r.submit_time for r in res.records)
        # OOM requeue is normal control flow: no incident recorded.
        assert res.incidents == []
        if dynamic:
            assert res.cluster_events == len(events)


@pytest.mark.parametrize("scale_mode", [False, True],
                         ids=["default-loop", "scale-loop"])
class TestContainmentBothLoops:
    """Policy containment, escalation and the deadlock guard hold in both
    loops (they share one copy of each phase)."""

    def _sim(self, scale_mode, times=None) -> Simulator:
        from repro.faults import FaultPlan, FaultRule

        injector = None
        if times is not None:
            plan = FaultPlan(
                name="t", rules=(FaultRule("policy-round", times=times),)
            )
            injector = plan.injector("run")
        return Simulator(
            CLUSTER, rubick_n(), testbed=SyntheticTestbed(CLUSTER, seed=SEED),
            config=EngineConfig(seed=SEED, scale_mode=scale_mode),
            injector=injector,
        )

    def test_transient_policy_fault_is_contained(self, testbed, scale_mode):
        trace = _tiny_trace(testbed, n=4)
        res = self._sim(scale_mode, times=(1,)).run(trace)
        assert [i.kind for i in res.incidents] == ["policy-error"]
        assert res.incidents[0].error == "InjectedFault"
        assert len(res.records) == len(trace)

    def test_poisoned_policy_escalates_with_incidents(self, testbed, scale_mode):
        trace = _tiny_trace(testbed, n=4)
        with pytest.raises(SimulationError, match="3 consecutive") as err:
            self._sim(scale_mode, times=(1, 2, 3)).run(trace)
        assert [i.kind for i in err.value.incidents] == ["policy-error"] * 3

    def test_zero_quota_deadlock_names_stuck_jobs(self, testbed, scale_mode):
        from repro.scheduler.interfaces import Tenant

        trace = _tiny_trace(testbed, n=3)
        with pytest.raises(SimulationError, match="cannot place") as err:
            self._sim(scale_mode).run(
                trace, tenants={"default": Tenant("default", gpu_quota=0)}
            )
        (incident,) = err.value.incidents
        assert incident.kind == "deadlock"
        assert set(incident.job_ids) == {tj.job_id for tj in trace}
        for job_id in incident.job_ids:
            assert job_id in incident.message
        assert incident.message == str(err.value)

    def test_overcommitted_placement_is_an_apply_error(
        self, testbed, scale_mode
    ):
        """The cluster rejects a policy's over-committed placement: the
        running job it was meant for goes back to the queue, one
        ``apply-error`` incident names it, and the run still completes."""
        trace = _tiny_trace(testbed, n=4)
        sim = self._sim(scale_mode)
        schedule = sim.policy.schedule
        seen: dict = {}

        def overcommit(jobs, cluster, ctx):
            allocations = schedule(jobs, cluster, ctx)
            if "victim" in seen:
                if "requeued" not in seen:
                    victim = next(j for j in jobs if j.job_id == seen["victim"])
                    seen["requeued"] = (victim.status, victim.placement)
                return allocations
            for job in jobs:
                alloc = allocations.get(job.job_id)
                if job.is_running and alloc is not None:
                    seen["victim"] = job.job_id
                    allocations[job.job_id] = Allocation(
                        placement=Placement(
                            {0: ResourceVector(gpus=99, cpus=1)}
                        ),
                        plan=alloc.plan,
                    )
                    break
            return allocations

        sim.policy.schedule = overcommit
        res = sim.run(trace)
        (incident,) = res.incidents
        assert (incident.kind, incident.error) == ("apply-error", "PlacementError")
        assert incident.job_ids == (seen["victim"],)
        assert seen["requeued"] == (JobStatus.QUEUED, Placement.empty())
        assert len(res.records) == len(trace)

    def test_inapplicable_cluster_events_are_skipped(self, testbed, scale_mode):
        from repro.cluster.dynamics import NODE_FAIL, NODE_RECOVER, ClusterEvent

        trace = _tiny_trace(testbed, n=4)
        events = (
            ClusterEvent(time=600.0, kind=NODE_FAIL, node_id=99),
            ClusterEvent(time=700.0, kind=NODE_RECOVER, node_id=0),  # up
        )
        res = self._sim(scale_mode).run(trace, cluster_events=events)
        assert [i.kind for i in res.incidents] == ["cluster-event-error"] * 2
        assert [i.error for i in res.incidents] == ["ClusterDynamicsError"] * 2
        assert res.cluster_events == 0
        assert len(res.records) == len(trace)
