"""Scale-mode cadence: equivalence, invariants, streaming metrics.

``EngineConfig(scale_mode=True)`` runs the policy in Gavel-style
scheduling rounds, at most once per ``tick_interval``, instead of at every
event.  Per the large-scale testing policy in DESIGN.md it is NOT
byte-identical to the default cadence — jobs can queue up to one round
longer — so this suite asserts:

* **uncontended equivalence** — on the light 30-job smoke both cadences
  produce the same completions and (empirically ulp-level) makespan, with
  JCTs bounded by the round length;
* **conservation invariants under contention + dynamics** — every job
  completes, evictions equal restart counts, goodput + lost == total
  GPU-hours, and per-record timings are self-consistent;
* **streaming metrics** — a bounded ``result_record_limit`` run matches
  the unbounded run's aggregates exactly while per-record slices and
  serialization refuse to answer from a partial sample;
* **placement lockstep** — ``job.placement`` equals the cluster's view at
  every policy round (the contract the baseline policies' fast paths
  substitute on).
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, NodeSpec, PAPER_CLUSTER
from repro.cluster.dynamics import resolve_dynamics
from repro.errors import SimulationError
from repro.models import all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler import PerfModelStore
from repro.scheduler.interfaces import Tenant
from repro.scheduler.job import JobPriority, JobStatus
from repro.scheduler.registry import make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import result_to_dict
from repro.units import HOUR, MINUTE

SEED = 7
TICK = 300.0
CLUSTER = ClusterSpec(num_nodes=16, node=NodeSpec(num_gpus=8, num_cpus=96))


@pytest.fixture(scope="module")
def testbed() -> SyntheticTestbed:
    return SyntheticTestbed(CLUSTER, seed=SEED)


@pytest.fixture(scope="module")
def store(testbed) -> PerfModelStore:
    store = PerfModelStore()
    for model in all_models():
        perf, _ = build_perf_model(
            testbed, model, model.global_batch_size
        )
        store.add(perf)
    return store


def _sim(policy: str, testbed, store, *, cluster=None, scale=True, **kw):
    cluster = cluster or CLUSTER
    return Simulator(
        cluster,
        make_policy(policy),
        testbed=testbed,
        perf_store=store,
        config=EngineConfig(seed=SEED, scale_mode=scale, **kw),
    )


@pytest.fixture(scope="module")
def contended(testbed, store):
    """One contended flaky run, shared by the invariant tests.

    Arrival bursts against 128 GPUs keep a standing queue, and the flaky
    profile injects failures/recoveries, so the run exercises queued
    batches, evictions, checkpoint rollback, and round-based placement.
    """
    cfg = WorkloadConfig(
        num_jobs=400,
        span=2 * HOUR,
        seed=SEED,
        cluster=CLUSTER,
        duration_median=10 * MINUTE,
        name="scale-contended",
    )
    trace = generate_trace(cfg, testbed)
    events = resolve_dynamics("flaky").events(
        seed=SEED, span=24 * HOUR, cluster=CLUSTER
    )
    result = _sim("antman", testbed, store).run(trace, cluster_events=events)
    return trace, events, result


# ----------------------------------------------------------------------
# Uncontended equivalence against the default loop
# ----------------------------------------------------------------------
class TestUncontendedEquivalence:
    def test_smoke_trace_matches_default_loop(self, fitted_store):
        paper_testbed = SyntheticTestbed(PAPER_CLUSTER, seed=SEED)
        trace = generate_trace(
            WorkloadConfig(num_jobs=30, seed=SEED, name="smoke"), paper_testbed
        )
        results = {}
        for scale in (False, True):
            sim = Simulator(
                PAPER_CLUSTER,
                make_policy("synergy"),
                testbed=SyntheticTestbed(PAPER_CLUSTER, seed=SEED),
                perf_store=fitted_store,
                config=EngineConfig(seed=SEED, scale_mode=scale),
            )
            results[scale] = sim.run(trace)
        ref, scaled = results[False], results[True]
        assert len(ref.records) == len(scaled.records) == 30
        assert {r.job_id for r in ref.records} == {
            r.job_id for r in scaled.records
        }
        # The last completion is insensitive to round batching on this
        # trace; the arithmetic paths differ, so equality is ulp-level,
        # not bitwise.
        assert scaled.makespan == pytest.approx(ref.makespan, rel=1e-9)
        # Round batching can delay any placement by up to one round and
        # those delays cascade; it must not change JCT by more than a few
        # round lengths on an uncontended trace.
        assert abs(scaled.avg_jct() - ref.avg_jct()) <= 3 * TICK
        # Round batching strictly reduces policy work.
        assert scaled.policy_invocations < ref.policy_invocations

    def test_unplaceable_job_raises(self, testbed, store):
        # A zero GPU quota makes every guaranteed job permanently
        # unplaceable; the scale loop must fail fast (its deadlock guard
        # mirrors the default loop's idle-round counter) instead of
        # spinning to max_sim_time.
        cfg = WorkloadConfig(
            num_jobs=3, span=HOUR, seed=SEED, cluster=CLUSTER, name="tiny"
        )
        trace = generate_trace(cfg, testbed)
        sim = _sim("antman", testbed, store)
        with pytest.raises(SimulationError):
            sim.run(trace, tenants={"default": Tenant("default", gpu_quota=0)})


# ----------------------------------------------------------------------
# Conservation invariants under contention + cluster dynamics
# ----------------------------------------------------------------------
class TestContendedInvariants:
    def test_all_jobs_complete(self, contended):
        trace, _, result = contended
        assert len(result.records) == len(trace.jobs) == 400
        assert result.dropped_records == 0

    def test_dynamics_fired(self, contended):
        _, _, result = contended
        assert result.cluster_events > 0
        assert result.evictions > 0

    def test_evictions_match_restart_counts(self, contended):
        _, _, result = contended
        assert result.total_restarts == result.evictions

    def test_gpu_hours_conserve(self, contended):
        _, _, result = contended
        assert result.lost_gpu_hours > 0
        assert result.goodput_gpu_hours > 0
        assert result.goodput_gpu_hours + result.lost_gpu_hours == (
            pytest.approx(result.total_gpu_hours, rel=1e-12)
        )

    def test_records_self_consistent(self, contended):
        _, _, result = contended
        for r in result.records:
            assert r.finish_time >= r.submit_time
            assert r.jct == pytest.approx(r.finish_time - r.submit_time)
            assert r.queue_seconds >= 0.0
            assert r.run_seconds >= 0.0
            # JCT decomposes into queueing, execution, and pauses; the
            # components can never exceed the whole.
            assert r.jct + 1e-6 >= r.run_seconds + r.reconfig_seconds
            assert r.restart_count >= 0
            assert r.lost_gpu_seconds >= 0.0

    def test_makespan_spans_records(self, contended):
        _, _, result = contended
        lo, hi = result.span_bounds()
        assert result.makespan == hi - lo
        assert result.makespan > 0


# ----------------------------------------------------------------------
# Streaming metrics (bounded record retention)
# ----------------------------------------------------------------------
class TestStreamingMetrics:
    @pytest.fixture(scope="class")
    def pair(self, contended, testbed, store):
        trace, events, unbounded = contended
        bounded = _sim(
            "antman", testbed, store, result_record_limit=50
        ).run(trace, cluster_events=events)
        return unbounded, bounded

    def test_aggregates_exactly_equal(self, pair):
        unbounded, bounded = pair
        assert bounded.summary() == unbounded.summary()
        assert bounded.makespan == unbounded.makespan
        assert bounded.total_gpu_hours == unbounded.total_gpu_hours
        assert bounded.lost_gpu_hours == unbounded.lost_gpu_hours
        assert bounded.total_restarts == unbounded.total_restarts

    def test_retention_bound_honored(self, pair):
        unbounded, bounded = pair
        assert len(bounded.records) == 50
        assert bounded.dropped_records == len(unbounded.records) - 50
        # The retained sample is the completion-order prefix.
        kept = [r.job_id for r in bounded.records]
        assert kept == [r.job_id for r in unbounded.records[:50]]

    def test_per_record_slices_refuse(self, pair):
        _, bounded = pair
        with pytest.raises(ValueError):
            bounded.by_priority(JobPriority.GUARANTEED)

    def test_serialization_refuses(self, pair):
        _, bounded = pair
        with pytest.raises(ValueError):
            result_to_dict(bounded)


# ----------------------------------------------------------------------
# Placement lockstep + non-FIFO policy smoke
# ----------------------------------------------------------------------
class _LockstepProbe:
    """Asserts job.placement mirrors the cluster at every policy round."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.engine = getattr(inner, "engine", None)
        self.checked = 0

    def steady_state(self, jobs, ctx):
        return self.inner.steady_state(jobs, ctx)

    def schedule(self, jobs, cluster, ctx):
        for job in jobs:
            if job.is_running:
                mirrored = cluster.placement_of(job.job_id)
                assert job.placement.shares == mirrored.shares
                self.checked += 1
            elif job.status is JobStatus.QUEUED:
                assert not cluster.placement_of(job.job_id).shares
        return self.inner.schedule(jobs, cluster, ctx)


class TestLockstepAndPolicies:
    def test_job_placement_lockstep_under_dynamics(self, testbed, store):
        cfg = WorkloadConfig(
            num_jobs=120,
            span=2 * HOUR,
            seed=SEED,
            cluster=CLUSTER,
            duration_median=10 * MINUTE,
            name="lockstep",
        )
        trace = generate_trace(cfg, testbed)
        events = resolve_dynamics("flaky").events(
            seed=SEED, span=24 * HOUR, cluster=CLUSTER
        )
        probe = _LockstepProbe(make_policy("antman"))
        sim = Simulator(
            CLUSTER,
            probe,
            testbed=testbed,
            perf_store=store,
            config=EngineConfig(seed=SEED, scale_mode=True),
        )
        result = sim.run(trace, cluster_events=events)
        assert probe.checked > 0
        assert len(result.records) == 120

    def test_rubick_scale_smoke(self, testbed, store):
        cfg = WorkloadConfig(
            num_jobs=40,
            span=2 * HOUR,
            seed=SEED,
            cluster=CLUSTER,
            name="rubick-scale",
        )
        trace = generate_trace(cfg, testbed)
        result = _sim("rubick", testbed, store).run(trace)
        assert len(result.records) == 40
        assert result.policy_invocations >= 1
        assert result.sim_rounds > 0
        assert result.makespan > 0
