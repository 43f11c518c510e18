"""Cross-module invariants: every policy, every round, conservation holds."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.oracle import SyntheticTestbed
from repro.perfmodel import ResourceShape
from repro.scheduler import JobPriority, rubick, rubick_e, rubick_n, rubick_r
from repro.scheduler.baselines import AntManPolicy, SiaPolicy, SynergyPolicy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace

SPEC = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 23
POLICIES = [rubick, rubick_e, rubick_r, rubick_n, SiaPolicy, SynergyPolicy,
             AntManPolicy]


@pytest.fixture(scope="module")
def trace():
    testbed = SyntheticTestbed(SPEC, seed=SEED)
    return generate_trace(
        WorkloadConfig(
            num_jobs=14, seed=SEED, span=2400.0, cluster=SPEC,
            model_weights={"llama-30b": 0.0},
        ),
        testbed,
    )


@pytest.mark.parametrize("make", POLICIES, ids=lambda m: m().name)
def test_policy_end_to_end_invariants(make, trace):
    policy = make()
    sim = Simulator(
        SPEC, policy, testbed=SyntheticTestbed(SPEC, seed=SEED),
        config=EngineConfig(seed=SEED),
    )
    res = sim.run(trace)

    # 1. Conservation of work: every job completes exactly its sample target.
    assert len(res.records) == len(trace)

    # 2. Time accounting: JCT decomposes into queue + run + reconfig slack.
    for r in res.records:
        assert r.jct >= 0
        assert r.queue_seconds + r.run_seconds + r.reconfig_seconds <= (
            r.jct + 1.0
        )

    # 3. No phantom resource usage: GPU-seconds bounded by cluster capacity
    #    over the makespan.
    total_gpu_seconds = sum(r.gpu_seconds for r in res.records)
    assert total_gpu_seconds <= SPEC.total_gpus * (res.makespan + 1.0)

    # 4. Guaranteed jobs recorded an SLA ratio.
    for r in res.records:
        if r.priority == JobPriority.GUARANTEED:
            assert r.sla_ratio > 0


def test_rubick_allocations_respect_node_capacity(trace):
    """Apply every Rubick round's output on a fresh cluster: must never
    overflow (placement feasibility is a hard invariant)."""
    from repro.scheduler import PerfModelStore, SchedulingContext
    from repro.oracle import build_perf_model
    from repro.scheduler.job import Job, JobSpec
    from repro.cluster import ResourceVector

    testbed = SyntheticTestbed(SPEC, seed=SEED)
    store = PerfModelStore()
    models = {tj.model_name: tj.model for tj in trace}
    for model in models.values():
        perf, _ = build_perf_model(testbed, model, model.global_batch_size, seed=SEED)
        store.add(perf)
    ctx = SchedulingContext(cluster_spec=SPEC, perf_store=store)
    policy = rubick()
    cluster = Cluster(SPEC)
    jobs = []
    for tj in list(trace)[:10]:
        spec = JobSpec(
            job_id=tj.job_id, model=tj.model, global_batch=tj.global_batch,
            requested=ResourceVector(tj.requested_gpus, tj.requested_gpus * 4, 0),
            initial_plan=tj.initial_plan, total_samples=1e5,
            submit_time=tj.submit_time,
        )
        jobs.append(Job(spec=spec))
    allocations = policy.schedule(jobs, cluster, ctx)
    fresh = Cluster(SPEC)
    for job_id, alloc in allocations.items():
        fresh.apply(job_id, alloc.placement)  # PlacementError on violation
        # Plans occupy exactly the placement's GPUs.
        assert alloc.plan.num_gpus == alloc.placement.total.gpus
        # Plans fit memory by the shared estimator.
        shape = ResourceShape.from_placement(alloc.placement)
        job = next(j for j in jobs if j.job_id == job_id)
        assert testbed.is_feasible(
            job.model, alloc.plan, shape, job.spec.global_batch
        )
