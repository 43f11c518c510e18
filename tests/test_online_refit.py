"""Online model refitting (paper §4.3 continuous fitting)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec, NodeSpec, PAPER_CLUSTER, ResourceVector
from repro.models import GPT2
from repro.oracle import (
    SyntheticTestbed,
    build_perf_model,
    collect_samples,
    default_profile_configs,
)
from repro.perfmodel import OnlineRefitter, ResourceShape
from repro.plans import ExecutionPlan
from repro.scheduler import (
    Job,
    JobSpec,
    PerfModelStore,
    SchedulingContext,
    rubick,
)
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace

PLAN = ExecutionPlan(dp=8, ga_steps=2)
SHAPE = ResourceShape.packed(8, cpus=32)


@pytest.fixture(scope="module")
def fitted(paper_testbed):
    perf, _ = build_perf_model(paper_testbed, GPT2, 16)
    configs = default_profile_configs(paper_testbed, GPT2, 16)
    samples = collect_samples(paper_testbed, GPT2, 16, configs)
    return perf, samples


class TestObserve:
    def test_accurate_observation_no_refit(self, fitted):
        perf, samples = fitted
        refitter = OnlineRefitter(error_threshold=0.10)
        refitter.register_profiling_samples(GPT2, samples)
        realized = perf.throughput(PLAN, SHAPE, 16)  # zero error
        out = refitter.observe(perf, GPT2, PLAN, SHAPE, 16, realized)
        assert out is perf
        assert not refitter.events

    def test_large_error_triggers_refit(self, fitted):
        perf, samples = fitted
        refitter = OnlineRefitter(error_threshold=0.10, min_new_samples=1)
        refitter.register_profiling_samples(GPT2, samples)
        realized = perf.throughput(PLAN, SHAPE, 16) * 0.6  # 40% off
        out = refitter.observe(perf, GPT2, PLAN, SHAPE, 16, realized)
        assert out is not perf
        assert len(refitter.events) == 1
        assert refitter.events[0].trigger_error > 0.10
        # The refit pulls the prediction toward the observation.
        new_pred = out.throughput(PLAN, SHAPE, 16)
        old_pred = perf.throughput(PLAN, SHAPE, 16)
        assert abs(new_pred - realized) < abs(old_pred - realized)

    def test_min_new_samples_prevents_thrash(self, fitted):
        perf, samples = fitted
        refitter = OnlineRefitter(error_threshold=0.05, min_new_samples=5)
        refitter.register_profiling_samples(GPT2, samples)
        realized = perf.throughput(PLAN, SHAPE, 16) * 0.5
        out = refitter.observe(perf, GPT2, PLAN, SHAPE, 16, realized)
        assert out is perf  # only 1 observation accumulated so far

    def test_window_caps_observations(self, fitted):
        perf, _ = fitted
        refitter = OnlineRefitter(error_threshold=10.0, max_observations=4)
        for i in range(10):
            refitter.observe(perf, GPT2, PLAN, SHAPE, 16, 10.0 + i)
        assert refitter.observation_count(GPT2) == 4

    def test_non_positive_observation_ignored(self, fitted):
        perf, _ = fitted
        refitter = OnlineRefitter()
        out = refitter.observe(perf, GPT2, PLAN, SHAPE, 16, 0.0)
        assert out is perf
        assert refitter.observation_count(GPT2) == 0


class TestSimulatorIntegration:
    def test_refitter_runs_inside_simulation(self):
        cluster = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8))
        testbed = SyntheticTestbed(cluster, seed=31)
        trace = generate_trace(
            WorkloadConfig(
                num_jobs=6, seed=31, span=1200.0, cluster=cluster,
                model_weights={"llama-30b": 0.0},
            ),
            testbed,
        )
        refitter = OnlineRefitter(error_threshold=0.02, min_new_samples=1)
        sim = Simulator(
            cluster, rubick(),
            testbed=SyntheticTestbed(cluster, seed=31),
            config=EngineConfig(seed=31),
            online_refitter=refitter,
        )
        res = sim.run(trace)
        assert len(res.records) == len(trace)
        # With a 2% threshold, at least some observations were recorded.
        total_obs = sum(
            refitter.observation_count(tj.model) for tj in trace
        )
        assert total_obs > 0

    def test_store_version_invalidates_caches(self, fitted_store):
        from repro.planeval import PlanEvalEngine

        engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=fitted_store)
        curve_a = engine.curve(GPT2, 16, max_gpus=4)
        # Re-adding the same model bumps the version and drops caches.
        fitted_store.add(fitted_store.get(GPT2))
        curve_b = engine.curve(GPT2, 16, max_gpus=4)
        assert curve_a is not curve_b
        assert curve_a.envelope == curve_b.envelope

    def test_refit_invalidates_baseline_prediction_memo(self, fitted):
        perf, _ = fitted
        store = PerfModelStore()
        store.add(perf)
        ctx = SchedulingContext(cluster_spec=PAPER_CLUSTER, perf_store=store)
        job = Job(spec=JobSpec(
            job_id="j1", model=GPT2, global_batch=16,
            requested=ResourceVector(8, 32, 0.0), initial_plan=PLAN,
            total_samples=1e5, submit_time=0.0,
        ))
        policy = rubick()
        assert policy._baseline_pred(job, ctx) == perf.throughput(
            PLAN, SHAPE, 16
        )
        # A refit with different parameters bumps model_version; the
        # memo on the job must not serve the old model's prediction.
        refit = perf.with_params(
            replace(perf.params, k_const=perf.params.k_const + 1.0)
        )
        store.add(refit)
        expected = refit.throughput(PLAN, SHAPE, 16)
        assert expected != perf.throughput(PLAN, SHAPE, 16)
        assert policy._baseline_pred(job, ctx) == expected

    def test_refit_reaches_synergy_cpu_weights(self, fitted):
        from repro.cluster.state import Cluster
        from repro.plans.plan import ZeroStage
        from repro.scheduler.baselines import SynergyPolicy

        perf, _ = fitted
        store = PerfModelStore()
        store.add(perf)
        one_node = ClusterSpec(num_nodes=1, node=NodeSpec(num_gpus=8, num_cpus=48))
        ctx = SchedulingContext(cluster_spec=one_node, perf_store=store)
        offload = ExecutionPlan(dp=2, zero=ZeroStage.OFFLOAD)
        # Two ZeRO-Offload residents of one node whose CPU weights move
        # apart under a different k_opt_off: the larger batch's compute
        # hides more of its optimizer step.
        jobs = [
            Job(spec=JobSpec(
                job_id=f"j{i}", model=GPT2, global_batch=batch,
                requested=ResourceVector(2, 2, 0), initial_plan=offload,
                total_samples=1e5, submit_time=float(i),
            ))
            for i, batch in enumerate((16, 64))
        ]
        cluster = Cluster(one_node)
        policy = SynergyPolicy()
        before = policy.schedule(jobs, cluster, ctx)
        store.add(perf.with_params(
            replace(perf.params, k_opt_off=perf.params.k_opt_off * 20)
        ))
        after = policy.schedule(jobs, cluster, ctx)
        fresh = SynergyPolicy().schedule(jobs, cluster, ctx)
        assert fresh != before  # the refit moves the CPU split
        assert after == fresh
