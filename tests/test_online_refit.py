"""Online model refitting (paper §4.3 continuous fitting)."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, NodeSpec, PAPER_CLUSTER
from repro.models import GPT2
from repro.oracle import (
    SyntheticTestbed,
    build_perf_model,
    collect_samples,
    default_profile_configs,
)
from repro.perfmodel import OnlineRefitter, ResourceShape
from repro.plans import ExecutionPlan
from repro.scheduler import rubick
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace

PLAN = ExecutionPlan(dp=8, ga_steps=2)
SHAPE = ResourceShape.packed(8, cpus=32)


@pytest.fixture(scope="module")
def fitted(paper_testbed):
    perf, _ = build_perf_model(paper_testbed, GPT2, 16, seed=3)
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
        from repro.scheduler import SensitivityAnalyzer

        analyzer = SensitivityAnalyzer(fitted_store, PAPER_CLUSTER)
        curve_a = analyzer.gpu_curve(GPT2, 16, max_gpus=4)
        # Re-adding the same model bumps the version and drops caches.
        fitted_store.add(fitted_store.get(GPT2))
        curve_b = analyzer.gpu_curve(GPT2, 16, max_gpus=4)
        assert curve_a is not curve_b
        assert curve_a.envelope == curve_b.envelope
