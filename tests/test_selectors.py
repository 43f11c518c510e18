"""Plan selectors: the variant-defining plan restrictions."""

from __future__ import annotations

import pytest

from repro.cluster import PAPER_CLUSTER, ResourceVector
from repro.models import GPT2, LLAMA2_7B, ROBERTA
from repro.perfmodel import ResourceShape
from repro.planeval import PlanEvalEngine
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler import (
    BestPlanSelector,
    FixedPlanSelector,
    Job,
    JobSpec,
    ScaledDpSelector,
)


@pytest.fixture(scope="module")
def engine(fitted_store):
    return PlanEvalEngine(PAPER_CLUSTER, perf_store=fitted_store)


def _job(model=GPT2, gpus=8, plan=None) -> Job:
    plan = plan or ExecutionPlan(dp=gpus, ga_steps=max(16 // gpus, 1))
    spec = JobSpec(
        job_id="t", model=model, global_batch=model.global_batch_size,
        requested=ResourceVector(gpus, gpus * 4, 0.0),
        initial_plan=plan, total_samples=1e5, submit_time=0.0,
    )
    return Job(spec=spec)


class TestBestPlanSelector:
    def test_free_to_change_family(self, engine):
        selector = BestPlanSelector(engine)
        bad = ExecutionPlan(dp=8, zero=ZeroStage.OFFLOAD, ga_steps=2)
        job = _job(plan=bad)
        best = selector.best(job, ResourceShape.packed(8, cpus=32))
        assert best is not None
        assert best.plan != bad


class TestScaledDpSelector:
    def test_keeps_zero_flag(self, engine):
        selector = ScaledDpSelector(engine)
        plan = ExecutionPlan(dp=4, zero=ZeroStage.ZERO_DP, ga_steps=4)
        job = _job(gpus=4, plan=plan)
        best = selector.best(job, ResourceShape.packed(8, cpus=32))
        assert best is not None
        assert best.plan.zero == ZeroStage.ZERO_DP
        assert best.plan.dp == 8

    def test_keeps_tp_pp_shape(self, engine):
        selector = ScaledDpSelector(engine)
        plan = ExecutionPlan(dp=1, tp=4, pp=2, micro_batches=16, gc=True)
        job = _job(model=LLAMA2_7B, gpus=8, plan=plan)
        best = selector.best(job, ResourceShape.packed(16, cpus=64))
        assert best is not None
        assert (best.plan.tp, best.plan.pp) == (4, 2)
        assert best.plan.dp == 2

    def test_non_multiple_counts_infeasible(self, engine):
        selector = ScaledDpSelector(engine)
        plan = ExecutionPlan(dp=1, tp=4, pp=2, micro_batches=16, gc=True)
        job = _job(model=LLAMA2_7B, gpus=8, plan=plan)
        assert selector.best(job, ResourceShape.packed(12, cpus=48)) is None

    def test_submitted_plan_always_candidate_at_own_count(self, engine):
        selector = ScaledDpSelector(engine)
        # A shallow pipeline (m < p) that the generic m-grid would miss.
        plan = ExecutionPlan(dp=4, pp=8, micro_batches=4, gc=True)
        job = _job(model=GPT2, gpus=32, plan=plan)
        best = selector.best(job, ResourceShape.packed(32, cpus=128))
        assert best is not None

    def test_curve_cached_per_initial_plan(self, engine):
        selector = ScaledDpSelector(engine)
        job_a = _job(gpus=4, plan=ExecutionPlan(dp=4, ga_steps=4))
        job_b = _job(gpus=4, plan=ExecutionPlan(dp=4, zero=ZeroStage.ZERO_DP, ga_steps=4))
        assert selector.curve(job_a) is selector.curve(job_a)
        assert selector.curve(job_a) is not selector.curve(job_b)


class TestFixedPlanSelector:
    def test_only_exact_gpu_count(self, engine):
        selector = FixedPlanSelector(engine)
        job = _job(gpus=8)
        assert selector.best(job, ResourceShape.packed(8, cpus=32)) is not None
        assert selector.best(job, ResourceShape.packed(4, cpus=16)) is None

    def test_curve_single_spike(self, engine):
        selector = FixedPlanSelector(engine)
        job = _job(gpus=8)
        curve = selector.curve(job)
        assert curve.raw[8] is not None
        assert all(curve.raw[g] is None for g in range(1, 8))
        # Envelope is flat at the spike value beyond 8.
        assert curve.throughput_at(12) == curve.throughput_at(8)

    def test_tp_respects_node_share(self, engine):
        selector = FixedPlanSelector(engine)
        plan = ExecutionPlan(dp=1, tp=8)
        job = _job(model=LLAMA2_7B, gpus=8, plan=plan)
        ragged = ResourceShape(gpus=8, num_nodes=2, min_gpus_per_node=4, cpus=32)
        assert selector.best(job, ragged) is None


class TestSlopeHelpers:
    def test_cpu_slope_floor_guard(self, engine):
        selector = BestPlanSelector(engine)
        job = _job(model=ROBERTA, gpus=4,
                   plan=ExecutionPlan(dp=4, ga_steps=4))
        shape = ResourceShape.packed(4, cpus=4)
        assert selector.cpu_slope_down(job, shape) == float("inf")

    def test_gpu_slope_down_zero_at_zero(self, engine):
        selector = BestPlanSelector(engine)
        job = _job()
        assert selector.gpu_slope_down(job, 0) == 0.0
