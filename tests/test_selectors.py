"""Plan selectors: the variant-defining plan restrictions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER, ClusterSpec, NodeSpec, ResourceVector
from repro.models import GPT2, LLAMA2_7B, ROBERTA
from repro.perfmodel import ResourceShape
from repro.planeval import BestConfig, PlanEvalEngine
from repro.plans import ExecutionPlan, ZeroStage, enumerate_plans
from repro.plans.memory import estimate_memory, host_mem_demand_per_node
from repro.scheduler import (
    BestPlanSelector,
    FixedPlanSelector,
    Job,
    JobSpec,
    ScaledDpSelector,
    default_plan_space,
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


# ----------------------------------------------------------------------
# Every selector entry point against a brute-force argmax
# ----------------------------------------------------------------------
SELECTORS = (BestPlanSelector, ScaledDpSelector, FixedPlanSelector)
NODE = PAPER_CLUSTER.node
#: The paper cluster, and one whose host memory turns away the offload
#: plans of LLaMA-2-7B (98 GB a node) and of dense GPT-2 placements.
CLUSTERS = (
    PAPER_CLUSTER,
    ClusterSpec(node=NodeSpec(host_mem=60 * 10**9)),
)


@st.composite
def _jobs(draw):
    """A job whose submitted plan fits its request on the paper cluster."""
    model = draw(st.sampled_from([GPT2, ROBERTA, LLAMA2_7B]))
    gpus = draw(st.sampled_from([1, 2, 4, 8, 16]))
    plans = enumerate_plans(
        model, model.global_batch_size, gpus,
        min_gpus_per_node=min(gpus, NODE.num_gpus),
        gpu_mem_budget=NODE.usable_gpu_mem,
        space=default_plan_space(model),
    )
    return _job(model=model, gpus=gpus, plan=draw(st.sampled_from(plans)))


@st.composite
def _shapes(draw, job):
    """A packed or spread shape near the job's request, CPUs left to vary."""
    base = job.spec.initial_plan.num_gpus
    gpus = draw(st.sampled_from([base, base, 2 * base, draw(st.integers(1, 24))]))
    if draw(st.booleans()):
        return ResourceShape.packed(gpus, node_size=NODE.num_gpus)
    nodes = draw(st.integers(1, min(gpus, 4)))
    return ResourceShape(
        gpus=gpus, num_nodes=nodes,
        min_gpus_per_node=max(1, gpus // nodes - 1), cpus=gpus,
    )


def _permitted(selector, job, shape) -> list[ExecutionPlan]:
    """The plans the selector's restriction allows at ``shape``."""
    model, batch = job.model, job.spec.global_batch
    plan = job.spec.initial_plan
    node = selector.engine.cluster_spec.node
    densest = max(
        shape.min_gpus_per_node, -(-shape.gpus // max(shape.num_nodes, 1))
    )

    def host_ok(p: ExecutionPlan) -> bool:
        demand = host_mem_demand_per_node(model, p, batch, densest)
        return demand <= node.host_mem

    if isinstance(selector, BestPlanSelector):
        plans = enumerate_plans(
            model, batch, shape.gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=node.usable_gpu_mem,
            space=default_plan_space(model),
        )
        return [p for p in plans if host_ok(p)]
    if isinstance(selector, ScaledDpSelector):
        plans = selector._candidates(job, shape.gpus, shape.min_gpus_per_node)
        return [
            p for p in plans
            if estimate_memory(model, p, batch).gpu_total
            <= node.usable_gpu_mem
            and host_ok(p)
        ]
    if shape.gpus != plan.num_gpus or plan.tp > shape.min_gpus_per_node:
        return []
    return [plan]


def _oracle(selector, job, shape) -> BestConfig | None:
    """First maximum of ``perf.throughput`` over the permitted plans."""
    perf = selector.engine.perf_store.get(job.model)
    best = None
    for plan in _permitted(selector, job, shape):
        thr = perf.throughput(plan, shape, job.spec.global_batch)
        if best is None or thr > best.throughput:
            best = BestConfig(plan=plan, throughput=thr)
    return best


def _gain(selector, job, low, high) -> float | None:
    base, more = _oracle(selector, job, low), _oracle(selector, job, high)
    if base is None or more is None:
        return None
    return more.throughput - base.throughput


class TestAgainstBruteForce:
    @pytest.mark.parametrize("selector_cls", SELECTORS)
    @settings(max_examples=40, deadline=None)
    @given(
        cluster=st.sampled_from(CLUSTERS),
        data=st.data(),
        cpus=st.lists(st.integers(1, 96), min_size=1, max_size=3),
        n=st.integers(1, 6),
    )
    def test_point_lookups_and_cpu_slopes(
        self, fitted_store, selector_cls, cluster, data, cpus, n
    ):
        job = data.draw(_jobs())
        shape = data.draw(_shapes(job))
        selector = selector_cls(PlanEvalEngine(cluster, perf_store=fitted_store))
        # Twice over the counts: the second pass reads warm memos.
        for count in cpus + cpus:
            at = shape.with_cpus(count)
            assert selector.best(job, at) == _oracle(selector, job, at)
            ups = [
                _gain(selector, job, at.with_cpus(count + i),
                      at.with_cpus(count + i + 1))
                for i in range(n)
            ]
            ups = [0.0 if gain is None else gain for gain in ups]
            assert selector.cpu_slope_up(job, at) == ups[0]
            assert selector.cpu_slopes_up(job, at, n) == ups
            if count - 1 < max(at.gpus, 1):
                down = None
            else:
                down = _gain(selector, job, at.with_cpus(count - 1), at)
            assert selector.cpu_slope_down(job, at) == (
                float("inf") if down is None else down
            )

    @pytest.mark.parametrize("selector_cls", SELECTORS)
    @settings(max_examples=6, deadline=None)
    @given(cluster=st.sampled_from(CLUSTERS), job=_jobs())
    def test_curve_points(self, fitted_store, selector_cls, cluster, job):
        selector = selector_cls(PlanEvalEngine(cluster, perf_store=fitted_store))
        curve = selector.curve(job)
        assert curve.max_gpus == cluster.total_gpus
        assert curve.raw[0] is None
        for g in range(1, curve.max_gpus + 1):
            nodes = -(-g // NODE.num_gpus)
            shape = ResourceShape.packed(
                g, node_size=NODE.num_gpus,
                cpus=min(g * 4, nodes * NODE.num_cpus),
            )
            assert curve.raw[g] == _oracle(selector, job, shape), g
