"""The unified plan-evaluation engine: scoring equivalence, memoization,
hit/miss accounting, and versioned per-model invalidation."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER, ResourceVector
from repro.models import GPT2, LLAMA2_7B, ROBERTA
from repro.perfmodel import ResourceShape
from repro.planeval import (
    PlanEvalEngine,
    PlanMemo,
    TestbedScorer,
    fused_throughputs,
)
from repro.planeval.scoring import CpuSplitScores
from repro.plans import ExecutionPlan, enumerate_plans
from repro.plans.memory import estimate_memory, host_mem_demand_per_node
from repro.scheduler import (
    BestPlanSelector,
    FixedPlanSelector,
    Job,
    JobSpec,
    PerfModelStore,
    ScaledDpSelector,
    default_plan_space,
)

BATCHES = {GPT2.name: 16, ROBERTA.name: 64, LLAMA2_7B.name: 32}


def _local_store(fitted_store, *models) -> PerfModelStore:
    """A private store (mutable without polluting the shared fixture)."""
    store = PerfModelStore()
    for model in models:
        store.add(fitted_store.get(model))
    return store


def _engine(fitted_store) -> PlanEvalEngine:
    return PlanEvalEngine(
        PAPER_CLUSTER,
        perf_store=_local_store(fitted_store, GPT2, ROBERTA, LLAMA2_7B),
    )


def _job(model=GPT2, gpus=4, plan=None) -> Job:
    plan = plan or ExecutionPlan(dp=gpus, ga_steps=max(16 // gpus, 1))
    spec = JobSpec(
        job_id="t", model=model, global_batch=BATCHES[model.name],
        requested=ResourceVector(gpus, gpus * 4, 0.0),
        initial_plan=plan, total_samples=1e5, submit_time=0.0,
    )
    return Job(spec=spec)


class TestFusedScoring:
    """The batched scorer must be bit-identical to per-plan predict calls."""

    @pytest.mark.parametrize("model", [GPT2, ROBERTA, LLAMA2_7B])
    @pytest.mark.parametrize("gpus", [1, 4, 8, 16])
    def test_matches_unfused_predict(self, fitted_store, model, gpus):
        perf = fitted_store.get(model)
        batch = BATCHES[model.name]
        shape = ResourceShape.packed(gpus, cpus=gpus * 4)
        plans = enumerate_plans(
            model, batch, gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=PAPER_CLUSTER.node.usable_gpu_mem,
        )
        assert plans, "expected candidate plans for this shape"
        fused = fused_throughputs(perf, plans, shape, batch)
        for plan, thr in zip(plans, fused):
            assert thr == perf.throughput(plan, shape, batch)  # exact

    def test_offload_plans_use_cpu_count(self, fitted_store):
        perf = fitted_store.get(GPT2)
        plan = ExecutionPlan(dp=4, zero=3, ga_steps=4)  # ZeRO-Offload
        lean = ResourceShape.packed(4, cpus=4)
        rich = ResourceShape.packed(4, cpus=32)
        (thr_lean,) = fused_throughputs(perf, [plan], lean, 16)
        (thr_rich,) = fused_throughputs(perf, [plan], rich, 16)
        assert thr_rich > thr_lean
        assert thr_lean == perf.throughput(plan, lean, 16)
        assert thr_rich == perf.throughput(plan, rich, 16)


class TestEquivalence:
    """Engine results equal the direct enumerate-and-predict computation."""

    @pytest.mark.parametrize("model", [GPT2, LLAMA2_7B])
    @pytest.mark.parametrize("gpus", [2, 8, 12])
    def test_best_matches_direct(self, fitted_store, model, gpus):
        engine = _engine(fitted_store)
        perf = fitted_store.get(model)
        batch = BATCHES[model.name]
        shape = ResourceShape.packed(gpus, cpus=gpus * 4)
        space = default_plan_space(model)

        node = PAPER_CLUSTER.node
        densest = max(
            shape.min_gpus_per_node, -(-shape.gpus // max(shape.num_nodes, 1))
        )
        expect_plan, expect_thr = None, 0.0
        for plan in enumerate_plans(
            model, batch, gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=node.usable_gpu_mem, space=space,
        ):
            if host_mem_demand_per_node(model, plan, batch, densest) > node.host_mem:
                continue
            thr = perf.throughput(plan, shape, batch)
            if thr > expect_thr:
                expect_plan, expect_thr = plan, thr

        best = engine.best(model, batch, shape)
        if expect_plan is None:
            assert best is None
        else:
            assert best.plan == expect_plan
            assert best.throughput == expect_thr  # exact, not approx

    def test_score_all_matches_predict(self, fitted_store):
        engine = _engine(fitted_store)
        perf = fitted_store.get(GPT2)
        shape = ResourceShape.packed(8, cpus=32)
        scored = engine.score_all(GPT2, 16, shape)
        assert scored
        for plan, thr in scored:
            assert thr == perf.throughput(plan, shape, 16)

    def test_zero_gpus(self, fitted_store):
        engine = _engine(fitted_store)
        assert engine.best(GPT2, 16, ResourceShape.packed(0)) is None
        assert engine.score_all(GPT2, 16, ResourceShape.packed(0)) == ()


class TestStatsAccounting:
    def test_hit_miss_eval_counters(self, fitted_store):
        engine = _engine(fitted_store)
        shape = ResourceShape.packed(4, cpus=16)
        s0 = engine.stats()
        assert (s0.hits, s0.misses, s0.evals, s0.invalidations) == (0, 0, 0, 0)

        a = engine.best(GPT2, 16, shape)
        s1 = engine.stats()
        assert (s1.hits, s1.misses) == (0, 1)
        assert s1.evals > 0

        b = engine.best(GPT2, 16, shape)
        s2 = engine.stats()
        assert (s2.hits, s2.misses) == (1, 1)
        assert s2.evals == s1.evals  # warm hit scores nothing
        assert a is b  # same memo entry

    def test_curve_counts_inner_best_lookups(self, fitted_store):
        engine = _engine(fitted_store)
        engine.curve(GPT2, 16, max_gpus=4)
        misses = engine.stats().misses
        assert misses == 1 + 4  # the curve itself + one best() per GPU count
        engine.curve(GPT2, 16, max_gpus=4)
        assert engine.stats().hits == 1

    def test_cpu_probe_reuses_enumeration(self, fitted_store):
        engine = _engine(fitted_store)
        shape = ResourceShape.packed(4, cpus=16)
        engine.best(GPT2, 16, shape)
        enums = len(engine._memo.enums)
        engine.best(GPT2, 16, shape.with_cpus(17))  # CPU-slope probe
        assert len(engine._memo.enums) == enums  # same shape-class, no re-enum

    def test_snapshot_is_immutable(self, fitted_store):
        engine = _engine(fitted_store)
        snap = engine.stats()
        engine.best(GPT2, 16, ResourceShape.packed(2, cpus=8))
        assert snap.misses == 0  # old snapshot unaffected
        assert engine.stats().misses == 1


class TestVersionedInvalidation:
    def test_refit_invalidates_only_that_model(self, fitted_store):
        store = _local_store(fitted_store, GPT2, ROBERTA)
        engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=store)
        shape = ResourceShape.packed(4, cpus=16)
        gpt2_a = engine.best(GPT2, 16, shape)
        roberta_a = engine.best(ROBERTA, 64, shape)

        store.add(store.get(GPT2))  # online refit of GPT-2 only
        gpt2_b = engine.best(GPT2, 16, shape)
        roberta_b = engine.best(ROBERTA, 64, shape)

        assert gpt2_b is not gpt2_a  # recomputed under the new generation
        assert gpt2_b.throughput == gpt2_a.throughput  # same params, same value
        assert roberta_b is roberta_a  # untouched model stays warm
        assert engine.stats().invalidations == 1

    def test_refit_changes_results_through_the_engine(self, fitted_store):
        store = _local_store(fitted_store, GPT2)
        engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=store)
        shape = ResourceShape.packed(4, cpus=16)
        before = engine.best(GPT2, 16, shape)

        perf = store.get(GPT2)
        slower = dataclasses.replace(perf, params=dataclasses.replace(
            perf.params, k_const=perf.params.k_const + 0.5
        ))
        store.add(slower)
        after = engine.best(GPT2, 16, shape)
        assert after.throughput < before.throughput

    def test_shared_memo_keys_on_model_identity_and_generation(
        self, fitted_store
    ):
        memo = PlanMemo()
        shape = ResourceShape.packed(4, cpus=16)
        first = _local_store(fitted_store, GPT2)
        second = _local_store(fitted_store, GPT2)
        a = PlanEvalEngine(PAPER_CLUSTER, perf_store=first, memo=memo)
        b = PlanEvalEngine(PAPER_CLUSTER, perf_store=second, memo=memo)
        # Same fitted object, same generation: one shared entry.
        assert b.best(GPT2, 16, shape) is a.best(GPT2, 16, shape)
        # A refit of the first store moves only its engine.
        first.add(first.get(GPT2))
        assert a.best(GPT2, 16, shape) is not b.best(GPT2, 16, shape)
        assert a.best(GPT2, 16, shape) == b.best(GPT2, 16, shape)


class TestScaledDpCurveRegression:
    """Regression: the ScaledDpSelector's sensitivity curves must track
    online refits.  The selector's former private ``_curve_cache`` keyed
    entries by the store-wide version (never evicting old generations and
    recomputing *every* job's curve when *any* model refit); routed through
    the engine, curves are invalidated per model and reflect refitted
    parameters immediately."""

    def test_curve_refreshes_after_refit(self, fitted_store):
        store = _local_store(fitted_store, GPT2, ROBERTA)
        selector = ScaledDpSelector(
            PlanEvalEngine(PAPER_CLUSTER, perf_store=store)
        )
        job = _job(gpus=4, plan=ExecutionPlan(dp=4, ga_steps=4))

        curve_a = selector.curve(job)
        assert selector.curve(job) is curve_a  # memoized while fresh

        perf = store.get(GPT2)
        slower = dataclasses.replace(perf, params=dataclasses.replace(
            perf.params, k_const=perf.params.k_const + 0.5
        ))
        store.add(slower)

        curve_b = selector.curve(job)
        assert curve_b is not curve_a
        # The refitted (slower) model must actually show in the curve.
        assert max(curve_b.envelope) < max(curve_a.envelope)

    def test_other_models_curves_survive_refit(self, fitted_store):
        store = _local_store(fitted_store, GPT2, ROBERTA)
        selector = ScaledDpSelector(
            PlanEvalEngine(PAPER_CLUSTER, perf_store=store)
        )
        gpt2_job = _job(gpus=4, plan=ExecutionPlan(dp=4, ga_steps=4))
        roberta_job = _job(
            model=ROBERTA, gpus=4, plan=ExecutionPlan(dp=4, ga_steps=4)
        )
        selector.curve(gpt2_job)
        roberta_curve = selector.curve(roberta_job)

        store.add(store.get(GPT2))  # refit GPT-2
        assert selector.curve(roberta_job) is roberta_curve


class TestTestbedScorerPath:
    """The simulator's ground-truth engine equals the direct computation."""

    def test_best_matches_manual_enumeration(self, small_cluster, small_testbed):
        engine = PlanEvalEngine(
            small_cluster, scorer=TestbedScorer(small_testbed)
        )
        gpus, batch = 4, 16
        shape = ResourceShape.packed(
            gpus, node_size=small_cluster.node.num_gpus, cpus=gpus * 4
        )
        best = engine.best(GPT2, batch, shape, check_host_mem=False)

        expect = 0.0
        for plan in enumerate_plans(
            GPT2, batch, gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=small_cluster.node.usable_gpu_mem,
            space=default_plan_space(GPT2),
        ):
            if not small_testbed.is_feasible(GPT2, plan, shape, batch):
                continue
            expect = max(
                expect,
                small_testbed.true_throughput(GPT2, plan, shape, batch),
            )
        assert best is not None
        assert best.throughput == expect

    def test_ground_truth_never_invalidates(self, small_cluster, small_testbed):
        engine = PlanEvalEngine(
            small_cluster, scorer=TestbedScorer(small_testbed)
        )
        shape = ResourceShape.packed(
            2, node_size=small_cluster.node.num_gpus, cpus=8
        )
        a = engine.best(GPT2, 16, shape, check_host_mem=False)
        b = engine.best(GPT2, 16, shape, check_host_mem=False)
        assert a is b
        assert engine.stats().invalidations == 0


# ----------------------------------------------------------------------
# Shape classes: one scoring per class, offload plans re-scored per CPU
# ----------------------------------------------------------------------
SELECTORS = (BestPlanSelector, ScaledDpSelector, FixedPlanSelector)


@st.composite
def _class_cases(draw):
    """(model, selector class, job, shape, CPU counts) over one class."""
    model = draw(st.sampled_from([GPT2, ROBERTA, LLAMA2_7B]))
    batch = BATCHES[model.name]
    node = PAPER_CLUSTER.node
    base_gpus = draw(st.sampled_from([1, 2, 4, 8]))
    plans = enumerate_plans(
        model, batch, base_gpus,
        min_gpus_per_node=base_gpus,
        gpu_mem_budget=node.usable_gpu_mem,
        space=default_plan_space(model),
    )
    # Offload plans are the ones whose score moves with the CPU count.
    offload = [p for p in plans if p.uses_offload]
    plan = draw(st.sampled_from(offload or plans))
    spec = JobSpec(
        job_id="c", model=model, global_batch=batch,
        requested=ResourceVector(base_gpus, base_gpus * 4, 0),
        initial_plan=plan, total_samples=1e5, submit_time=0.0,
    )
    gpus = draw(st.sampled_from([base_gpus, 2 * base_gpus, 16]))
    if draw(st.booleans()):
        shape = ResourceShape.packed(gpus, node_size=node.num_gpus)
    else:
        nodes = draw(st.integers(1, min(gpus, 4)))
        shape = ResourceShape(
            gpus=gpus, num_nodes=nodes,
            min_gpus_per_node=max(1, gpus // nodes - 1), cpus=gpus,
        )
    cpus = draw(st.lists(st.integers(1, 96), min_size=1, max_size=8))
    return draw(st.sampled_from(SELECTORS)), Job(spec=spec), shape, cpus


def _expected(engine, selector, job, shape):
    """``_argmax`` over the selector's candidates, scored plan by plan
    (``fused_throughputs`` equals these bit for bit) without the engine's
    memos."""
    model, batch = job.model, job.spec.global_batch
    plan = job.spec.initial_plan
    if isinstance(selector, BestPlanSelector):
        plans = enumerate_plans(
            model, batch, shape.gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=PAPER_CLUSTER.node.usable_gpu_mem,
            space=default_plan_space(model),
        )
        plans = engine._host_filtered(model, tuple(plans), batch, shape)
    elif isinstance(selector, ScaledDpSelector):
        budget = PAPER_CLUSTER.node.usable_gpu_mem
        plans = tuple(
            p
            for p in selector._candidates(
                job, shape.gpus, shape.min_gpus_per_node
            )
            if estimate_memory(model, p, batch).gpu_total <= budget
        )
        plans = engine._host_filtered(model, plans, batch, shape)
    else:
        if shape.gpus != plan.num_gpus or plan.tp > shape.min_gpus_per_node:
            return None
        plans = (plan,)
    perf = engine.perf_store.get(model)
    return engine._argmax(
        plans, [perf.throughput(p, shape, batch) for p in plans]
    )


class TestShapeClassMemo:
    @settings(max_examples=80, deadline=None)
    @given(case=_class_cases())
    def test_best_equals_argmax_of_fused_scores(self, fitted_store, case):
        selector_cls, job, shape, cpu_counts = case
        engine = _engine(fitted_store)
        selector = selector_cls(engine)
        # One engine across the counts: later ones hit the warm class.
        for cpus in cpu_counts + cpu_counts[:1]:
            at = shape.with_cpus(cpus)
            assert selector.best(job, at) == _expected(
                engine, selector, job, at
            )

    @settings(max_examples=80, deadline=None)
    @given(case=_class_cases(), n=st.integers(1, 24))
    def test_cpu_slopes_up_equals_successive_slopes(
        self, fitted_store, case, n
    ):
        selector_cls, job, shape, cpu_counts = case
        at = shape.with_cpus(cpu_counts[0])
        batched = selector_cls(_engine(fitted_store))
        single = selector_cls(_engine(fitted_store))
        assert batched.cpu_slopes_up(job, at, n) == [
            single.cpu_slope_up(job, at.with_cpus(at.cpus + i))
            for i in range(n)
        ]
        # A warm row reads the same values.
        assert batched.cpu_slopes_up(job, at, n) == [
            single.cpu_slope_up(job, at.with_cpus(at.cpus + i))
            for i in range(n)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from([GPT2, ROBERTA]),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
        cpus=st.integers(1, 64),
    )
    def test_first_of_equal_maxima_wins(self, fitted_store, model, picks, cpus):
        # Repeated plans tie exactly; the split table's merge of fixed and
        # offload scores must still pick the first of them.
        batch = BATCHES[model.name]
        plans = enumerate_plans(
            model, batch, 4, min_gpus_per_node=4,
            gpu_mem_budget=PAPER_CLUSTER.node.usable_gpu_mem,
            space=default_plan_space(model),
        )
        chosen = [plans[i % len(plans)] for i in picks]
        shape = ResourceShape.packed(4, cpus=cpus)
        perf = fitted_store.get(model)
        table = CpuSplitScores(perf, chosen, shape, batch)
        scores = fused_throughputs(perf, chosen, shape, batch)
        top = max(scores)
        assert table.best_at(cpus) == (scores.index(top), top)

    def test_cpu_probe_rescores_only_offload_plans(self, fitted_store):
        engine = _engine(fitted_store)
        shape = ResourceShape.packed(4, cpus=16)
        engine.best(GPT2, 16, shape)
        engine.best(GPT2, 16, shape.with_cpus(17))  # builds the split table
        evals = engine.stats().evals
        engine.best(GPT2, 16, shape.with_cpus(18))
        plans = engine._host_filtered(
            GPT2,
            engine.plans_for(GPT2, 16, 4, shape.min_gpus_per_node),
            16,
            shape,
        )
        offload = [p for p in plans if p.uses_offload]
        assert offload
        assert engine.stats().evals - evals == len(offload)
