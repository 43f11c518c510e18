"""Plan enumeration: coverage, restrictions, memory filtering."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER
from repro.models import GPT2, LLAMA2_7B, ROBERTA, VIT
from repro.plans import (
    DP_FAMILY_SPACE,
    PlanSpace,
    ZeroStage,
    enumerate_plans,
    estimate_memory,
)

BUDGET = PAPER_CLUSTER.node.usable_gpu_mem


class TestBasicEnumeration:
    def test_zero_gpus_yields_nothing(self):
        assert enumerate_plans(GPT2, 16, 0) == []

    def test_single_gpu_has_dp_family(self):
        plans = enumerate_plans(GPT2, 16, 1, min_gpus_per_node=1)
        families = {p.family for p in plans}
        assert "DP+GA" in families
        assert any(p.uses_offload for p in plans)

    def test_all_plans_use_exactly_the_gpus(self):
        for g in (1, 2, 4, 8):
            for plan in enumerate_plans(GPT2, 16, g, min_gpus_per_node=8):
                assert plan.num_gpus == g

    def test_no_duplicates(self):
        plans = enumerate_plans(LLAMA2_7B, 32, 8, min_gpus_per_node=8)
        assert len(plans) == len(set(plans))

    def test_batch_divisibility_respected(self):
        for plan in enumerate_plans(GPT2, 16, 8, min_gpus_per_node=8):
            assert 16 % plan.dp == 0
            plan.micro_batch_size(16)  # must not raise


class TestSpaceRestrictions:
    def test_dp_family_space_excludes_model_parallel(self):
        plans = enumerate_plans(
            LLAMA2_7B, 32, 8, min_gpus_per_node=8, space=DP_FAMILY_SPACE
        )
        assert all(p.tp == 1 and p.pp == 1 for p in plans)

    def test_no_zero_space(self):
        space = PlanSpace(allow_zero=False, allow_offload=False)
        plans = enumerate_plans(GPT2, 16, 4, min_gpus_per_node=8, space=space)
        assert all(p.zero == ZeroStage.NONE for p in plans)

    def test_no_ga_space(self):
        space = PlanSpace(allow_ga=False)
        plans = enumerate_plans(GPT2, 16, 4, min_gpus_per_node=8, space=space)
        assert all(p.ga_steps == 1 for p in plans)

    def test_no_gc_space(self):
        space = PlanSpace(allow_gc=False)
        plans = enumerate_plans(GPT2, 16, 4, min_gpus_per_node=8, space=space)
        assert all(not p.gc for p in plans)

    def test_tp_capped_by_node_share(self):
        multi = enumerate_plans(LLAMA2_7B, 32, 16, min_gpus_per_node=8)
        assert any(p.tp == 8 for p in multi)
        narrow = enumerate_plans(LLAMA2_7B, 32, 16, min_gpus_per_node=4)
        assert all(p.tp <= 4 for p in narrow)


class TestMemoryFilter:
    def test_budget_filters_oom_plans(self):
        unfiltered = enumerate_plans(LLAMA2_7B, 32, 1, min_gpus_per_node=1)
        filtered = enumerate_plans(
            LLAMA2_7B, 32, 1, min_gpus_per_node=1, gpu_mem_budget=BUDGET
        )
        assert len(filtered) < len(unfiltered)
        assert all(
            estimate_memory(LLAMA2_7B, p, 32).gpu_total <= BUDGET
            for p in filtered
        )

    def test_llama7b_one_gpu_only_offload_survives(self):
        # The paper's Fig. 7 crossover: at 1 GPU only ZeRO-Offload launches.
        plans = enumerate_plans(
            LLAMA2_7B, 32, 1, min_gpus_per_node=1, gpu_mem_budget=BUDGET
        )
        assert plans
        assert all(p.uses_offload for p in plans)


def _feasible(model, batch, gpus, **kwargs):
    """Whether some plan runs on ``gpus`` GPUs of one node."""
    return bool(enumerate_plans(
        model, batch, gpus, min_gpus_per_node=gpus, gpu_mem_budget=BUDGET,
        **kwargs,
    ))


class TestFeasibleGpuCounts:
    def test_vit_feasible_everywhere_small(self):
        assert all(_feasible(VIT, 256, g) for g in (1, 2, 4, 8))

    def test_batch_limits_dp_sizes(self):
        # RoBERTa batch 64: dp sizes must divide 64, so 7 GPUs only works
        # with some (d, t, p) split — for a DP-only model 7 is infeasible.
        assert not _feasible(ROBERTA, 64, 7, space=DP_FAMILY_SPACE)
        assert all(
            _feasible(ROBERTA, 64, g, space=DP_FAMILY_SPACE)
            for g in (1, 2, 4, 8)
        )


class TestEnumerationProperties:
    @settings(max_examples=20, deadline=None)
    @given(gpus=st.integers(1, 8))
    def test_every_plan_validates(self, gpus):
        for plan in enumerate_plans(GPT2, 16, gpus, min_gpus_per_node=8):
            plan.validate(GPT2, 16, min_gpus_per_node=8)

    @settings(max_examples=10, deadline=None)
    @given(gpus=st.sampled_from([1, 2, 4, 8, 16]))
    def test_enumeration_deterministic(self, gpus):
        a = enumerate_plans(LLAMA2_7B, 32, gpus, min_gpus_per_node=8)
        b = enumerate_plans(LLAMA2_7B, 32, gpus, min_gpus_per_node=8)
        assert a == b
