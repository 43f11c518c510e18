"""GPU/host memory model: partitioning arithmetic and OOM physics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER
from repro.models import GPT2, LLAMA2_7B, LLAMA_30B, VIT
from repro.plans import (
    ExecutionPlan,
    ZeroStage,
    estimate_memory,
    host_mem_demand_per_node,
)
from repro.units import GiB

BUDGET = PAPER_CLUSTER.node.usable_gpu_mem


class TestModelStatePartitioning:
    def test_plain_dp_holds_full_states(self):
        est = estimate_memory(GPT2, ExecutionPlan(dp=8, ga_steps=2), 16)
        # 16 bytes/param mixed-precision Adam: 2 + 2 + 12.
        assert est.weights == pytest.approx(2 * GPT2.param_count)
        assert est.gradients == pytest.approx(2 * GPT2.param_count)
        assert est.optimizer == pytest.approx(12 * GPT2.param_count)

    def test_tp_pp_shard_states(self):
        plan = ExecutionPlan(dp=1, tp=5, pp=8, micro_batches=8)
        est = estimate_memory(GPT2, plan, 16)
        assert est.weights == pytest.approx(2 * GPT2.param_count / 40)
        assert est.optimizer == pytest.approx(12 * GPT2.param_count / 40)

    def test_zero_dp_partitions_optimizer_and_grads(self):
        base = estimate_memory(GPT2, ExecutionPlan(dp=8, ga_steps=2), 16)
        zero = estimate_memory(
            GPT2, ExecutionPlan(dp=8, zero=ZeroStage.ZERO_DP, ga_steps=2), 16
        )
        assert zero.optimizer == pytest.approx(base.optimizer / 8)
        assert zero.gradients < base.gradients
        assert zero.weights == pytest.approx(base.weights)  # ZeRO-2 keeps weights

    def test_offload_clears_gpu_optimizer_moves_to_host(self):
        plan = ExecutionPlan(dp=1, zero=ZeroStage.OFFLOAD, ga_steps=16)
        est = estimate_memory(GPT2, plan, 16)
        assert est.optimizer == 0.0
        assert est.host_total > 14 * GPT2.param_count  # 14 B/param + base
        assert est.gradients < 2 * GPT2.param_count / 10  # one-layer bucket


class TestActivations:
    def test_ga_shrinks_activations(self):
        no_ga = estimate_memory(GPT2, ExecutionPlan(dp=8, ga_steps=1), 16)
        ga = estimate_memory(GPT2, ExecutionPlan(dp=8, ga_steps=2), 16)
        assert ga.activations < no_ga.activations

    def test_gc_shrinks_activations_dramatically(self):
        plain = estimate_memory(GPT2, ExecutionPlan(dp=8), 16)
        gc = estimate_memory(GPT2, ExecutionPlan(dp=8, gc=True), 16)
        assert gc.activations < plain.activations / 3

    def test_tp_shards_activations(self):
        t1 = estimate_memory(LLAMA2_7B, ExecutionPlan(dp=1, tp=1, pp=2, micro_batches=32), 32)
        t4 = estimate_memory(LLAMA2_7B, ExecutionPlan(dp=1, tp=4, pp=2, micro_batches=32), 32)
        assert t4.activations == pytest.approx(t1.activations / 4, rel=0.01)

    def test_vision_model_has_no_logits_buffer(self):
        est = estimate_memory(VIT, ExecutionPlan(dp=8), 256)
        assert est.logits == 0.0

    def test_lm_logits_buffer_positive(self):
        est = estimate_memory(GPT2, ExecutionPlan(dp=8), 16)
        assert est.logits > 0


def _fits(model, plan, global_batch):
    """Whether the plan's per-GPU footprint fits one paper GPU."""
    return estimate_memory(model, plan, global_batch).gpu_total <= BUDGET


class TestPaperPhysics:
    """The OOM behaviours the paper's narrative depends on."""

    def test_gpt2_fits_8_gpus_plain_dp(self):
        assert _fits(GPT2, ExecutionPlan(dp=8), 16)

    def test_gpt2_single_gpu_needs_ga_or_gc(self):
        assert not _fits(GPT2, ExecutionPlan(dp=1), 16)
        assert _fits(GPT2, ExecutionPlan(dp=1, ga_steps=16), 16)
        assert _fits(GPT2, ExecutionPlan(dp=1, gc=True), 16)

    def test_llama7b_plain_dp_oom_anywhere(self):
        # 16 B/param × 6.7B = 107 GB of states alone: no DP-family plan
        # without ZeRO fits an 80 GB card.
        for dp in (1, 8):
            plan = ExecutionPlan(dp=dp, ga_steps=32 // dp, gc=True)
            assert not _fits(LLAMA2_7B, plan, 32)

    def test_llama7b_offload_fits_one_gpu(self):
        # Paper Fig. 7: ZeRO-Offload is the only feasible 1-GPU plan.
        plan = ExecutionPlan(dp=1, zero=ZeroStage.OFFLOAD, ga_steps=32, gc=True)
        assert _fits(LLAMA2_7B, plan, 32)

    def test_llama7b_zero_dp_needs_two_gpus(self):
        one = ExecutionPlan(dp=1, zero=ZeroStage.ZERO_DP, ga_steps=32, gc=True)
        two = ExecutionPlan(dp=2, zero=ZeroStage.ZERO_DP, ga_steps=16, gc=True)
        assert not _fits(LLAMA2_7B, one, 32)
        assert _fits(LLAMA2_7B, two, 32)

    def test_llama30b_needs_deep_sharding(self):
        small = ExecutionPlan(dp=1, tp=4, pp=2, micro_batches=2)
        assert not _fits(LLAMA_30B, small, 64)
        deep = ExecutionPlan(dp=1, tp=4, pp=2, micro_batches=64, gc=True)
        assert _fits(LLAMA_30B, deep, 64)


class TestHostDemand:
    def test_offload_host_demand_scales_with_node_share(self):
        plan = ExecutionPlan(dp=4, zero=ZeroStage.OFFLOAD, ga_steps=4)
        full = host_mem_demand_per_node(GPT2, plan, 16, gpus_on_node=4)
        half = host_mem_demand_per_node(GPT2, plan, 16, gpus_on_node=2)
        assert half == pytest.approx(full / 2)

    def test_non_offload_host_demand_is_small(self):
        plan = ExecutionPlan(dp=4, ga_steps=4)
        demand = host_mem_demand_per_node(GPT2, plan, 16, gpus_on_node=4)
        assert demand < 8 * GiB

class TestMonotonicityProperties:
    @given(dp=st.sampled_from([1, 2, 4, 8]), ga=st.sampled_from([1, 2]))
    def test_gpu_total_positive(self, dp, ga):
        if (16 // dp) % ga != 0:
            return
        est = estimate_memory(GPT2, ExecutionPlan(dp=dp, ga_steps=ga), 16)
        assert est.gpu_total > 0
        assert est.gpu_total == pytest.approx(
            est.weights + est.gradients + est.optimizer + est.activations
            + est.logits + est.workspace
        )

    @given(tp=st.sampled_from([1, 2, 4, 8]))
    def test_more_tp_never_more_weights(self, tp):
        plan = ExecutionPlan(dp=1, tp=tp, ga_steps=32)
        est = estimate_memory(LLAMA2_7B, plan, 32)
        base = estimate_memory(LLAMA2_7B, ExecutionPlan(dp=1, ga_steps=32), 32)
        assert est.weights <= base.weights
