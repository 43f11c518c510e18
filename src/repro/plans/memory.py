"""GPU / host memory model for execution plans.

This module plays the role of DeepSpeed/Megatron's memory estimators in the
real Rubick (paper §6: "Rubick relies on the inherent capability of DeepSpeed
and Megatron to estimate the memory consumption").  It is the ground truth for
OOM feasibility in the synthetic testbed *and* the scheduler's ``AllocMem``
input (paper Alg. 1 line 21), which is faithful to the paper: both sides of
the system use the same framework-provided estimate.

Accounting (mixed-precision Adam, the paper's training setup):

* fp16 weights:           ``2·P`` bytes, partitioned by ``t·p``.
* fp16 gradients:         ``2·P`` bytes, partitioned by ``t·p``; additionally
                          by ``d`` under ZeRO-2; reduced to a one-layer bucket
                          under ZeRO-Offload (gradients stream to host).
* Adam states (fp32 master + 2 moments): ``12·P`` bytes, partitioned by
                          ``t·p``; additionally by ``d`` under ZeRO-2; moved
                          entirely to host under ZeRO-Offload.
* activations:            Megatron's per-layer estimate
                          ``s·mbs·h·(34 + 5·heads·s/h)`` bytes, divided by
                          ``t``; with GC only the 2-byte/elem layer-boundary
                          tensors persist plus one layer of recompute
                          workspace; pipeline stages hold up to ``min(m, p)``
                          in-flight micro-batches (1F1B).
* logits buffer:          ``6·mbs·s·vocab/t`` bytes for language models (fp16
                          logits + fp32 loss computation).
* workspace:              fixed cuBLAS/cuDNN + fragmentation slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.models.specs import ModelSpec
from repro.plans.plan import ExecutionPlan, ZeroStage
from repro.units import GiB

#: Megatron activation-memory coefficient: bytes per (token × hidden) per
#: layer without recomputation (attention + MLP intermediates, fp16).
ACT_BYTES_COEFF = 34.0
#: Attention-score term coefficient from the same estimate (5·heads·s/h).
ACT_ATTN_COEFF = 5.0
#: Bytes per element of a layer-boundary activation kept under GC (fp16).
GC_BOUNDARY_BYTES = 2.0
#: Fixed per-GPU workspace (cuBLAS/cuDNN handles, comm buffers, fragmentation).
WORKSPACE_BYTES = 1.5 * GiB
#: Host-memory base footprint per job (dataset cache, checkpoint staging).
HOST_BASE_BYTES = 4.0 * GiB
#: Host bytes per parameter held by ZeRO-Offload (fp32 master + 2 moments +
#: fp16 gradient copy = 14 bytes/param, partitioned across DP ranks — the sum
#: over ranks is the whole model).
OFFLOAD_HOST_BYTES_PER_PARAM = 14.0


@dataclass(frozen=True)
class MemoryEstimate:
    """Estimated footprint of (model, plan, batch) on one GPU and on hosts."""

    weights: float
    gradients: float
    optimizer: float
    activations: float
    logits: float
    workspace: float
    host_total: float  # summed over all nodes (job-wide host demand)

    @property
    def gpu_total(self) -> float:
        """Per-GPU device memory demand in bytes."""
        return (
            self.weights
            + self.gradients
            + self.optimizer
            + self.activations
            + self.logits
            + self.workspace
        )


def _activation_bytes_per_layer(model: ModelSpec, mbs: int, tp: int) -> float:
    """Full (no-GC) activation bytes for one transformer layer, one micro-batch."""
    s, h = model.seq_len, model.hidden_size
    attn_term = ACT_ATTN_COEFF * model.num_heads * s / h
    return s * mbs * h * (ACT_BYTES_COEFF + attn_term) / tp


@lru_cache(maxsize=200_000)
def estimate_memory(
    model: ModelSpec,
    plan: ExecutionPlan,
    global_batch: int,
) -> MemoryEstimate:
    """Estimate the per-GPU and host memory footprint of a plan.

    Raises :class:`repro.errors.InfeasiblePlanError` if the plan is
    structurally invalid for the model/batch (via ``micro_batch_size``).
    All inputs are immutable value objects, so results are memoized.
    """
    p_count = model.param_count
    shard = plan.tp * plan.pp  # model-state partition factor of 3D parallelism
    mbs = plan.micro_batch_size(global_batch)

    weights = 2.0 * p_count / shard

    if plan.zero == ZeroStage.OFFLOAD:
        # Gradients stream to host in one-layer buckets.
        gradients = 2.0 * p_count / model.num_layers
    elif plan.zero == ZeroStage.ZERO_DP:
        gradients = 2.0 * p_count / (shard * plan.dp) + 2.0 * p_count / model.num_layers
    else:
        gradients = 2.0 * p_count / shard

    if plan.zero == ZeroStage.OFFLOAD:
        optimizer = 0.0
    elif plan.zero == ZeroStage.ZERO_DP:
        optimizer = 12.0 * p_count / (shard * plan.dp)
    else:
        optimizer = 12.0 * p_count / shard

    layers_per_stage = model.num_layers // plan.pp
    inflight = min(plan.micro_batches, plan.pp) if plan.pp > 1 else 1
    full_layer = _activation_bytes_per_layer(model, mbs, plan.tp)
    if plan.gc:
        boundary = GC_BOUNDARY_BYTES * model.seq_len * mbs * model.hidden_size / plan.tp
        activations = boundary * layers_per_stage * inflight + full_layer
    else:
        activations = full_layer * layers_per_stage * inflight

    if model.is_language_model:
        # Only the stage holding the LM head materializes logits; we size
        # per-GPU demand conservatively and charge every GPU as if it could
        # host the head (the last pipeline stage does).
        logits = 6.0 * mbs * model.seq_len * model.vocab_size / plan.tp
    else:
        logits = 0.0

    host_total = HOST_BASE_BYTES
    if plan.zero == ZeroStage.OFFLOAD:
        host_total += OFFLOAD_HOST_BYTES_PER_PARAM * p_count

    return MemoryEstimate(
        weights=weights,
        gradients=gradients,
        optimizer=optimizer,
        activations=activations,
        logits=logits,
        workspace=WORKSPACE_BYTES,
        host_total=host_total,
    )


@lru_cache(maxsize=200_000)
def host_mem_demand_per_node(
    model: ModelSpec,
    plan: ExecutionPlan,
    global_batch: int,
    gpus_on_node: int,
) -> int:
    """Host memory the job needs on a node holding ``gpus_on_node`` of its GPUs.

    ZeRO-Offload's host state is partitioned across DP ranks, so a node's
    share is proportional to the fraction of the job's GPUs it hosts.  This
    is the per-node quantity ``AllocMem`` (paper Alg. 1) reserves, in whole
    bytes rounded up.
    """
    est = estimate_memory(model, plan, global_batch)
    frac = gpus_on_node / max(plan.num_gpus, 1)
    return math.ceil(est.host_total * frac)
