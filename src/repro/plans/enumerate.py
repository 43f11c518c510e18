"""Plan enumeration: the scheduler's search space of execution plans.

``enumerate_plans`` generates every structurally valid plan for a model on a
given GPU allotment, optionally filtered by device-memory feasibility.  This
is the search space behind the paper's ``GetBestPlan`` and the resource
sensitivity curves (§5.2): "Rubick searches for the best execution plan for a
job by enumerating the feasible plans".

The search space is deliberately the paper's (§3): Megatron 3D parallelism
with adjustable DP/TP/PP sizes, ZeRO-DP, ZeRO-Offload, and GA/GC layered on
the DP-family plans (plus GA/GC on TP/PP-combined plans as evaluated in
Fig. 3b, e.g. ``TP+DP+GA`` and ``TP+DP+GC``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.models.specs import ModelSpec
from repro.plans.memory import estimate_memory
from repro.plans.plan import ExecutionPlan, ZeroStage


@dataclass(frozen=True)
class PlanSpace:
    """Configuration of the enumeration search space.

    ``dp_family_only`` reproduces the paper's trace policy of disabling TP/PP
    for sub-1B models; ``fixed_zero``/``fixed_gc`` let baselines like Sia
    freeze the memory-optimization choices they cannot reason about.
    """

    dp_family_only: bool = False
    allow_zero: bool = True
    allow_offload: bool = True
    allow_ga: bool = True
    allow_gc: bool = True
    max_ga_steps: int = 64
    #: micro-batch counts for PP plans are chosen from p × these multipliers.
    #: Deep accumulation (large m) is what lets huge models shrink their
    #: per-pass activation footprint, so the range extends well past 4.
    micro_batch_multipliers: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


DEFAULT_SPACE = PlanSpace()
DP_FAMILY_SPACE = PlanSpace(dp_family_only=True)


def _parallel_triples(
    model: ModelSpec, gpus: int, min_gpus_per_node: int, global_batch: int
) -> list[tuple[int, int, int]]:
    """All (d, t, p) with d·t·p == gpus satisfying structural divisibility."""
    triples = []
    for tp in _divisors(gpus):
        if not model.valid_tp(tp, node_limit=max(min_gpus_per_node, 1)):
            continue
        rest = gpus // tp
        for pp in _divisors(rest):
            if not model.valid_pp(pp):
                continue
            dp = rest // pp
            if global_batch % dp != 0:
                continue
            triples.append((dp, tp, pp))
    return triples


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _ga_options(per_rank_batch: int, space: PlanSpace) -> list[int]:
    """GA step counts: powers of two dividing the per-rank batch."""
    options = [1]
    if not space.allow_ga:
        return options
    a = 2
    while a <= min(per_rank_batch, space.max_ga_steps):
        if per_rank_batch % a == 0:
            options.append(a)
        a *= 2
    return options


def _micro_batch_options(
    per_rank_batch: int, pp: int, space: PlanSpace
) -> list[int]:
    """Micro-batch counts m for 1F1B: multiples of p dividing the rank batch."""
    options = []
    for mult in space.micro_batch_multipliers:
        m = pp * mult
        if m <= per_rank_batch and per_rank_batch % m == 0:
            options.append(m)
    if not options and per_rank_batch >= 1:
        # Fall back to the largest feasible micro-batch count <= p.
        for m in range(min(pp, per_rank_batch), 0, -1):
            if per_rank_batch % m == 0:
                options.append(m)
                break
    return options


def enumerate_plans(
    model: ModelSpec,
    global_batch: int,
    gpus: int,
    *,
    min_gpus_per_node: int = 8,
    gpu_mem_budget: float | None = None,
    space: PlanSpace = DEFAULT_SPACE,
) -> list[ExecutionPlan]:
    """Enumerate valid plans for ``gpus`` GPUs (optionally memory-filtered).

    Args:
        model: Architecture spec.
        global_batch: Job's fixed global batch size ``b``.
        gpus: Total GPUs of the hypothetical allocation.
        min_gpus_per_node: Smallest per-node GPU share of the placement; caps
            the TP degree (TP stays intra-node).
        gpu_mem_budget: If given, drop plans whose per-GPU footprint exceeds
            it (the OOM filter).
        space: Search-space restrictions.

    Returns:
        Deduplicated plans; empty if nothing fits.
    """
    if gpus <= 0:
        return []
    plans: list[ExecutionPlan] = []
    gc_options = (False, True) if space.allow_gc else (False,)
    for dp, tp, pp in _parallel_triples(model, gpus, min_gpus_per_node, global_batch):
        if space.dp_family_only and (tp > 1 or pp > 1):
            continue
        per_rank = global_batch // dp
        if pp > 1:
            for m in _micro_batch_options(per_rank, pp, space):
                for gc in gc_options:
                    plans.append(
                        ExecutionPlan(
                            dp=dp, tp=tp, pp=pp, micro_batches=m, gc=gc
                        )
                    )
        else:
            zero_stages: list[ZeroStage] = [ZeroStage.NONE]
            if tp == 1:
                if space.allow_zero:
                    zero_stages.append(ZeroStage.ZERO_DP)
                if space.allow_offload:
                    zero_stages.append(ZeroStage.OFFLOAD)
            for zero in zero_stages:
                for ga in _ga_options(per_rank, space):
                    for gc in gc_options:
                        plans.append(
                            ExecutionPlan(
                                dp=dp, tp=tp, pp=pp, zero=zero,
                                ga_steps=ga, gc=gc,
                            )
                        )
    if gpu_mem_budget is not None:
        plans = [
            plan
            for plan in plans
            if estimate_memory(model, plan, global_batch).gpu_total
            <= gpu_mem_budget
        ]
    return plans
