"""Workload profiling: collecting the sampled runs that fit the model.

Reproduces the paper's profiling workflow (§4.3, §7.1): for a new model type,
run a *minimum set of seven* short test configurations — at least three using
ZeRO-Offload — measure their throughput, read the framework profiler's
forward-pass time, and fit the seven parameters.

The profiler picks a deliberately diverse default set: it varies the DP size
(identifying ``k_sync``/``k_opt``), toggles GC (identifying ``k_bwd``'s
recompute term), and varies CPU count across the offload runs (identifying
``k_opt_off`` separately from ``k_off``/``k_swap``).

A fit is a pure function of the testbed's identity (cluster, seed, noise),
the model, the batch and the GPU cap, so :func:`build_perf_model` memoizes
it per process: the paper reuses one fitted model "across multiple jobs of
the same model type", and a sweep's runs of the same scenario share their
fits the same way (DESIGN.md item 48).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FittingError
from repro.models.specs import ModelSpec
from repro.oracle.testbed import SyntheticTestbed
from repro.perfmodel.fitting import FitReport, ThroughputSample, fit_perf_model
from repro.perfmodel.model import PerfModel
from repro.perfmodel.shape import ResourceShape
from repro.plans.enumerate import enumerate_plans
from repro.plans.plan import ExecutionPlan

#: Wall-clock cost of one profiling run; 7 runs ≈ the paper's 210 s budget.
PROFILE_RUN_SECONDS = 30.0


@dataclass(frozen=True)
class ProfileConfig:
    """One profiling configuration: a plan on a resource shape."""

    plan: ExecutionPlan
    shape: ResourceShape


def default_profile_configs(
    testbed: SyntheticTestbed,
    model: ModelSpec,
    global_batch: int,
    *,
    max_gpus: int = 8,
) -> list[ProfileConfig]:
    """The standard 7-point profiling set for one model.

    Three ZeRO-Offload points with different CPU allocations, two DP-family
    points at different DP sizes, one GC point, and one model-parallel (or
    ZeRO-DP) point.  All on a single node, as in the paper (§7.3: "7 sampled
    tests on an 8-A800 server").
    """
    node_size = testbed.cluster.node.num_gpus
    max_gpus = min(max_gpus, node_size)
    cluster_gpus = testbed.cluster.total_gpus
    configs: list[ProfileConfig] = []
    plans_at: dict[int, list[ExecutionPlan]] = {}  # CPUs do not change them

    def add(gpus: int, predicate, cpus: int | None = None) -> None:
        """Add the first enumerated plan at ``gpus`` that satisfies
        ``predicate`` and fits in memory, unless it is already there."""
        shape = ResourceShape.packed(gpus, node_size=node_size, cpus=cpus)
        if gpus not in plans_at:
            plans_at[gpus] = enumerate_plans(
                model,
                global_batch,
                gpus,
                min_gpus_per_node=shape.min_gpus_per_node,
                gpu_mem_budget=testbed.cluster.node.usable_gpu_mem,
            )
        for plan in plans_at[gpus]:
            if predicate(plan) and testbed.is_feasible(model, plan, shape, global_batch):
                found = ProfileConfig(plan=plan, shape=shape)
                if found not in configs:
                    configs.append(found)
                return

    is_plain = lambda p: p.is_pure_dp_family and not p.uses_zero and not p.gc
    is_gc = lambda p: p.is_pure_dp_family and not p.uses_zero and p.gc
    is_zero = lambda p: p.zero.name == "ZERO_DP" and not p.gc
    is_off = lambda p: p.uses_offload and not p.gc
    is_off_any = lambda p: p.uses_offload
    is_mp = lambda p: p.tp > 1 or p.pp > 1

    def offload_count() -> int:
        return sum(1 for c in configs if c.plan.uses_offload)

    # Offload trio with CPU variation (identifies the three offload params).
    # Prefer no-GC offload; fall back to offload+GC for models whose
    # activations require recomputation (e.g. LLaMA-30B).
    for gpus, cpus in ((1, 4), (1, 16), (2, 8), (2, 24), (4, 16), (1, 8)):
        if offload_count() >= 3:
            break
        gpus = min(gpus, max_gpus)
        add(gpus, is_off, cpus=cpus)
        if offload_count() < 3:
            add(gpus, is_off_any, cpus=cpus)

    # DP-family at two sizes (identifies k_sync / k_opt / k_const).
    add(max_gpus, is_plain)
    add(max(max_gpus // 2, 1), is_plain)
    add(max_gpus, is_gc)
    add(max_gpus, is_zero)

    # Model-parallel points for large models (identifies TP/PP terms); one
    # multi-node point anchors the inter-node bandwidth behaviour that
    # 3D-parallel predictions at 16-64 GPUs depend on.
    add(max_gpus, is_mp)
    if model.param_count > 1e9 and 2 * node_size <= cluster_gpus:
        add(2 * node_size, is_mp)

    if len(configs) < 7:
        add(max(max_gpus // 4, 1), is_plain)
        add(max(max_gpus // 2, 1), is_gc)
        add(max(max_gpus // 2, 1), is_zero)
        add(max(max_gpus // 2, 1), is_mp)

    # Models too large for a single node (e.g. LLaMA-30B needs tp·pp >= 8)
    # escalate to multi-node profiling shapes, mirroring how the paper
    # profiles 3D-parallel plans "using more GPUs" for >1B models (§7.1).
    if len(configs) < 7:
        for gpus in (2 * node_size, 3 * node_size, 4 * node_size):
            if gpus > cluster_gpus:
                break
            add(gpus, is_mp)
            add(gpus, lambda p: is_mp(p) and p.dp > 1)
            add(gpus, lambda p: is_mp(p) and p.pp > 1 and p.tp > 1)
            add(gpus, is_zero)
            add(gpus, is_off_any, cpus=gpus * 4)
            if len(configs) >= 9:
                break

    if len(configs) < 7:
        raise FittingError(
            f"{model.name}: could not assemble 7 feasible profiling configs "
            f"(got {len(configs)}) — model may not fit the cluster at any plan"
        )
    return configs[:10]


def collect_samples(
    testbed: SyntheticTestbed,
    model: ModelSpec,
    global_batch: int,
    configs: list[ProfileConfig],
) -> list[ThroughputSample]:
    """Measure each configuration once on the testbed."""
    return [
        ThroughputSample(
            plan=cfg.plan,
            shape=cfg.shape,
            global_batch=global_batch,
            throughput=testbed.measure(
                model, cfg.plan, cfg.shape, global_batch, run_id=i
            ),
        )
        for i, cfg in enumerate(configs)
    ]


#: Per-process fit memo: every input the fit reads -> its frozen result.
#: Failures raise before the store, so they are never cached.
_FIT_MEMO: dict[tuple, tuple[PerfModel, FitReport]] = {}


def build_perf_model(
    testbed: SyntheticTestbed,
    model: ModelSpec,
    global_batch: int,
    *,
    max_gpus: int = 8,
) -> tuple[PerfModel, FitReport]:
    """End-to-end profiling + fitting for one model type (paper phase ①).

    Memoized per process on everything the fit reads; a hit returns the
    same frozen ``(PerfModel, FitReport)`` pair as the first call.
    """
    key = (testbed.key, model, global_batch, max_gpus)
    hit = _FIT_MEMO.get(key)
    if hit is not None:
        return hit
    configs = default_profile_configs(
        testbed, model, global_batch, max_gpus=max_gpus
    )
    samples = collect_samples(testbed, model, global_batch, configs)
    fitted = fit_perf_model(
        model,
        testbed.env,
        testbed.profiled_fwd_ref(model),
        samples,
    )
    _FIT_MEMO[key] = fitted
    return fitted


def profiling_cost_seconds(num_configs: int = 7) -> float:
    """Wall-clock profiling budget (paper §7.3 reports 210 s for 7 runs)."""
    return num_configs * PROFILE_RUN_SECONDS
