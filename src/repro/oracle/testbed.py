"""The synthetic testbed: ground-truth performance for the reproduction.

This module stands in for the paper's 64-GPU A800 cluster running
DeepSpeed/Megatron (see DESIGN.md, "Hardware substitution statement").  It
answers exactly the questions the real testbed answers:

* "run this (model, plan, placement) — what throughput do you observe?"
  (:meth:`SyntheticTestbed.true_throughput`, with optional measurement noise
  via :meth:`measure`),
* "does it even launch, or does it OOM?" (:meth:`check_feasible`),
* "what does the framework profiler report for a forward pass?"
  (:meth:`profiled_fwd_ref`).

Ground truth = the paper's structural formulas + hidden per-model constants
+ the systematic effects of `repro.oracle.effects` + (for measurements only)
log-normal sampling noise.  Scheduler code never reads the hidden constants;
it interacts with the testbed only through these measurement APIs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec, NodeSpec
from repro.errors import OutOfMemoryError
from repro.models.specs import ModelSpec
from repro.oracle.effects import EffectCoefficients, TestbedEffects
from repro.perfmodel.components import compute_breakdown
from repro.perfmodel.params import PerfParams
from repro.perfmodel.shape import Interconnect, ResourceShape
from repro.plans.memory import estimate_memory, host_mem_demand_per_node
from repro.plans.plan import ExecutionPlan
from repro.rng import rng_for

#: A800 dense bf16 peak, used to derive a plausible per-sample forward time.
A800_PEAK_FLOPS = 312e12


@dataclass(frozen=True)
class HiddenTruth:
    """Per-model hidden ground-truth constants (never shown to the scheduler)."""

    params: PerfParams
    t_fwd_ref: float
    mfu: float  # achieved fraction of peak FLOPs at large batch

    @staticmethod
    def sample(seed: int, model: ModelSpec) -> "HiddenTruth":
        rng = rng_for(seed, "testbed-truth", model.name)
        mfu = float(rng.uniform(0.38, 0.52))
        t_fwd_ref = model.fwd_flops_per_sample / (A800_PEAK_FLOPS * mfu)
        params = PerfParams(
            k_bwd=float(rng.uniform(1.8, 2.4)),
            k_sync=float(rng.uniform(1.6, 3.0)),
            k_opt=float(rng.uniform(3e-11, 8e-11)),
            # CPU Adam processes O(100M) params/s/core: offloaded updates are
            # painful unless many cores are allocated (paper Fig. 2/3).
            k_opt_off=float(rng.uniform(4.0e-9, 1.2e-8)),
            k_off=float(rng.uniform(1.5, 3.0)),
            k_swap=float(rng.uniform(1.5, 3.0)),
            k_const=float(rng.uniform(0.02, 0.08)),
        )
        return HiddenTruth(params=params, t_fwd_ref=t_fwd_ref, mfu=mfu)


class SyntheticTestbed:
    """Deterministic ground-truth oracle for a cluster spec.

    Args:
        cluster: Hardware shape (GPU memory, bandwidths) the testbed emulates.
        seed: Root seed for hidden constants and measurement noise.
        measurement_noise: Log-normal sigma of profiling measurements
            (real iteration-time measurements jitter by a percent or two).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        seed: int = 0,
        measurement_noise: float = 0.015,
    ):
        self.cluster = cluster
        self.seed = seed
        self.measurement_noise = measurement_noise
        self.env = Interconnect.from_cluster(cluster)
        self._truths: dict[str, HiddenTruth] = {}
        self._effects: dict[str, TestbedEffects] = {}

    @property
    def key(self) -> tuple:
        """Everything ground truth and measurements read: two testbeds
        with equal keys answer every query alike."""
        return (type(self), self.cluster, self.seed, self.measurement_noise)

    # ------------------------------------------------------------------
    # Hidden state accessors (internal)
    # ------------------------------------------------------------------
    def _truth(self, model: ModelSpec) -> HiddenTruth:
        if model.name not in self._truths:
            self._truths[model.name] = HiddenTruth.sample(self.seed, model)
        return self._truths[model.name]

    def _effect(self, model: ModelSpec) -> TestbedEffects:
        if model.name not in self._effects:
            self._effects[model.name] = TestbedEffects(
                EffectCoefficients.sample(self.seed, model.name)
            )
        return self._effects[model.name]

    # ------------------------------------------------------------------
    # Feasibility (launch-or-OOM)
    # ------------------------------------------------------------------
    def check_feasible(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
        *,
        gpu_mem_override: float | None = None,
        host_mem_override: float | None = None,
    ) -> None:
        """Raise :class:`OutOfMemoryError` if the plan cannot launch.

        ``gpu_mem_override`` / ``host_mem_override`` support the paper's
        resource-limit experiments (Fig. 3b caps host memory at 10 GB).
        """
        if plan.num_gpus != shape.gpus:
            raise OutOfMemoryError(
                f"plan occupies {plan.num_gpus} GPUs but shape has {shape.gpus}"
            )
        node: NodeSpec = self.cluster.node
        gpu_budget = (
            gpu_mem_override if gpu_mem_override is not None else node.usable_gpu_mem
        )
        est = estimate_memory(model, plan, global_batch)
        if est.gpu_total > gpu_budget:
            raise OutOfMemoryError(
                f"{model.name} {plan.describe()}: per-GPU demand "
                f"{est.gpu_total / 2**30:.1f} GiB exceeds budget "
                f"{gpu_budget / 2**30:.1f} GiB"
            )
        host_budget = (
            host_mem_override if host_mem_override is not None else node.host_mem
        )
        # The densest node of the placement carries the largest host share.
        densest = max(shape.min_gpus_per_node, -(-shape.gpus // max(shape.num_nodes, 1)))
        per_node_host = host_mem_demand_per_node(
            model, plan, global_batch, gpus_on_node=densest
        )
        if per_node_host > host_budget:
            raise OutOfMemoryError(
                f"{model.name} {plan.describe()}: per-node host demand "
                f"{per_node_host / 1e9:.0f} GB exceeds budget "
                f"{host_budget / 1e9:.0f} GB"
            )

    def is_feasible(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
        **overrides: float | None,
    ) -> bool:
        try:
            self.check_feasible(model, plan, shape, global_batch, **overrides)
            return True
        except OutOfMemoryError:
            return False

    # ------------------------------------------------------------------
    # Ground-truth performance
    # ------------------------------------------------------------------
    def true_iter_time(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
    ) -> float:
        """Noise-free ground-truth iteration time (drives simulation progress)."""
        truth = self._truth(model)
        return compute_breakdown(
            model=model,
            plan=plan,
            shape=shape,
            env=self.env,
            params=truth.params,
            t_fwd_ref=truth.t_fwd_ref,
            global_batch=global_batch,
            effects=self._effect(model),
        ).t_iter

    def true_throughput(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
        *,
        check_memory: bool = True,
        gpu_mem_override: float | None = None,
        host_mem_override: float | None = None,
    ) -> float:
        """Ground-truth samples/second; raises OOM if infeasible."""
        if check_memory:
            self.check_feasible(
                model,
                plan,
                shape,
                global_batch,
                gpu_mem_override=gpu_mem_override,
                host_mem_override=host_mem_override,
            )
        return global_batch / self.true_iter_time(model, plan, shape, global_batch)

    def measure(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
        *,
        run_id: int = 0,
    ) -> float:
        """One *measured* throughput sample (ground truth × log-normal noise).

        ``run_id`` distinguishes repeated measurements of the same
        configuration; the noise stream is deterministic in (seed, config,
        run_id).
        """
        true = self.true_throughput(model, plan, shape, global_batch)
        rng = rng_for(
            self.seed,
            "testbed-measure",
            model.name,
            repr(plan),
            shape,
            global_batch,
            run_id,
        )
        return float(true * rng.lognormal(mean=0.0, sigma=self.measurement_noise))

    # ------------------------------------------------------------------
    # Framework-profiler analog
    # ------------------------------------------------------------------
    def profiled_fwd_ref(self, model: ModelSpec, *, run_id: int = 0) -> float:
        """Per-sample forward time as reported by the framework profiler.

        Real frameworks time individual layers/ops, so this is available even
        for models too large for a single GPU (the profiler aggregates
        per-layer timings).  Carries the same measurement noise as any other
        profiling run.
        """
        truth = self._truth(model)
        rng = rng_for(self.seed, "testbed-fwd-profile", model.name, run_id)
        return float(
            truth.t_fwd_ref * rng.lognormal(mean=0.0, sigma=self.measurement_noise)
        )
