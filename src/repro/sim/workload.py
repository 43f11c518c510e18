"""Synthetic Philly-like workload generation (paper §7.3 trace construction).

The paper down-samples the busiest 12 hours of Microsoft's published GPU
cluster trace to 406 jobs and assigns each a random catalog model and
execution plan.  The original trace is not redistributable here, so this
module generates a statistically similar synthetic trace:

* arrivals from a pluggable process (``repro.workloads.arrivals``; default:
  the paper's uniform background + two submission peaks over 12 hours),
* the trace's characteristic small-job-dominated GPU-size mix,
* log-normal durations,
* random model assignment with the paper's feasibility fix-up ("in case the
  original GPU number is infeasible for the model, we use a feasible one and
  change the duration accordingly to keep the same GPU hours"),
* Base (random feasible plan), BP (best plan for the initial resources) and
  MT (two-tenant guaranteed/best-effort) variants.

Workload *composition* — which arrival process with which job mix under
which name — lives one layer up in ``repro.workloads.registry``; this
module is the generator those scenarios expand through.  The default
config's draw sequence is unchanged, so default-scenario traces are
byte-identical to the pre-subsystem generator (golden-tested in
``tests/test_workloads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.topology import ClusterSpec, PAPER_CLUSTER
from repro.models.catalog import (
    LARGE_MODEL_NAMES,
    all_models,
    get_model,
    scaled_large_model_weights,
)
from repro.models.specs import ModelSpec
from repro.oracle.testbed import SyntheticTestbed
from repro.perfmodel.shape import ResourceShape
from repro.planeval import default_plan_space
from repro.plans.enumerate import enumerate_plans
from repro.plans.plan import ExecutionPlan
from repro.rng import rng_for
from repro.scheduler.job import JobPriority
from repro.sim.trace import Trace, TraceJob
from repro.units import HOUR, MINUTE
from repro.workloads.arrivals import UNIFORM_PEAKS, ArrivalProcess
from repro.workloads.mix import DEFAULT_GPU_MIX, validate_gpu_mix

__all__ = [
    "DEFAULT_GPU_MIX",
    "MODEL_MIN_GPUS",
    "WorkloadConfig",
    "generate_trace",
    "to_best_plan_trace",
    "to_multi_tenant_trace",
    "with_large_model_share",
]

#: Floors keeping requested sizes sane for the largest models (the paper
#: adjusts infeasible GPU numbers per model; see module docstring).
MODEL_MIN_GPUS = {"llama2-7b": 2, "llama-30b": 8}


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic trace generator."""

    num_jobs: int = 160
    span: float = 12 * HOUR
    seed: int = 0
    cluster: ClusterSpec = PAPER_CLUSTER
    gpu_mix: tuple[tuple[int, float], ...] = DEFAULT_GPU_MIX
    duration_median: float = 35 * MINUTE
    duration_sigma: float = 1.2
    min_duration: float = 3 * MINUTE
    max_duration: float = 8 * HOUR
    #: Relative sampling weight per model name (uniform when empty).
    model_weights: dict[str, float] = field(default_factory=dict)
    #: "random" (Base trace) or "best" (BP trace) initial plans.
    plan_assignment: str = "random"
    name: str = "base"
    #: When jobs arrive (pluggable; the default reproduces the paper's
    #: uniform-background + two-peaks shape draw for draw).
    arrival: ArrivalProcess = UNIFORM_PEAKS

    def __post_init__(self) -> None:
        validate_gpu_mix(self.gpu_mix, self.cluster)
        if self.num_jobs < 0:
            raise ValueError(f"num_jobs must be >= 0, got {self.num_jobs}")
        if self.span <= 0:
            raise ValueError(f"span must be positive, got {self.span}")


def _model_names(config: WorkloadConfig) -> tuple[list[str], list[float]]:
    names = [m.name for m in all_models()]
    weights = [config.model_weights.get(n, 1.0) for n in names]
    total = sum(weights)
    return names, [w / total for w in weights]


def _feasible_plans(
    model: ModelSpec,
    gpus: int,
    testbed: SyntheticTestbed,
) -> list[ExecutionPlan]:
    node_size = testbed.cluster.node.num_gpus
    shape = ResourceShape.packed(gpus, node_size=node_size, cpus=gpus * 4)
    plans = enumerate_plans(
        model,
        model.global_batch_size,
        gpus,
        min_gpus_per_node=shape.min_gpus_per_node,
        gpu_mem_budget=testbed.cluster.node.usable_gpu_mem,
        space=default_plan_space(model),
    )
    return [
        p
        for p in plans
        if testbed.is_feasible(model, p, shape, model.global_batch_size)
    ]


def _fix_gpu_request(
    model: ModelSpec, gpus: int, testbed: SyntheticTestbed
) -> tuple[int, list[ExecutionPlan]]:
    """Adjust an infeasible GPU request to the nearest feasible count.

    Memoized per testbed: the fix-up is a pure function of the testbed and
    the (model, requested-size) pair, and a datacenter trace draws the same
    few dozen pairs tens of thousands of times — without the memo each draw
    rebuilds an O(total_gpus) candidate list and enumerates plans for it,
    which dominates large-trace generation.  The memo lives on the testbed
    (dying with it) and the lookup consumes no RNG draws, so memoized
    generation is byte-identical to the direct path.
    """
    cache = getattr(testbed, "_fix_gpu_cache", None)
    if cache is None:
        cache = {}
        testbed._fix_gpu_cache = cache
    key = (model.name, gpus)
    hit = cache.get(key)
    if hit is None:
        hit = _fix_gpu_request_uncached(model, gpus, testbed)
        cache[key] = hit
    # Fresh list per call: `_pick_plan` callers own and may mutate it.
    return hit[0], list(hit[1])


def _fix_gpu_request_uncached(
    model: ModelSpec, gpus: int, testbed: SyntheticTestbed
) -> tuple[int, list[ExecutionPlan]]:
    max_gpus = testbed.cluster.total_gpus
    gpus = max(gpus, MODEL_MIN_GPUS.get(model.name, 1))
    gpus = min(gpus, max_gpus)  # a request can never exceed the cluster
    # Candidates by distance from the request: g, g+1, g-1, g+2, g-2, ...
    candidates = [gpus]
    for step in range(1, max_gpus):
        if gpus + step <= max_gpus:
            candidates.append(gpus + step)
        if gpus - step >= 1:
            candidates.append(gpus - step)
    for g in candidates:
        plans = _feasible_plans(model, g, testbed)
        if plans:
            return g, plans
    raise ValueError(f"no feasible GPU count for {model.name}")


def _pick_plan(
    plans: list[ExecutionPlan],
    model: ModelSpec,
    gpus: int,
    testbed: SyntheticTestbed,
    rng,
    assignment: str,
) -> ExecutionPlan:
    if assignment == "random":
        return plans[int(rng.integers(len(plans)))]
    if assignment == "best":
        node_size = testbed.cluster.node.num_gpus
        shape = ResourceShape.packed(gpus, node_size=node_size, cpus=gpus * 4)
        return max(
            plans,
            key=lambda p: testbed.true_throughput(
                model, p, shape, model.global_batch_size
            ),
        )
    raise ValueError(f"unknown plan assignment {assignment!r}")


def generate_trace(
    config: WorkloadConfig, testbed: SyntheticTestbed | None = None
) -> Trace:
    """Generate a synthetic trace per ``config`` (deterministic in the seed)."""
    testbed = testbed or SyntheticTestbed(config.cluster, seed=config.seed)
    rng = rng_for(config.seed, "workload", config.name, config.num_jobs)
    names, weights = _model_names(config)
    # Drop models the target cluster cannot even profile (e.g. LLaMA-30B on
    # a couple of nodes): a real operator would not submit them there.
    profilable = [_can_profile(testbed, name) for name in names]
    names = [n for n, ok in zip(names, profilable) if ok]
    weights = [w for w, ok in zip(weights, profilable) if ok]
    total = sum(weights)
    if total <= 0:
        raise ValueError("no profilable model has positive sampling weight")
    weights = [w / total for w in weights]
    arrivals = config.arrival.sample(rng, config.num_jobs, config.span)
    gpu_sizes = [g for g, _ in config.gpu_mix]
    gpu_weights = [w for _, w in config.gpu_mix]
    total_w = sum(gpu_weights)
    gpu_weights = [w / total_w for w in gpu_weights]

    jobs: list[TraceJob] = []
    for i, submit in enumerate(arrivals):
        model = get_model(names[int(rng.choice(len(names), p=weights))])
        raw_gpus = int(rng.choice(gpu_sizes, p=gpu_weights))
        gpus, plans = _fix_gpu_request(model, raw_gpus, testbed)
        duration = float(
            rng.lognormal(
                mean=_ln(config.duration_median), sigma=config.duration_sigma
            )
        )
        duration = min(max(duration, config.min_duration), config.max_duration)
        # Keep GPU-hours constant across the feasibility fix-up.
        if gpus != raw_gpus and gpus > 0:
            duration *= raw_gpus / gpus
            duration = min(max(duration, config.min_duration), config.max_duration)
        plan = _pick_plan(plans, model, gpus, testbed, rng, config.plan_assignment)
        jobs.append(
            TraceJob(
                job_id=f"job-{i:04d}",
                model_name=model.name,
                submit_time=submit,
                requested_gpus=gpus,
                duration=duration,
                initial_plan=plan,
                global_batch=model.global_batch_size,
            )
        )
    return Trace(jobs=tuple(jobs), name=config.name)


def _ln(x: float) -> float:
    import math

    return math.log(x)


def _can_profile(testbed: SyntheticTestbed, model_name: str) -> bool:
    """Whether the paper's 7-sample profiling set exists on this cluster."""
    from repro.errors import FittingError
    from repro.oracle.profiler import default_profile_configs

    model = get_model(model_name)
    try:
        default_profile_configs(testbed, model, model.global_batch_size)
        return True
    except FittingError:
        return False


# ----------------------------------------------------------------------
# Trace variants (paper §7.3)
# ----------------------------------------------------------------------
def to_best_plan_trace(
    trace: Trace, testbed: SyntheticTestbed, name: str = "bp"
) -> Trace:
    """BP variant: replace each job's plan with the best for its resources."""
    jobs = []
    for job in trace:
        model = job.model
        plans = _feasible_plans(model, job.requested_gpus, testbed)
        node_size = testbed.cluster.node.num_gpus
        shape = ResourceShape.packed(
            job.requested_gpus, node_size=node_size, cpus=job.requested_gpus * 4
        )
        best = max(
            plans,
            key=lambda p: testbed.true_throughput(
                model, p, shape, job.global_batch
            ),
        )
        jobs.append(replace(job, initial_plan=best))
    return Trace(jobs=tuple(jobs), name=name)


def to_multi_tenant_trace(
    trace: Trace,
    *,
    seed: int = 0,
    guaranteed_fraction: float = 0.5,
    name: str = "mt",
) -> Trace:
    """MT variant: Tenant-A (guaranteed, quota) vs Tenant-B (best-effort)."""
    rng = rng_for(seed, "mt-split", trace.name)

    def assign(job: TraceJob):
        if rng.random() < guaranteed_fraction:
            return JobPriority.GUARANTEED, "tenant-a"
        return JobPriority.BEST_EFFORT, "tenant-b"

    return trace.with_priorities(assign, name=name)


def with_large_model_share(
    config: WorkloadConfig, factor: float
) -> WorkloadConfig:
    """Scale the sampling weight of the large models (Fig. 11 sweep).

    Scales *on top of* any weights the config already carries (a scenario
    mix, say); with default uniform weights this reduces to the classic
    "everything 1.0, large models ``factor``" assignment.
    """
    weights = scaled_large_model_weights(1.0)
    weights.update(config.model_weights)
    for name in LARGE_MODEL_NAMES:
        weights[name] = weights[name] * factor
    return replace(
        config,
        model_weights=weights,
        name=f"{config.name}-large-x{factor:g}",
    )
