"""Plan selectors: how a policy maps a resource shape to an execution plan.

The full Rubick treats the entire plan space as reconfigurable; the ablation
variants and baselines restrict it (paper §7.3):

* :class:`BestPlanSelector` — full reconfigurability (Rubick, Rubick-E).
* :class:`ScaledDpSelector` — the plan *type* is frozen at submission; only
  the DP dimension scales with the GPU count (Rubick-R, and Sia's scaling
  approach for 3D-parallel jobs).
* :class:`FixedPlanSelector` — the submitted plan, verbatim, at exactly its
  GPU count (Rubick-N, Synergy, AntMan).

Selectors also expose sensitivity curves consistent with their restriction,
so slope-based ranking reflects what each policy can actually do.  All
scoring and memoization routes through the policy's shared
:class:`~repro.planeval.PlanEvalEngine`: restricted selectors hand the
engine their candidate lists (``best_of``) and curve builders
(``curve_of``) under a restriction key, and the engine's per-model refit
versioning keeps every cached result consistent with online model updates —
the selectors hold no caches of their own.
"""

from __future__ import annotations

import abc

from repro.perfmodel.shape import ResourceShape
from repro.planeval import BestConfig, GpuCurve, PlanEvalEngine, PlanRequest
from repro.plans.plan import ExecutionPlan
from repro.scheduler.job import Job


class PlanSelector(abc.ABC):
    """Maps (job, shape) -> best permitted plan, with matching curves."""

    def __init__(self, engine: PlanEvalEngine):
        self.engine = engine

    @abc.abstractmethod
    def best(self, job: Job, shape: ResourceShape) -> BestConfig | None:
        """Best permitted plan for the job on an exact shape (or None)."""

    @abc.abstractmethod
    def curve(self, job: Job) -> GpuCurve:
        """GPU sensitivity curve under this selector's plan restriction,
        read from the engine's curve memo."""

    # ------------------------------------------------------------------
    # Slopes shared by all selectors
    # ------------------------------------------------------------------
    def gpu_slope_up(self, job: Job, gpus: int) -> float:
        """Marginal gain of more GPUs, looking past gang-size plateaus."""
        return self.curve(job).lookahead_slope_up(gpus)

    def gpu_slope_down(self, job: Job, gpus: int) -> float:
        return self.curve(job).slope_down(gpus)

    def cpu_slope_up(self, job: Job, shape: ResourceShape) -> float:
        base = self.best(job, shape)
        more = self.best(job, shape.with_cpus(shape.cpus + 1))
        if base is None or more is None:
            return 0.0
        return more.throughput - base.throughput

    def cpu_slopes_up(
        self, job: Job, shape: ResourceShape, n: int
    ) -> list[float]:
        """:meth:`cpu_slope_up` at ``shape.cpus``, ``+1``, …, ``+n-1`` CPUs.

        The base implementation loops; selectors whose ``best`` is one
        engine request override it to read the whole run from one
        :meth:`~repro.planeval.PlanEvalEngine.best_row`.
        """
        return [
            self.cpu_slope_up(job, shape.with_cpus(shape.cpus + i))
            for i in range(n)
        ]

    def cpu_slope_down(self, job: Job, shape: ResourceShape) -> float:
        if shape.cpus - 1 < max(shape.gpus, 1):
            return float("inf")
        base = self.best(job, shape)
        less = self.best(job, shape.with_cpus(shape.cpus - 1))
        if base is None or less is None:
            return float("inf")
        return base.throughput - less.throughput


def _slopes(row: list[BestConfig | None]) -> list[float]:
    """Throughput gain of each step along a row of best configs."""
    return [
        more.throughput - base.throughput
        if base is not None and more is not None
        else 0.0
        for base, more in zip(row, row[1:])
    ]


class BestPlanSelector(PlanSelector):
    """Full plan reconfigurability: the engine's full-space search."""

    def best(self, job: Job, shape: ResourceShape) -> BestConfig | None:
        return self.engine.best(job.model, job.spec.global_batch, shape)

    def cpu_slopes_up(
        self, job: Job, shape: ResourceShape, n: int
    ) -> list[float]:
        request = PlanRequest(job.model, job.spec.global_batch, shape)
        return _slopes(self.engine.best_row(request, n + 1))

    def curve(self, job: Job) -> GpuCurve:
        return self.engine.curve(job.model, job.spec.global_batch)


class ScaledDpSelector(PlanSelector):
    """Frozen plan type; only the DP size adapts to the GPU count.

    For a DP-family plan the DP size becomes the GPU count (GA re-chosen to
    keep the batch divisible).  For a 3D plan the TP/PP sizes are frozen and
    DP = gpus / (tp·pp) — the paper's description of Sia's claimed scaling.
    """

    def _candidates(
        self, job: Job, gpus: int, min_gpus_per_node: int
    ) -> list[ExecutionPlan]:
        base = job.spec.initial_plan
        batch = job.spec.global_batch
        shard = base.tp * base.pp
        if gpus % shard != 0:
            return []
        dp = gpus // shard
        if batch % dp != 0:
            return []
        if base.tp > max(min_gpus_per_node, 1):
            return []
        per_rank = batch // dp
        candidates = []
        if gpus == base.num_gpus:
            # Fallback semantics: the submitted plan itself is always a
            # candidate at its own GPU count (Sia "fallbacks to a feasible
            # 3D-parallel plan with the resource scaling disabled").
            candidates.append(base)
        if base.pp > 1:
            for mult in (1, 2, 4, 8, 16, 32, 64):
                m = base.pp * mult
                if m <= per_rank and per_rank % m == 0:
                    candidates.append(
                        ExecutionPlan(
                            dp=dp, tp=base.tp, pp=base.pp,
                            micro_batches=m, gc=base.gc,
                        )
                    )
            if not candidates:
                # Shallow pipelines (m < p) still run, just with bubbles.
                for m in range(min(base.pp, per_rank), 0, -1):
                    if per_rank % m == 0:
                        candidates.append(
                            ExecutionPlan(
                                dp=dp, tp=base.tp, pp=base.pp,
                                micro_batches=m, gc=base.gc,
                            )
                        )
                        break
        else:
            ga = 1
            while ga <= per_rank:
                if per_rank % ga == 0:
                    candidates.append(
                        ExecutionPlan(
                            dp=dp, tp=base.tp, pp=1, zero=base.zero,
                            ga_steps=ga, gc=base.gc,
                        )
                    )
                ga *= 2
        return list(dict.fromkeys(candidates))

    def best(self, job: Job, shape: ResourceShape) -> BestConfig | None:
        if shape.gpus <= 0:
            return None
        return self.engine.best_of(
            job.model,
            job.spec.global_batch,
            shape,
            lambda: self._candidates(job, shape.gpus, shape.min_gpus_per_node),
            key=("scaled_dp", job.spec.initial_plan),
            check_gpu_mem=True,
            check_host_mem=True,
        )

    def cpu_slopes_up(
        self, job: Job, shape: ResourceShape, n: int
    ) -> list[float]:
        if shape.gpus <= 0:
            return [0.0] * n
        request = PlanRequest(
            job.model,
            job.spec.global_batch,
            shape,
            candidates=lambda: self._candidates(
                job, shape.gpus, shape.min_gpus_per_node
            ),
            key=("scaled_dp", job.spec.initial_plan),
            check_gpu_mem=True,
        )
        return _slopes(self.engine.best_row(request, n + 1))

    def curve(self, job: Job) -> GpuCurve:
        return self.engine.curve_of(
            job.model,
            job.spec.global_batch,
            ("scaled_dp", job.spec.initial_plan),
            lambda shape: self.best(job, shape),
        )


class FixedPlanSelector(PlanSelector):
    """The submitted plan only, at exactly its GPU count."""

    def best(self, job: Job, shape: ResourceShape) -> BestConfig | None:
        plan = job.spec.initial_plan
        if shape.gpus != plan.num_gpus:
            return None
        if plan.tp > max(shape.min_gpus_per_node, 1):
            return None
        return self.engine.best_of(
            job.model,
            job.spec.global_batch,
            shape,
            (plan,),
            key=("fixed", plan),
        )

    def best_many(
        self, pairs: list[tuple[Job, ResourceShape]]
    ) -> list[BestConfig | None]:
        """One batched engine call for the whole pending queue.

        Pairs whose shape cannot host the submitted plan short-circuit to
        ``None`` exactly as :meth:`best` does; the rest become
        :class:`~repro.planeval.PlanRequest` entries resolved in one
        :meth:`~repro.planeval.PlanEvalEngine.best_of_many` pass.
        """
        out: list[BestConfig | None] = [None] * len(pairs)
        requests: list[PlanRequest] = []
        slots: list[int] = []
        for i, (job, shape) in enumerate(pairs):
            plan = job.spec.initial_plan
            if shape.gpus != plan.num_gpus:
                continue
            if plan.tp > max(shape.min_gpus_per_node, 1):
                continue
            requests.append(
                PlanRequest(
                    model=job.model,
                    global_batch=job.spec.global_batch,
                    shape=shape,
                    candidates=(plan,),
                    key=("fixed", plan),
                    check_host_mem=False,
                )
            )
            slots.append(i)
        for i, best in zip(slots, self.engine.best_of_many(requests)):
            out[i] = best
        return out

    def curve(self, job: Job) -> GpuCurve:
        return self.engine.curve_of(
            job.model,
            job.spec.global_batch,
            ("fixed", job.spec.initial_plan),
            lambda shape: self.best(job, shape),
        )
