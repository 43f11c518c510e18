"""Plan selectors: how a policy maps a resource shape to an execution plan.

Rubick and its ablations differ in one thing, the execution plans a job may
take (paper §7.3):

* :class:`BestPlanSelector` — full reconfigurability (Rubick, Rubick-E).
* :class:`ScaledDpSelector` — the plan *type* is frozen at submission; only
  the DP dimension scales with the GPU count (Rubick-R, and Sia's scaling
  approach for 3D-parallel jobs).
* :class:`FixedPlanSelector` — the submitted plan, verbatim, at exactly its
  GPU count (Rubick-N, Synergy, AntMan).

Each selector states its restriction once, as :meth:`PlanSelector.request`:
the engine request (candidates, memo key, memory filters) for a job at a
shape, or ``None`` where the shape can host no permitted plan.  The base
class derives everything a policy asks from it — the best plan at a shape,
a batch of them, CPU slopes and the restricted sensitivity curve — and the
policy's shared :class:`~repro.planeval.PlanEvalEngine` answers, so every
answer follows online refits through the engine's per-model versioning.
The selectors hold no caches of their own.
"""

from __future__ import annotations

import abc

from repro.perfmodel.shape import ResourceShape
from repro.planeval import BestConfig, GpuCurve, PlanEvalEngine, PlanRequest
from repro.plans.plan import ExecutionPlan
from repro.scheduler.job import Job


class PlanSelector(abc.ABC):
    """Maps (job, shape) -> best permitted plan, with matching curves."""

    #: Names the restriction in memo keys, next to the submitted plan.
    restriction: str

    def __init__(self, engine: PlanEvalEngine):
        self.engine = engine

    @abc.abstractmethod
    def request(self, job: Job, shape: ResourceShape) -> PlanRequest | None:
        """The engine request for the job's permitted plans at ``shape``,
        or None if the shape can host none.  Neither the answer nor the
        candidates may read ``shape.cpus``: one request's restriction
        serves every CPU count of the shape class."""

    def best(self, job: Job, shape: ResourceShape) -> BestConfig | None:
        """Best permitted plan for the job on an exact shape (or None)."""
        req = self.request(job, shape)
        return None if req is None else self.engine.best_of(req)

    def best_many(
        self, pairs: list[tuple[Job, ResourceShape]]
    ) -> list[BestConfig | None]:
        """:meth:`best` of each ``(job, shape)`` pair, in one engine call."""
        return self.engine.best_of_many(
            [self.request(job, shape) for job, shape in pairs]
        )

    def _row(
        self, job: Job, shape: ResourceShape, count: int
    ) -> list[BestConfig | None]:
        """:meth:`best` at ``shape.cpus``, ``+1``, …, ``+count-1`` CPUs."""
        req = self.request(job, shape)
        if req is None:
            return [None] * count
        return self.engine.best_row(req, count)

    def curve(self, job: Job) -> GpuCurve:
        """GPU sensitivity curve under this selector's plan restriction,
        read from the engine's curve memo."""
        return self.engine.curve_of(
            job.model,
            job.spec.global_batch,
            (self.restriction, job.spec.initial_plan),
            lambda shape: self.best(job, shape),
        )

    # ------------------------------------------------------------------
    # Slopes
    # ------------------------------------------------------------------
    def gpu_slope_up(self, job: Job, gpus: int) -> float:
        """Marginal gain of more GPUs, looking past gang-size plateaus."""
        return self.curve(job).lookahead_slope_up(gpus)

    def gpu_slope_down(self, job: Job, gpus: int) -> float:
        return self.curve(job).slope_down(gpus)

    def cpu_slopes_up(
        self, job: Job, shape: ResourceShape, n: int
    ) -> list[float]:
        """:meth:`cpu_slope_up` at ``shape.cpus``, ``+1``, …, ``+n-1``
        CPUs, read from one engine row."""
        row = self._row(job, shape, n + 1)
        return [
            more.throughput - base.throughput
            if base is not None and more is not None
            else 0.0
            for base, more in zip(row, row[1:])
        ]

    def cpu_slope_up(self, job: Job, shape: ResourceShape) -> float:
        return self.cpu_slopes_up(job, shape, 1)[0]

    def cpu_slope_down(self, job: Job, shape: ResourceShape) -> float:
        if shape.cpus - 1 < max(shape.gpus, 1):
            return float("inf")
        less, base = self._row(job, shape.with_cpus(shape.cpus - 1), 2)
        if base is None or less is None:
            return float("inf")
        return base.throughput - less.throughput


class BestPlanSelector(PlanSelector):
    """Full plan reconfigurability: the engine's full-space search."""

    def request(self, job: Job, shape: ResourceShape) -> PlanRequest | None:
        if shape.gpus <= 0:
            return None
        return PlanRequest(job.model, job.spec.global_batch, shape)

    def curve(self, job: Job) -> GpuCurve:
        return self.engine.curve(job.model, job.spec.global_batch)


class ScaledDpSelector(PlanSelector):
    """Frozen plan type; only the DP size adapts to the GPU count.

    For a DP-family plan the DP size becomes the GPU count (GA re-chosen to
    keep the batch divisible).  For a 3D plan the TP/PP sizes are frozen and
    DP = gpus / (tp·pp) — the paper's description of Sia's claimed scaling.
    """

    restriction = "scaled_dp"

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

    def request(self, job: Job, shape: ResourceShape) -> PlanRequest | None:
        if shape.gpus <= 0:
            return None
        return PlanRequest(
            job.model,
            job.spec.global_batch,
            shape,
            lambda: self._candidates(job, shape.gpus, shape.min_gpus_per_node),
            (self.restriction, job.spec.initial_plan),
            check_gpu_mem=True,
        )


class FixedPlanSelector(PlanSelector):
    """The submitted plan only, at exactly its GPU count."""

    restriction = "fixed"

    @classmethod
    def submitted(cls, job: Job, shape: ResourceShape) -> PlanRequest:
        """The submitted plan at ``shape``, without :meth:`request`'s shape
        guards: Rubick's SLA baseline scores it at the requested shape,
        which may hold more GPUs than the plan uses."""
        plan = job.spec.initial_plan
        return PlanRequest(
            job.model,
            job.spec.global_batch,
            shape,
            (plan,),
            (cls.restriction, plan),
            check_host_mem=False,
        )

    def request(self, job: Job, shape: ResourceShape) -> PlanRequest | None:
        plan = job.spec.initial_plan
        if shape.gpus != plan.num_gpus:
            return None
        if plan.tp > max(shape.min_gpus_per_node, 1):
            return None
        return self.submitted(job, shape)
