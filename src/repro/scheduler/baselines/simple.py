"""The "simple scheduler" of the paper's Fig. 8 micro-benchmark.

Equalizes GPU allocation across jobs and — to isolate the *policy* difference
from the *reconfiguration* capability — is allowed to reconfigure execution
plans: each job gets the best plan for its equal share.  Rubick beats it by
recognizing that jobs differ in resource sensitivity (it gave T5 3 GPUs and
RoBERTa 1 in the paper's experiment, an 85% aggregate improvement).
"""

from __future__ import annotations

from repro.plans.memory import host_mem_demand_per_node
from repro.cluster.state import Cluster
from repro.perfmodel.shape import ResourceShape
from repro.planeval import DEFAULT_CPUS_PER_GPU
from repro.scheduler.baselines.common import FreePool
from repro.scheduler.interfaces import (
    Allocation,
    SchedulerPolicy,
    SchedulingContext,
)
from repro.scheduler.job import Job
from repro.scheduler.selectors import BestPlanSelector


class SimpleEqualPolicy(SchedulerPolicy):
    name = "simple"

    def steady_state(self, jobs, ctx) -> bool:
        # Pure function of the active-job set (equal shares by arrival order);
        # never reads the clock, so steady-state rounds can skip it.
        return True

    def __init__(self):
        self._selector: BestPlanSelector | None = None

    def _ensure(self, ctx: SchedulingContext) -> BestPlanSelector:
        if self._selector is None:
            self._selector = BestPlanSelector(self.engine_for(ctx))
        return self._selector

    def schedule(
        self, jobs: list[Job], cluster: Cluster, ctx: SchedulingContext
    ) -> dict[str, Allocation]:
        selector = self._ensure(ctx)
        active = sorted(
            (j for j in jobs if j.is_active), key=lambda j: j.spec.submit_time
        )
        if not active:
            return {}
        total_gpus = ctx.cluster_spec.total_gpus
        share = max(total_gpus // len(active), 1)

        allocations: dict[str, Allocation] = {}
        pool = FreePool(cluster, keep_job_ids=set())
        node_size = ctx.cluster_spec.node.num_gpus
        for job in active:
            gpus = min(share, total_gpus)
            # Round down to a count where some plan is feasible.
            curve = selector.curve(job)
            g = min(gpus, curve.max_gpus)
            while g > 0 and curve.config_at(g) is None:
                g -= 1
            if g <= 0:
                continue
            cfg = curve.config_at(g)
            shape = ResourceShape.packed(
                g, node_size=node_size, cpus=g * DEFAULT_CPUS_PER_GPU
            )
            best = selector.best(job, shape) or cfg
            if best is None:
                continue
            plan = best.plan
            placement = pool.allocate_packed(
                plan.num_gpus,
                host_mem_per_node=lambda gg, j=job, p=plan: host_mem_demand_per_node(
                    j.model, p, j.spec.global_batch, gg
                ),
            )
            if placement is None:
                continue
            allocations[job.job_id] = Allocation(placement, plan)
        return allocations
