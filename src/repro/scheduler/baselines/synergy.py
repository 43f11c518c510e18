"""Synergy baseline (Mohan et al., OSDI'22) as characterized in Rubick §7.3.

Synergy "tunes CPU-memory allocation for GPU jobs with fixed GPU numbers":
GPU counts and execution plans are whatever the user submitted; the scheduler
gang-places jobs FIFO and then distributes each node's CPUs
*disproportionately* — jobs whose throughput is CPU-sensitive (ZeRO-Offload)
receive more than the proportional share, others less (with a 1-CPU/GPU
floor).  It never reconfigures plans and never resizes GPU allocations, which
is exactly the gap Rubick's evaluation measures against.
"""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.cluster.state import Cluster
from repro.perfmodel.shape import ResourceShape
from repro.scheduler.interfaces import (
    Allocation,
    SchedulerPolicy,
    SchedulingContext,
)
from repro.scheduler.job import Job, JobStatus
from repro.scheduler.baselines.common import FreePool, HostDemandMemo
from repro.scheduler.selectors import FixedPlanSelector


class SynergyPolicy(SchedulerPolicy):
    name = "synergy"

    def steady_state(self, jobs, ctx) -> bool:
        # Pure function of job/cluster state (FIFO by submit time + CPU slopes);
        # never reads the clock, so steady-state rounds can skip it.
        return True

    def __init__(self):
        self._selector: FixedPlanSelector | None = None
        self._host_demand = HostDemandMemo()

    def _ensure(self, ctx: SchedulingContext) -> FixedPlanSelector:
        if self._selector is None:
            self._selector = FixedPlanSelector(self.engine_for(ctx))
        return self._selector

    def schedule(
        self, jobs: list[Job], cluster: Cluster, ctx: SchedulingContext
    ) -> dict[str, Allocation]:
        selector = self._ensure(ctx)
        active = [j for j in jobs if j.is_active]
        running = [j for j in active if j.is_running]
        queued = sorted(
            (j for j in active if j.status == JobStatus.QUEUED),
            key=lambda j: j.spec.submit_time,
        )

        allocations: dict[str, Allocation] = {}
        for job in running:
            # The job's own placement is in lockstep with the cluster's
            # (``_apply`` sets both or neither), so reuse it instead of
            # reassembling an equal Placement from the node index.
            placement = job.placement
            if job.plan is not None and not placement.is_empty:
                allocations[job.job_id] = Allocation(placement, job.plan)

        pool = FreePool(cluster, keep_job_ids=set(allocations))
        for job in queued:
            plan = job.spec.initial_plan
            placement = pool.allocate_packed(
                job.spec.requested.gpus,
                cpus_per_gpu=1,  # floor; the CPU tuner tops up below
                host_mem_per_node=self._host_demand.fn(
                    job.model, plan, job.spec.global_batch
                ),
            )
            if placement is None:
                continue  # FIFO head-of-line blocking, as in gang scheduling
            allocations[job.job_id] = Allocation(placement, plan)

        self._tune_cpus(allocations, {j.job_id: j for j in active}, pool, selector)
        return allocations

    # ------------------------------------------------------------------
    def _tune_cpus(
        self,
        allocations: dict[str, Allocation],
        jobs: dict[str, Job],
        pool: FreePool,
        selector: FixedPlanSelector,
    ) -> None:
        """Distribute each node's remaining CPUs by CPU-sensitivity.

        The residents of each node come from a single inverted pass over the
        allocations (a job's placement names its nodes) instead of scanning
        every node × every allocation.  A resident's weight is its normalized
        CPU slope at its current whole-placement shape, read in one batched
        ``selector.best_many`` probe per node visit.  The shape is evaluated
        per node visit, so a multi-node job retuned on an earlier node
        brings its updated shape to later ones.
        """
        # node_id -> job ids placed there, in allocation-dict order (node
        # membership never changes below: with_share only retunes CPUs).
        residents_of: dict[int, list[str]] = {}
        for job_id, alloc in allocations.items():
            for node_id in alloc.placement.shares:
                residents_of.setdefault(node_id, []).append(job_id)
        for node_id in sorted(residents_of):
            residents = [
                (job_id, allocations[job_id])
                for job_id in residents_of[node_id]
            ]
            budget = pool.free_of(node_id)[1]
            # cpu_slope_up's two endpoints per resident: its current shape
            # and the +1-CPU probe, resolved in one batched engine pass.
            pairs = []
            for job_id, alloc in residents:
                job = jobs[job_id]
                shape = ResourceShape.from_placement(alloc.placement)
                pairs.append((job, shape))
                pairs.append((job, shape.with_cpus(shape.cpus + 1)))
            configs = selector.best_many(pairs)
            weights = []
            for base, more in zip(configs[::2], configs[1::2]):
                slope = (
                    more.throughput - base.throughput
                    if base is not None and more is not None
                    else 0.0
                )
                norm = base.throughput if base and base.throughput > 0 else 1.0
                weights.append(max(slope / norm, 0.0))
            # Summed in residents order: float addition is order-sensitive
            # and the distribution below must stay byte-identical.
            total_weight = sum(weights)
            for (job_id, alloc), weight in zip(residents, weights):
                share = alloc.placement.shares[node_id]
                if total_weight > 1e-12:
                    extra = int(budget * weight / total_weight)
                else:
                    extra = int(budget / len(residents))
                extra = min(extra, pool.free_of(node_id)[1])
                if extra <= 0:
                    continue
                new_share = ResourceVector(
                    share.gpus, share.cpus + extra, share.host_mem
                )
                pool.take_cpus(node_id, extra)
                allocations[job_id] = Allocation(
                    alloc.placement.with_share(node_id, new_share),
                    alloc.plan,
                )
