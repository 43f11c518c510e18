"""AntMan baseline (Xiao et al., OSDI'20) as characterized in Rubick §7.3.

AntMan provides the same guaranteed / best-effort job taxonomy as Rubick but
guarantees *resources* rather than performance: guaranteed jobs receive
exactly their requested allocation (gang-scheduled FIFO within the tenant
quota, preempting best-effort jobs if needed); best-effort jobs run
opportunistically on leftover GPUs and are preempted whenever a guaranteed
job needs the space.  Plans and GPU counts are never reconfigured — AntMan
performs no plan selection at all, so it never builds a plan engine.
"""

from __future__ import annotations

from repro.cluster.state import Cluster
from repro.scheduler.baselines.common import FreePool, HostDemandMemo
from repro.scheduler.interfaces import (
    Allocation,
    SchedulerPolicy,
    SchedulingContext,
)
from repro.scheduler.job import Job, JobStatus


class AntManPolicy(SchedulerPolicy):
    name = "antman"

    def steady_state(self, jobs, ctx) -> bool:
        # Pure function of job/cluster state (FIFO within quota, fixed plans);
        # never reads the clock, so steady-state rounds can skip it.
        return True

    def __init__(self):
        self._host_demand = HostDemandMemo()

    def schedule(
        self, jobs: list[Job], cluster: Cluster, ctx: SchedulingContext
    ) -> dict[str, Allocation]:
        # One pass partitions the job list (order-preserving, so the FIFO
        # sorts below tie-break exactly as the old per-filter scans did)
        # while building the keep-allocation map and per-tenant quota usage.
        # Running jobs keep their allocation, pending preemption below; the
        # job's own placement is in lockstep with the cluster's (the
        # simulator sets both or neither), so reuse it instead of
        # reassembling an equal Placement from the node index.
        allocations: dict[str, Allocation] = {}
        quota_used: dict[str, int] = {}
        guar_queued: list[Job] = []
        be_queued: list[Job] = []
        be_run: list[Job] = []
        for job in jobs:
            st = job.status
            if st is JobStatus.QUEUED:
                if job.spec.is_guaranteed:
                    guar_queued.append(job)
                else:
                    be_queued.append(job)
            elif st is JobStatus.RUNNING or st is JobStatus.PAUSED:
                spec = job.spec
                placement = job.placement
                if job.plan is not None and not placement.is_empty:
                    allocations[spec.job_id] = Allocation(placement, job.plan)
                if spec.is_guaranteed:
                    quota_used[spec.tenant] = quota_used.get(
                        spec.tenant, 0
                    ) + placement.total.gpus
                else:
                    be_run.append(job)

        pool = FreePool(cluster, keep_job_ids=set(allocations))

        def host_fn(job: Job):
            return self._host_demand.fn(
                job.model, job.spec.initial_plan, job.spec.global_batch
            )

        # Guaranteed queued jobs, FIFO within quota (usage = requested GPUs).
        queued_guar = sorted(guar_queued, key=lambda j: j.spec.submit_time)
        # Best-effort victims, most recently started first.
        be_running = sorted(
            be_run, key=lambda j: j.start_time or 0.0, reverse=True
        )
        for job in queued_guar:
            need = job.spec.requested.gpus
            tenant = job.spec.tenant
            if quota_used.get(tenant, 0) + need > ctx.tenant_quota(tenant):
                continue
            # Preempt best-effort jobs until the guaranteed job fits.
            while pool.free_gpus < need and be_running:
                victim = be_running.pop(0)
                victim_alloc = allocations.pop(victim.job_id, None)
                if victim_alloc is not None:
                    pool.release(victim_alloc.placement)
            placement = pool.allocate_packed(need, host_mem_per_node=host_fn(job))
            if placement is None:
                continue
            allocations[job.job_id] = Allocation(placement, job.spec.initial_plan)
            quota_used[tenant] = quota_used.get(tenant, 0) + need

        # Best-effort queued jobs use whatever is left, FIFO.
        queued_be = sorted(be_queued, key=lambda j: j.spec.submit_time)
        for job in queued_be:
            placement = pool.allocate_packed(
                job.spec.requested.gpus, host_mem_per_node=host_fn(job)
            )
            if placement is None:
                continue
            allocations[job.job_id] = Allocation(placement, job.spec.initial_plan)
        return allocations
