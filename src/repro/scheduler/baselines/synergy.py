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
    # Pure function of job/cluster state (FIFO by submit time + CPU slopes);
    # never reads the clock, so steady-state rounds can skip it.
    reactive = True

    def __init__(self):
        self._selector: FixedPlanSelector | None = None
        #: ``(model, batch, plan, shape) -> (model refit version, weight)``
        #: cross-round memo of the CPU-sensitivity weight.  The weight is a
        #: pure function of the key plus the fitted model, so it survives
        #: until the model refits (version-checked on every read); at
        #: datacenter scale most residents keep their shape between rounds
        #: and the per-round probe batch collapses to the few changed jobs.
        self._weight_cache: dict[tuple, tuple[int, float]] = {}
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
        CPU slope at its current whole-placement shape — a pure function of
        (model, batch, plan, shape, fitted-model version) — memoized across
        rounds and nodes in ``_weight_cache``; only misses go through a
        batched ``selector.best_many`` probe.  The shape is still evaluated
        per node visit (a multi-node job retuned on an earlier node brings
        its updated shape to later ones, as the unmemoized loop did), so
        weights and visit order match the former per-node/per-job loops
        exactly.
        """
        engine = selector.engine
        versions: dict[str, int] = {}
        #: id(placement) -> (placement, shape) for this round.  The stored
        #: placement is both the identity witness and a strong reference —
        #: without it, a placement replaced by ``with_share`` below could be
        #: collected and its id recycled by a new one, silently serving a
        #: stale shape.
        shape_of: dict[int, tuple] = {}
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
            weights: dict[str, float] = {}
            misses: list[tuple[str, ResourceShape, tuple, int]] = []
            for job_id, alloc in residents:
                job = jobs[job_id]
                model_name = job.model.name
                version = versions.get(model_name)
                if version is None:
                    version = engine.scorer.version(job.model)
                    versions[model_name] = version
                cached = shape_of.get(id(alloc.placement))
                if cached is not None and cached[0] is alloc.placement:
                    shape = cached[1]
                else:
                    shape = ResourceShape.from_placement(alloc.placement)
                    shape_of[id(alloc.placement)] = (alloc.placement, shape)
                key = (model_name, job.spec.global_batch, alloc.plan, shape)
                hit = self._weight_cache.get(key)
                if hit is not None and hit[0] == version:
                    weights[job_id] = hit[1]
                else:
                    misses.append((job_id, shape, key, version))
            if misses:
                # cpu_slope_up's two endpoints per miss: current shape and
                # the +1-CPU probe, resolved in one batched engine pass.
                pairs = []
                for job_id, shape, _, _ in misses:
                    job = jobs[job_id]
                    pairs.append((job, shape))
                    pairs.append((job, shape.with_cpus(shape.cpus + 1)))
                configs = selector.best_many(pairs)
                for i, (job_id, _, key, version) in enumerate(misses):
                    base, more = configs[2 * i], configs[2 * i + 1]
                    slope = (
                        more.throughput - base.throughput
                        if base is not None and more is not None
                        else 0.0
                    )
                    norm = (
                        base.throughput
                        if base and base.throughput > 0
                        else 1.0
                    )
                    weight = max(slope / norm, 0.0)
                    self._weight_cache[key] = (version, weight)
                    weights[job_id] = weight
            # Summed in residents order (the insertion order of the weights
            # dict before memoization existed): float addition is order-
            # sensitive and the distribution below must stay byte-identical.
            total_weight = sum(weights[job_id] for job_id, _ in residents)
            for job_id, alloc in residents:
                share = alloc.placement.shares[node_id]
                if total_weight > 1e-12:
                    extra = int(budget * weights[job_id] / total_weight)
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
