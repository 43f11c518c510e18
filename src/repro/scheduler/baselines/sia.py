"""Sia baseline (Jayaram Subramanya et al., SOSP'23) as characterized in §7.3.

Sia is a goodput-optimized scheduler that adapts the *number of GPUs* of each
job by scaling its data-parallel degree.  Per the paper's discussion:

* it scales only along the DP dimension (the open-source artifact supports
  pure-DP jobs; for 3D-parallel jobs the TP/PP sizes stay frozen and only the
  replica count changes — jobs that cannot scale fall back to their fixed
  submitted configuration);
* it does not reason about ZeRO/GC trade-offs or plan switching;
* it allocates GPUs only — CPUs follow a fixed proportional ratio, host
  memory is whatever the plan needs.

Our implementation solves the per-round allocation with the standard greedy
marginal-goodput ascent over each job's DP-scaling speedup curve (Sia's ILP
reduces to this under a single resource type and concave curves).
"""

from __future__ import annotations

from repro.plans.memory import host_mem_demand_per_node
from repro.cluster.state import Cluster
from repro.scheduler.baselines.common import FreePool
from repro.scheduler.interfaces import (
    Allocation,
    SchedulerPolicy,
    SchedulingContext,
)
from repro.scheduler.job import Job
from repro.scheduler.selectors import ScaledDpSelector


class SiaPolicy(SchedulerPolicy):
    name = "sia"

    def steady_state(self, jobs, ctx) -> bool:
        # Sia's only clock-driven input is the reconfiguration gate, which
        # can only open over time (same argument as RubickPolicy): keep
        # invoking the policy while any running job's gate is still closed.
        # Queued jobs don't block: the greedy ascent is pure state.
        return all(
            job.reconfig_gate_open(ctx.reconfig_delta)
            for job in jobs
            if job.is_running
        )

    def __init__(self):
        self._selector: ScaledDpSelector | None = None

    def _ensure(self, ctx: SchedulingContext) -> ScaledDpSelector:
        if self._selector is None:
            self._selector = ScaledDpSelector(self.engine_for(ctx))
        return self._selector

    def schedule(
        self, jobs: list[Job], cluster: Cluster, ctx: SchedulingContext
    ) -> dict[str, Allocation]:
        selector = self._ensure(ctx)
        active = [j for j in jobs if j.is_active]
        if not active:
            return {}
        total_gpus = ctx.cluster_spec.total_gpus

        # Curves are fixed within a round, so each job's is read once.
        curves = {job.job_id: selector.curve(job) for job in active}

        # Normalizer: goodput relative to the job's requested configuration.
        baselines: dict[str, float] = {}
        for job in active:
            base = curves[job.job_id].throughput_at(job.spec.requested.gpus)
            baselines[job.job_id] = base if base > 0 else 1.0

        # Greedy marginal ascent: hand out GPUs one at a time to the job
        # gaining the most normalized goodput, honoring the reconfiguration
        # gate for running jobs (changing them costs a restart).
        counts: dict[str, int] = {j.job_id: 0 for j in active}
        frozen: dict[str, int] = {}
        for job in active:
            if job.is_running and not job.reconfig_gate_open(ctx.reconfig_delta):
                frozen[job.job_id] = cluster.placement_of(job.job_id).total.gpus
        budget = total_gpus - sum(frozen[j] for j in sorted(frozen))
        for job_id, gpus in frozen.items():
            counts[job_id] = gpus

        # Goodput curves are step functions over the *feasible* GPU counts
        # (gang constraints), so the ascent jumps whole blocks: each step
        # moves one job from its current count to its next feasible count,
        # picking the best normalized gain per GPU.
        flexible = [j for j in active if j.job_id not in frozen]
        while budget > 0:
            best_job = None
            best_gain = 0.0
            best_block = 0
            for job in flexible:
                curve = curves[job.job_id]
                cur = counts[job.job_id]
                nxt = self._next_feasible(curve, cur, cur + budget)
                if nxt is None:
                    continue
                block = nxt - cur
                gain = (
                    curve.throughput_at(nxt) - curve.throughput_at(cur)
                ) / (block * baselines[job.job_id])
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_job = job
                    best_block = block
            if best_job is None:
                break
            counts[best_job.job_id] += best_block
            budget -= best_block

        # Hysteresis: moving a running job to a nearby count costs a restart;
        # keep its current count unless the goodput change is substantial.
        for job in flexible:
            if not job.is_running:
                continue
            current = cluster.placement_of(job.job_id).total.gpus
            new = counts[job.job_id]
            if new == current or current <= 0:
                continue
            curve = curves[job.job_id]
            thr_cur = curve.throughput_at(current)
            thr_new = curve.throughput_at(new)
            if thr_cur <= 0:
                continue
            if abs(thr_new - thr_cur) / thr_cur < 0.15:
                counts[job.job_id] = current

        # Place jobs (largest first) and attach their scaled plans.
        # Counts land on feasible points by construction of the block ascent.
        allocations: dict[str, Allocation] = {}
        pool = FreePool(cluster, keep_job_ids=set())
        order = sorted(active, key=lambda j: counts[j.job_id], reverse=True)
        for job in order:
            gpus = counts[job.job_id]
            if gpus <= 0:
                continue
            curve = curves[job.job_id]
            cfg = curve.raw[gpus] or curve.config_at(gpus)
            if cfg is None:
                continue
            plan = cfg.plan
            # Placement stickiness: an unchanged GPU count keeps its exact
            # placement — re-packing would be a restart for no gain.
            if job.is_running and job.plan == plan:
                current = cluster.placement_of(job.job_id)
                if current.total.gpus == gpus and pool.claim(current):
                    allocations[job.job_id] = Allocation(current, plan)
                    continue
            placement = pool.allocate_packed(
                plan.num_gpus,
                host_mem_per_node=lambda g, j=job, p=plan: host_mem_demand_per_node(
                    j.model, p, j.spec.global_batch, g
                ),
            )
            if placement is not None:
                allocations[job.job_id] = Allocation(placement, plan)
                continue
            # Fragmentation: fall back to the job's current allocation rather
            # than preempting it (a restart would cost more than it saves).
            if job.is_running and job.plan is not None:
                current = cluster.placement_of(job.job_id)
                if not current.is_empty and pool.claim(current):
                    allocations[job.job_id] = Allocation(current, job.plan)
        return allocations

    @staticmethod
    def _next_feasible(curve, current: int, limit: int) -> int | None:
        """Smallest feasible GPU count above ``current`` within ``limit``."""
        for g in range(current + 1, min(limit, curve.max_gpus) + 1):
            if curve.raw[g] is not None:
                return g
        return None
