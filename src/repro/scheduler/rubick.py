"""The Rubick scheduling policy (paper §5, Algorithm 1).

Each round the policy:

1. computes every guaranteed job's **minimum resource demand** — the fewest
   resources (with a possibly better plan) matching the predicted performance
   of its requested resources + original plan;
2. schedules **privileged** queued guaranteed jobs (those whose minimum
   demand fits the tenant's remaining quota), FIFO;
3. walks best-effort + running jobs in **descending slope order**, growing
   each by free resources and by **shrinking the least-sensitive over-minimum
   job** on each node (Alg. 1 lines 8–16), one Δr = 1 GPU / 1 CPU at a time;
4. picks the best execution plan for each resulting placement
   (``GetBestPlan``) and reserves host memory per the framework's estimate
   (``AllocMem``).

Deviation from the paper recorded in DESIGN.md: slopes are normalized by each
job's predicted baseline throughput (its requested-resources performance), so
cross-model comparisons are in *speedup* units rather than raw samples/s —
otherwise high-throughput small models would always dominate large ones.
This matches the speedup framing the paper itself uses in Fig. 8.

Resource/plan modes make this class the engine for all four Rubick variants:

=============  ==================  ======================
Variant        resources           plans
=============  ==================  ======================
Rubick         tuned (Alg. 1)      best over full space
Rubick-E       fixed at request    best over full space
Rubick-R       tuned (Alg. 1)      DP-scaled initial plan
Rubick-N       fixed at request    initial plan only
=============  ==================  ======================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.free_index import FreeGpuIndex
from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.state import Cluster
from repro.perfmodel.shape import ResourceShape
from repro.planeval import DEFAULT_CPUS_PER_GPU, BestConfig
from repro.plans.memory import host_mem_demand_per_node
from repro.scheduler.interfaces import (
    Allocation,
    SchedulerPolicy,
    SchedulingContext,
)
from repro.scheduler.job import Job, JobStatus
from repro.scheduler.selectors import (
    BestPlanSelector,
    FixedPlanSelector,
    PlanSelector,
    ScaledDpSelector,
)

#: Slope below which an extra GPU is considered useless to a job.
_EPS_SLOPE = 1e-9

#: Shared zero vector: `share_of` misses are on the acquisition hot path.
_ZERO_SHARE = ResourceVector.zero()


class ScheduleExit(enum.Enum):
    """How one ``_schedule_job`` call ended; all but SCHEDULED roll back."""

    SCHEDULED = "scheduled"
    TOO_FEW_GPUS = "too-few-gpus"  # below the minimum demand, or none
    NO_FEASIBLE_PLAN = "no-feasible-plan"  # no plan fits, even after the trim
    NOT_WORTH_RESTART = "not-worth-restart"  # gain below the replan threshold


@dataclass
class _NodeState:
    """Speculative per-node bookkeeping for one scheduling round."""

    node_id: int
    free: ResourceVector
    host_free: int
    shares: dict[str, ResourceVector] = field(default_factory=dict)

    def share_of(self, job_id: str) -> ResourceVector:
        share = self.shares.get(job_id)
        return share if share is not None else _ZERO_SHARE


class _RoundState:
    """All speculative allocations of one scheduling round, with undo.

    Per-job GPU/CPU totals are carried incrementally across the journal —
    every ``move``/``take``/``rollback`` adjusts integer counters — so the
    O(jobs × nodes) re-aggregation the acquisition loop used to pay on every
    slope probe is now a dict lookup.  Host memory is not totalled: no
    Alg.-1 decision reads it (it is reserved per node at commit time).
    """

    def __init__(self, cluster: Cluster, jobs: list[Job]):
        running_ids = {j.job_id for j in jobs if j.is_running}
        self.nodes: list[_NodeState] = []
        self._totals: dict[str, list[int]] = {}  # job_id -> [gpus, cpus]
        #: job_id -> node ids where the job holds a (speculative) share.
        #: Lets the per-job scans (shape/placement/CPU tuning/trim/mem)
        #: walk the job's footprint instead of every node in the cluster.
        self._job_nodes: dict[str, set[int]] = {}
        frees: list[int] = []
        for node in cluster.nodes:
            # Carry over GPU/CPU shares of running jobs; host memory is
            # re-reserved from scratch at commit time (AllocMem), so it is
            # stripped here to avoid double counting.
            shares = {}
            used_gpus = used_cpus = 0
            for job_id, share in node.allocations.items():
                if job_id not in running_ids:
                    continue
                shares[job_id] = ResourceVector(share.gpus, share.cpus)
                used_gpus += share.gpus
                used_cpus += share.cpus
                self._job_nodes.setdefault(job_id, set()).add(node.node_id)
                total = self._totals.get(job_id)
                if total is None:
                    self._totals[job_id] = [share.gpus, share.cpus]
                else:
                    total[0] += share.gpus
                    total[1] += share.cpus
            free = node.capacity - ResourceVector(used_gpus, used_cpus)
            frees.append(free.gpus)
            self.nodes.append(
                _NodeState(
                    node_id=node.node_id,
                    free=free,
                    host_free=node.capacity.host_mem,
                    shares=shares,
                )
            )
        #: Nodes bucketed by speculative free-GPU count: iterating it
        #: most-free-first reproduces the stable sort `_node_order` used to
        #: pay per call.
        self._free_index = FreeGpuIndex(frees, cluster.spec.node.num_gpus)
        self._undo: list[tuple] = []
        #: job_id -> fewest GPUs the job may be shrunk to (its guaranteed
        #: minimum, else 0); jobs absent here are never victims.
        self.gpu_floor: dict[str, int] = {
            j.job_id: (j.min_res or ResourceVector.zero()).gpus
            if j.spec.is_guaranteed
            else 0
            for j in jobs
        }
        #: (job_id, total GPUs) -> normalized GPU slope_down.  Curves and
        #: baselines are fixed within a round (refits land between rounds),
        #: so entries never go stale (DESIGN.md item 49).
        self.down_slopes: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # Index maintenance (every shares/free mutation routes through these)
    # ------------------------------------------------------------------
    def _set_share(
        self, node: _NodeState, job_id: str, share: ResourceVector | None
    ) -> None:
        """Write one share and keep the job→nodes membership in lockstep."""
        if share is None:
            if node.shares.pop(job_id, None) is not None:
                on_nodes = self._job_nodes.get(job_id)
                if on_nodes is not None:
                    on_nodes.discard(node.node_id)
                    if not on_nodes:
                        del self._job_nodes[job_id]
        else:
            node.shares[job_id] = share
            self._job_nodes.setdefault(job_id, set()).add(node.node_id)

    def _set_free(self, node: _NodeState, free: ResourceVector) -> None:
        if free.gpus != node.free.gpus:
            self._free_index.update(node.node_id, free.gpus)
        node.free = free

    def job_node_ids(self, job_id: str) -> list[int]:
        """The job's footprint, ascending node id (matches full-scan order)."""
        on_nodes = self._job_nodes.get(job_id)
        return sorted(on_nodes) if on_nodes else []

    # ------------------------------------------------------------------
    def gpus_of(self, job_id: str) -> int:
        total = self._totals.get(job_id)
        return total[0] if total is not None else 0

    def cpus_of(self, job_id: str) -> int:
        total = self._totals.get(job_id)
        return total[1] if total is not None else 0

    def _adjust_total(self, job_id: str, dgpus: int, dcpus: int) -> None:
        total = self._totals.get(job_id)
        if total is None:
            self._totals[job_id] = [dgpus, dcpus]
        else:
            total[0] += dgpus
            total[1] += dcpus

    def shape_of(self, job_id: str, cpus_override: int | None = None) -> ResourceShape:
        gpu_shares = [
            gpus
            for node_id in self.job_node_ids(job_id)
            if (gpus := self.nodes[node_id].share_of(job_id).gpus) > 0
        ]
        return ResourceShape(
            gpus=self.gpus_of(job_id),
            num_nodes=len(gpu_shares),
            min_gpus_per_node=min(gpu_shares) if gpu_shares else 0,
            cpus=cpus_override if cpus_override is not None else self.cpus_of(job_id),
        )

    def placement_of(self, job_id: str) -> Placement:
        return Placement(
            {
                node_id: share
                for node_id in self.job_node_ids(job_id)
                if not (share := self.nodes[node_id].share_of(job_id)).is_zero
            }
        )

    # ------------------------------------------------------------------
    # Mutations (all journaled for rollback)
    # ------------------------------------------------------------------
    def mark(self) -> int:
        return len(self._undo)

    def rollback(self, mark: int) -> None:
        while len(self._undo) > mark:
            node, job_id, prev_share, prev_free, prev_host = self._undo.pop()
            current = node.share_of(job_id)
            self._adjust_total(
                job_id,
                prev_share.gpus - current.gpus,
                prev_share.cpus - current.cpus,
            )
            self._set_share(node, job_id, None if prev_share.is_zero else prev_share)
            self._set_free(node, prev_free)
            node.host_free = prev_host

    def _journal(self, node: _NodeState, job_id: str) -> None:
        self._undo.append(
            (node, job_id, node.share_of(job_id), node.free, node.host_free)
        )

    def move(self, node: _NodeState, job_id: str, delta: ResourceVector) -> None:
        """Give ``delta`` from the node's free pool to ``job_id`` (journaled)."""
        self._journal(node, job_id)
        self._set_share(node, job_id, node.share_of(job_id) + delta)
        self._set_free(node, node.free - delta)
        self._adjust_total(job_id, delta.gpus, delta.cpus)

    def take(self, node: _NodeState, job_id: str, delta: ResourceVector) -> None:
        """Return ``delta`` from ``job_id`` to the node's free pool (journaled)."""
        self._journal(node, job_id)
        new_share = node.share_of(job_id) - delta
        self._set_share(node, job_id, None if new_share.is_zero else new_share)
        self._set_free(node, node.free + delta)
        self._adjust_total(job_id, -delta.gpus, -delta.cpus)

    def reserve_host(self, node: _NodeState, job_id: str, amount: int) -> bool:
        if amount > node.host_free:
            return False
        self._journal(node, job_id)
        share = node.share_of(job_id)
        self._set_share(node, job_id, ResourceVector(
            share.gpus, share.cpus, share.host_mem + amount
        ))
        node.host_free -= amount
        return True


class RubickPolicy(SchedulerPolicy):
    """Rubick and its ablation variants (see module docstring)."""

    name = "rubick"

    def steady_state(self, jobs: list[Job], ctx: SchedulingContext) -> bool:
        """Tick-only rounds may be skipped once no clock trigger is pending.

        Rubick reads the clock in exactly two places.  The best-effort
        starvation guard: a *queued best-effort* job crossing
        ``ctx.starvation_threshold`` jumps the slope ranking, so while one
        is waiting the policy must keep running (queued *guaranteed* jobs
        are FIFO by submit time — pure state — and block nothing).  And
        :meth:`Job.reconfig_gate_open`, whose ratio only *grows* while a job
        trains without reconfiguring: a gate that is open at decision time
        stays open until the next allocation change — which ends the steady
        state anyway — whereas a closed gate may open later and unlock
        growth the last decision rejected, so the policy must keep being
        invoked until every gate is open.
        """
        for job in jobs:
            if job.status == JobStatus.QUEUED:
                if not job.spec.is_guaranteed:
                    return False  # the starvation guard is clock-driven
            elif not job.reconfig_gate_open(ctx.reconfig_delta):
                return False
        return True

    def __init__(
        self,
        *,
        tune_resources: bool = True,
        plan_mode: str = "best",  # "best" | "scaled_dp" | "fixed"
        replan_improvement_threshold: float = 0.15,
        growth_mode: str = "always",  # "never" | "always"
    ):
        if growth_mode not in ("never", "always"):
            raise ValueError(f"unknown growth mode {growth_mode!r}")
        self.tune_resources = tune_resources
        self.plan_mode = plan_mode
        self.replan_improvement_threshold = replan_improvement_threshold
        self.growth_mode = growth_mode
        self._selector: PlanSelector | None = None

    # ------------------------------------------------------------------
    # Lazy per-context construction (the engine memoizes across rounds)
    # ------------------------------------------------------------------
    def _ensure_helpers(self, ctx: SchedulingContext) -> PlanSelector:
        if self._selector is None:
            engine = self.engine_for(ctx)
            if self.plan_mode == "best":
                self._selector = BestPlanSelector(engine)
            elif self.plan_mode == "scaled_dp":
                self._selector = ScaledDpSelector(engine)
            elif self.plan_mode == "fixed":
                self._selector = FixedPlanSelector(engine)
            else:
                raise ValueError(f"unknown plan mode {self.plan_mode!r}")
        return self._selector

    # ------------------------------------------------------------------
    # Per-job derived quantities
    # ------------------------------------------------------------------
    def _baseline_pred(self, job: Job, ctx: SchedulingContext) -> float:
        """Predicted throughput of (requested resources, initial plan).

        Read through the engine's memo as :class:`FixedPlanSelector`'s
        unguarded request, so the per-round rebuild of the baseline table
        costs one memo probe per job, and a refit reaches it like every
        other prediction.
        """
        shape = ResourceShape.packed(
            job.spec.requested.gpus,
            node_size=ctx.cluster_spec.node.num_gpus,
            cpus=job.spec.requested.cpus,
        )
        try:
            best = self.engine_for(ctx).best_of(
                FixedPlanSelector.submitted(job, shape)
            )
        except (ValueError, ZeroDivisionError):
            # Degenerate shape or zero predicted iter time: score the job
            # with a neutral baseline rather than blocking the round.
            return 1.0
        return 1.0 if best is None else best.throughput

    def _ensure_min_res(self, job: Job, ctx: SchedulingContext) -> None:
        """Compute and cache the job's minimum resource demand (Alg. 1 text).

        The search runs through the policy's plan selector, so each variant
        computes the minimum demand it can actually honor: full Rubick may
        shrink a job to very few GPUs with a better plan; Rubick-R only along
        the DP dimension; fixed-plan variants keep the request.
        """
        if job.min_res is not None:
            return
        if not job.spec.is_guaranteed:
            job.min_res = ResourceVector.zero()
            job.min_res_plan = None
            return
        found = self._find_min_res(job, ctx)
        if found is not None:
            job.min_res, job.min_res_plan = found
        else:
            # Fall back to the original request and plan.
            job.min_res = job.spec.requested
            job.min_res_plan = job.spec.initial_plan

    def _find_min_res(
        self, job: Job, ctx: SchedulingContext
    ) -> tuple[ResourceVector, object] | None:
        """Fewest resources whose selector-best plan matches the baseline."""
        assert self._selector is not None
        if not self.tune_resources:
            return None  # fixed-resource variants guarantee exact resources
        baseline = self._baseline_pred(job, ctx)
        requested = job.spec.requested
        node_size = ctx.cluster_spec.node.num_gpus
        for gpus in range(1, requested.gpus + 1):
            cpus = min(gpus * DEFAULT_CPUS_PER_GPU, max(requested.cpus, gpus))
            shape = ResourceShape.packed(gpus, node_size=node_size, cpus=cpus)
            best = self._selector.best(job, shape)
            if best is None or best.throughput < baseline:
                continue
            host = host_mem_demand_per_node(
                job.model, best.plan, job.spec.global_batch,
                min(gpus, node_size),
            )
            return (
                ResourceVector(gpus=gpus, cpus=cpus, host_mem=host),
                best.plan,
            )
        return None

    # ------------------------------------------------------------------
    # The policy
    # ------------------------------------------------------------------
    def schedule(
        self,
        jobs: list[Job],
        cluster: Cluster,
        ctx: SchedulingContext,
    ) -> dict[str, Allocation]:
        selector = self._ensure_helpers(ctx)
        active = [j for j in jobs if j.is_active]
        if not active:
            return {}
        by_id = {j.job_id: j for j in active}
        for job in active:
            self._ensure_min_res(job, ctx)
        baselines = {j.job_id: max(self._baseline_pred(j, ctx), 1e-9) for j in active}

        state = _RoundState(cluster, active)

        # --- 1. privileged queued guaranteed jobs (within quota), FIFO ----
        quota_used: dict[str, int] = {}
        for job in active:
            if job.spec.is_guaranteed and job.is_running:
                quota_used[job.spec.tenant] = (
                    quota_used.get(job.spec.tenant, 0) + job.min_res.gpus
                )
        queued_guaranteed = sorted(
            (
                j
                for j in active
                if j.status == JobStatus.QUEUED and j.spec.is_guaranteed
            ),
            key=lambda j: j.spec.submit_time,
        )
        scheduled: set[str] = set()
        for job in queued_guaranteed:
            tenant = job.spec.tenant
            if (
                quota_used.get(tenant, 0) + job.min_res.gpus
                > ctx.tenant_quota(tenant)
            ):
                continue
            outcome = self._schedule_job(job, state, by_id, baselines, selector, ctx)
            if outcome is ScheduleExit.SCHEDULED:
                quota_used[tenant] = quota_used.get(tenant, 0) + job.min_res.gpus
                scheduled.add(job.job_id)

        # --- 2. best-effort + running jobs by slope (with starvation guard)
        rest = [
            j
            for j in active
            if j.job_id not in scheduled
            and (
                j.is_running
                or (j.status == JobStatus.QUEUED and not j.spec.is_guaranteed)
            )
        ]

        def starving(j: Job) -> bool:
            return (
                j.status == JobStatus.QUEUED
                and (ctx.now - j.last_queue_enter) > ctx.starvation_threshold
            )

        def sort_key(j: Job) -> tuple:
            gpus = state.gpus_of(j.job_id)
            slope = selector.gpu_slope_up(j, gpus) / baselines[j.job_id]
            return (starving(j), slope, -j.spec.submit_time)

        for job in sorted(rest, key=sort_key, reverse=True):
            if not self.tune_resources and job.is_running:
                continue  # fixed-resource variants leave running jobs alone
            if job.is_running:
                if self.growth_mode == "never":
                    continue
                if not job.reconfig_gate_open(ctx.reconfig_delta):
                    continue  # reconfiguration-frequency guard
            self._schedule_job(job, state, by_id, baselines, selector, ctx)

        # --- 3. commit: pick plans, trim, build allocations ----------------
        return self._commit(active, state, selector, ctx)

    # ------------------------------------------------------------------
    # ScheduleJob (Alg. 1 lines 6-24)
    # ------------------------------------------------------------------
    def _schedule_job(
        self,
        job: Job,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        ctx: SchedulingContext,
    ) -> ScheduleExit:
        mark = state.mark()
        min_res = job.min_res or ResourceVector.zero()
        target_gpus = max(self._target_gpus(job, selector, ctx), min_res.gpus)

        # Record the incumbent configuration's predicted throughput so a
        # voluntary change never commits a regression (curve slopes are
        # computed on packed shapes; the concrete placement may be ragged).
        incumbent = None
        if job.is_running:
            incumbent = selector.best(job, state.shape_of(job.job_id))

        self._acquire_gpus(
            job, state, by_id, baselines, selector, target_gpus, min_res
        )
        self._tune_cpus(job, state, by_id, baselines, selector, min_res)

        total_gpus = state.gpus_of(job.job_id)
        needed_gpus = max(min_res.gpus, 1)
        if total_gpus < needed_gpus or total_gpus == 0:
            state.rollback(mark)
            return ScheduleExit.TOO_FEW_GPUS
        best = selector.best(job, state.shape_of(job.job_id))
        if best is None and self.tune_resources:
            best = self._trim_to_feasible(job, state, selector, needed_gpus)
        if best is None:
            state.rollback(mark)
            return ScheduleExit.NO_FEASIBLE_PLAN
        if incumbent is not None and best.throughput <= incumbent.throughput * (
            1.0 + self.replan_improvement_threshold
        ):
            # Voluntary change not worth a checkpoint-restart.
            state.rollback(mark)
            return ScheduleExit.NOT_WORTH_RESTART
        return ScheduleExit.SCHEDULED

    def _trim_to_feasible(
        self,
        job: Job,
        state: _RoundState,
        selector: PlanSelector,
        needed_gpus: int,
    ) -> BestConfig | None:
        """Salvage an acquisition whose exact total has no feasible plan.

        Acquisition steers by lookahead slopes toward the next envelope
        rise, so it can run out of reclaimable resources mid-plateau at a
        GPU count no plan uses exactly (e.g. 23 GPUs for a DP-family model,
        whose DP degree must divide the global batch).  Without a fallback
        the whole acquisition rolls back and the job retries — and can
        starve for as long as the cluster stays in that state.  Instead,
        trim down to the curve's best feasible count within what was
        acquired and replan there.
        """
        total = state.gpus_of(job.job_id)
        curve = selector.curve(job)
        config = curve.config_at(min(total, curve.max_gpus))
        if config is None:
            return None
        gpus = config.plan.num_gpus
        if gpus < max(needed_gpus, 1) or gpus >= total:
            return None
        self._trim_to_plan(job.job_id, gpus, state)
        return selector.best(job, state.shape_of(job.job_id))

    def _target_gpus(
        self, job: Job, selector: PlanSelector, ctx: SchedulingContext
    ) -> int:
        """How many GPUs the job could usefully hold."""
        if not self.tune_resources:
            return job.spec.requested.gpus
        best_g = selector.curve(job).peak_gpus
        if best_g == 0:
            return job.spec.requested.gpus
        if self.plan_mode == "scaled_dp":
            # With the plan type frozen, expansion rides pure DP scaling —
            # exactly where the fitted model extrapolates worst (multi-node
            # gradient sync), so the variant never exceeds the user request.
            return min(best_g, job.spec.requested.gpus)
        return best_g

    def _node_order(self, job: Job, state: _RoundState) -> list[_NodeState]:
        """Visit the job's existing nodes first, then the freest nodes.

        Served by the round state's indices: the job's own nodes come from
        its footprint set, the rest from the free-GPU buckets — which yield
        exactly the stable free-descending order the full sort produced.
        The order is snapshotted here (acquisition mutates the buckets).
        """
        job_id = job.job_id
        mine = [
            n
            for node_id in state.job_node_ids(job_id)
            if (n := state.nodes[node_id]).share_of(job_id).gpus > 0
        ]
        mine.sort(key=lambda n: n.share_of(job_id).gpus, reverse=True)
        mine_ids = {n.node_id for n in mine}
        others = [
            state.nodes[node_id]
            for node_id in state._free_index.iter_ids_by_free_desc()
            if node_id not in mine_ids
        ]
        return mine + others

    def _acquire_gpus(
        self,
        job: Job,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        target_gpus: int,
        min_res: ResourceVector,
    ) -> None:
        """Walk the job's node order, entering only nodes that can change.

        Exact shortcuts over visiting every node (DESIGN.md item 49): the
        walk stops once the job no longer wants GPUs — every later node
        would stop at the same check — and a node without free GPUs whose
        lowest-slope victim is missing or unbeatable is passed over, since
        acquisition there would stop before touching any state.
        """
        job_id = job.job_id
        # The job's curve is fixed for the round, so its slope only moves
        # with its GPU count: probe once per distinct count.
        curve = selector.curve(job)
        baseline = baselines[job_id]

        def my_slope(gpus: int) -> float:
            return curve.lookahead_slope_up(gpus) / baseline

        slope_at = -1
        for node in self._node_order(job, state):
            current = state.gpus_of(job_id)
            if current >= target_gpus:
                break
            if current != slope_at:
                slope_at = current
                below_min = current < min_res.gpus
                slope = my_slope(current)
            if not below_min and slope <= _EPS_SLOPE:
                break
            if node.free.gpus == 0:
                victim = self._lowest_slope_victim(
                    node, state, by_id, baselines, selector, exclude=job_id
                )
                if victim is None or not (below_min or slope > victim[1]):
                    continue
            self._acquire_gpus_on_node(
                job, node, state, by_id, baselines, selector, target_gpus,
                min_res, my_slope,
            )

    def _acquire_gpus_on_node(
        self,
        job: Job,
        node: _NodeState,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        target_gpus: int,
        min_res: ResourceVector,
        my_slope: Callable[[int], float],
    ) -> None:
        """Grab free GPUs, then shrink the least-sensitive job (Alg. 1 8-16).

        Both steps run in batches that leave exactly the state of the
        one-GPU-at-a-time loop.  A run of free-GPU grabs is one journaled
        ``move`` of ``k`` GPUs and ``k`` companion CPUs, ``k`` being the
        number of single grabs the loop would make in a row (DESIGN.md item
        49); a run of reclaims on a node without free GPUs is replayed by
        :meth:`_reclaim_run` (item 50).
        """
        job_id = job.job_id
        min_gpus = min_res.gpus
        while state.gpus_of(job_id) < target_gpus:
            current = state.gpus_of(job_id)
            below_min = current < min_gpus
            slope = my_slope(current)
            if not below_min and slope <= _EPS_SLOPE:
                break
            if node.free.gpus > 0 and self._ensure_companion_cpu(
                job, node, state, by_id, baselines, selector, below_min, slope,
            ):
                limit = min(node.free.gpus, node.free.cpus, target_gpus - current)
                k = 1
                while k < limit and (
                    current + k < min_gpus or my_slope(current + k) > _EPS_SLOPE
                ):
                    k += 1
                state.move(node, job_id, ResourceVector(gpus=k, cpus=k))
                continue
            # Reclaim from the least-sensitive over-minimum job on this node.
            if node.free.gpus == 0:
                victim_job = self._reclaim_run(
                    job, node, state, by_id, baselines, selector, target_gpus,
                    min_gpus, my_slope,
                )
                if victim_job is None:
                    break
                # The run stopped before a step whose freed GPU has no free
                # CPU beside it: that step reclaims a CPU the one-unit way.
                current = state.gpus_of(job_id)
                below_min = current < min_gpus
                slope = my_slope(current)
            else:
                # Free GPUs but no CPU to pair them with: one unit step.
                victim = self._lowest_slope_victim(
                    node, state, by_id, baselines, selector, exclude=job_id
                )
                if victim is None:
                    break
                victim_job, victim_slope = victim
                if not (below_min or slope > victim_slope):
                    break
            self._shrink_gpu(victim_job, node, state)
            if node.free.gpus > 0 and self._ensure_companion_cpu(
                job, node, state, by_id, baselines, selector, below_min, slope,
            ):
                state.move(node, job_id, ResourceVector(gpus=1, cpus=1))
            else:
                break

    def _reclaim_run(
        self,
        job: Job,
        node: _NodeState,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        target_gpus: int,
        min_gpus: int,
        my_slope: Callable[[int], float],
    ) -> Job | None:
        """Reclaim GPUs for ``job`` on a node without free GPUs, as one run.

        Replays the one-unit steps — the :meth:`_lowest_slope_victim` pick
        and test, :meth:`_shrink_gpu`, the grab of the freed GPU with one
        CPU — on integer copies of the node's victim shares, then writes the
        net change: one ``take`` per touched victim, in the order of their
        last touch, and one ``move`` (DESIGN.md item 50).  Returns the victim
        of the step the run stops before because its freed GPU would find no
        free CPU, or None once acquisition on this node is over.
        """
        job_id = job.job_id
        floors = state.gpu_floor
        memo = state.down_slopes
        # [job id, GPUs here, CPUs here, total GPUs, floor], in shares order.
        rows = []
        for victim_id, share in node.shares.items():
            if victim_id == job_id or share.gpus <= 0:
                continue
            floor = floors.get(victim_id)
            if floor is not None:
                rows.append([
                    victim_id, share.gpus, share.cpus,
                    state.gpus_of(victim_id), floor,
                ])
        free_cpus = node.free.cpus
        start = current = state.gpus_of(job_id)
        touched: dict[str, list] = {}  # insertion order = last touch
        stop_before: Job | None = None
        while current < target_gpus:
            below_min = current < min_gpus
            slope = my_slope(current)
            if not below_min and slope <= _EPS_SLOPE:
                break
            best = None
            best_slope = 0.0
            for row in rows:
                total = row[3]
                if row[1] <= 0 or total - 1 < row[4]:
                    continue
                victim_slope = memo.get((row[0], total))
                if victim_slope is None:
                    victim_slope = memo[row[0], total] = (
                        selector.gpu_slope_down(by_id[row[0]], total)
                        / baselines[row[0]]
                    )
                if best is None or victim_slope < best_slope:
                    best, best_slope = row, victim_slope
            if best is None or not (below_min or slope > best_slope):
                break
            gpus, cpus = best[1], best[2]
            drop = cpus if gpus <= 1 else (1 if cpus > gpus - 1 else 0)
            if free_cpus + drop < 1:
                stop_before = by_id[best[0]]
                break
            best[1] = gpus - 1
            best[2] = cpus - drop
            best[3] -= 1
            free_cpus += drop - 1
            current += 1
            touched.pop(best[0], None)
            touched[best[0]] = best
        for victim_id, row in touched.items():
            share = node.shares[victim_id]
            # A victim that lost its last GPU here leaves with its share.
            state.take(node, victim_id, share if row[1] == 0 else ResourceVector(
                share.gpus - row[1], share.cpus - row[2]
            ))
        if current > start:
            grabbed = current - start
            state.move(node, job_id, ResourceVector(gpus=grabbed, cpus=grabbed))
        return stop_before

    def _ensure_companion_cpu(
        self,
        job: Job,
        node: _NodeState,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        below_min: bool,
        my_slope: float,
    ) -> bool:
        """Make sure a free GPU on this node has a companion CPU to launch.

        Acquisition pairs every GPU with one CPU, so a node whose CPUs are
        all held by over-minimum jobs can strand its free GPUs indefinitely
        (queued jobs fail to launch round after round while the GPUs idle).
        Apply Alg. 1's least-sensitive-victim reclaim to the CPU dimension:
        take one CPU back from the lowest-CPU-slope over-minimum job.
        """
        if node.free.cpus >= 1:
            return True
        victim = self._lowest_cpu_slope_victim(
            node, state, by_id, baselines, selector, exclude=job.job_id
        )
        if victim is None:
            return False
        victim_job, victim_slope = victim
        if not (below_min or my_slope > victim_slope):
            return False
        state.take(node, victim_job.job_id, ResourceVector(cpus=1))
        return node.free.cpus >= 1

    def _lowest_slope_victim(
        self,
        node: _NodeState,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        exclude: str,
    ) -> tuple[Job, float] | None:
        """GetLowestSlopeOverMinJob for GPUs on one node."""
        floors = state.gpu_floor
        memo = state.down_slopes
        best_id: str | None = None
        best_slope = 0.0
        for job_id, share in node.shares.items():
            if job_id == exclude or share.gpus <= 0:
                continue
            floor = floors.get(job_id)
            if floor is None:
                continue
            total_gpus = state.gpus_of(job_id)
            if total_gpus - 1 < floor:
                continue  # would violate its performance guarantee
            slope = memo.get((job_id, total_gpus))
            if slope is None:
                slope = memo[job_id, total_gpus] = (
                    selector.gpu_slope_down(by_id[job_id], total_gpus)
                    / baselines[job_id]
                )
            if best_id is None or slope < best_slope:
                best_id, best_slope = job_id, slope
        return None if best_id is None else (by_id[best_id], best_slope)

    def _shrink_gpu(self, victim: Job, node: _NodeState, state: _RoundState) -> None:
        share = node.share_of(victim.job_id)
        if share.gpus <= 1:
            # Last GPU on this node leaves: release the whole share, exactly
            # like _trim_to_plan — a 0-GPU share would strand its CPUs for
            # the rest of the round.
            state.take(node, victim.job_id, share)
            return
        cpus_drop = 1 if share.cpus > share.gpus - 1 else 0
        state.take(node, victim.job_id, ResourceVector(gpus=1, cpus=cpus_drop))

    def _tune_cpus(
        self,
        job: Job,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        min_res: ResourceVector,
    ) -> None:
        """CPU pass of Alg. 1: top up to the default ratio, then by slope."""
        job_id = job.job_id
        if state.gpus_of(job_id) == 0:
            return
        for node_id in state.job_node_ids(job_id):
            node = state.nodes[node_id]
            share = node.share_of(job_id)
            if share.gpus == 0:
                continue
            # Top up to the default CPU:GPU ratio from the free pool.  Never
            # strip a node below one free CPU per free GPU: acquisition pairs
            # every GPU with a companion CPU, so a bare free GPU would be
            # unlaunchable for every later job this round.
            spare = node.free.cpus - node.free.gpus
            want = min(share.gpus * DEFAULT_CPUS_PER_GPU - share.cpus, spare)
            if want > 0:
                state.move(node, job_id, ResourceVector(cpus=want))
        # Grow further while the CPU slope says it pays off (offload jobs).
        baseline = baselines[job_id]
        guard = 0
        while guard < 256:
            guard += 1
            shape = state.shape_of(job_id)
            slope = selector.cpu_slope_up(job, shape) / baseline
            below_min = state.cpus_of(job_id) < min_res.cpus
            if not below_min and slope <= _EPS_SLOPE:
                break
            node = next(
                (
                    n
                    for node_id in state.job_node_ids(job_id)
                    # Keep one free CPU per free GPU (see the top-up above).
                    if (n := state.nodes[node_id]).share_of(job_id).gpus > 0
                    and n.free.cpus > n.free.gpus
                ),
                None,
            )
            if node is not None:
                # A run of one-CPU grabs, moved at once (DESIGN.md item 50):
                # while the node keeps a spare CPU it stays the first
                # candidate, and only the shape's CPU count changes.  The
                # run's slopes come from one row (DESIGN.md item 56).
                run = min(node.free.cpus - node.free.gpus - 1, 256 - guard)
                slopes = (
                    selector.cpu_slopes_up(
                        job, shape.with_cpus(shape.cpus + 1), run
                    )
                    if run > 0
                    else []
                )
                grabbed = 1
                grow = True
                for slope in slopes:
                    guard += 1
                    if (
                        shape.cpus + grabbed >= min_res.cpus
                        and slope / baseline <= _EPS_SLOPE
                    ):
                        grow = False
                        break
                    grabbed += 1
                state.move(node, job_id, ResourceVector(cpus=grabbed))
                if not grow:
                    break
                continue
            moved = False
            for node_id in state.job_node_ids(job_id):
                node = state.nodes[node_id]
                if node.share_of(job_id).gpus == 0:
                    continue
                victim = self._lowest_cpu_slope_victim(
                    node, state, by_id, baselines, selector, exclude=job_id
                )
                if victim is None:
                    continue
                victim_job, victim_slope = victim
                if below_min or slope > victim_slope:
                    state.take(node, victim_job.job_id, ResourceVector(cpus=1))
                    state.move(node, job_id, ResourceVector(cpus=1))
                    moved = True
                    break
            if not moved:
                break

    def _lowest_cpu_slope_victim(
        self,
        node: _NodeState,
        state: _RoundState,
        by_id: dict[str, Job],
        baselines: dict[str, float],
        selector: PlanSelector,
        exclude: str,
    ) -> tuple[Job, float] | None:
        best: tuple[Job, float] | None = None
        for job_id, share in node.shares.items():
            if job_id == exclude or share.gpus <= 0:
                continue
            victim = by_id.get(job_id)
            if victim is None:
                continue
            floor = max(
                (victim.min_res or ResourceVector.zero()).cpus,
                state.gpus_of(job_id),
            )
            if state.cpus_of(job_id) - 1 < floor or share.cpus <= share.gpus:
                continue
            slope = (
                selector.cpu_slope_down(victim, state.shape_of(job_id))
                / baselines[victim.job_id]
            )
            if best is None or slope < best[1]:
                best = (victim, slope)
        return best

    # ------------------------------------------------------------------
    # Commit: GetBestPlan + AllocMem + trim (Alg. 1 lines 19-23)
    # ------------------------------------------------------------------
    def _commit(
        self,
        active: list[Job],
        state: _RoundState,
        selector: PlanSelector,
        ctx: SchedulingContext,
    ) -> dict[str, Allocation]:
        allocations: dict[str, Allocation] = {}
        for job in active:
            if state.gpus_of(job.job_id) <= 0:
                continue
            best = selector.best(job, state.shape_of(job.job_id))
            if best is None:
                continue
            plan = best.plan
            # Trim GPUs the chosen plan does not use (envelope flats); the
            # shape (and thus the best plan) only changes if a trim landed.
            if self._trim_to_plan(job.job_id, plan.num_gpus, state):
                best = selector.best(job, state.shape_of(job.job_id))
                if best is None:
                    continue
                plan = best.plan
            if not self._alloc_mem(job, plan, state):
                continue
            placement = state.placement_of(job.job_id)
            allocations[job.job_id] = Allocation(placement=placement, plan=plan)
        return allocations

    def _trim_to_plan(
        self, job_id: str, plan_gpus: int, state: _RoundState
    ) -> bool:
        """Drop excess GPUs; returns True if anything was trimmed."""
        excess = state.gpus_of(job_id) - plan_gpus
        if excess <= 0:
            return False
        nodes = sorted(
            (
                n
                for node_id in state.job_node_ids(job_id)
                if (n := state.nodes[node_id]).share_of(job_id).gpus > 0
            ),
            key=lambda n: n.share_of(job_id).gpus,
        )
        for node in nodes:
            # Drop one GPU at a time on integers, then write the node's net
            # drop as one take (DESIGN.md item 50).
            share = node.share_of(job_id)
            gpus, cpus = share.gpus, share.cpus
            while excess > 0 and gpus > 0:
                if gpus == 1:
                    cpus = 0  # last GPU leaves: release all CPUs
                else:
                    # Keep at least 1 CPU per remaining GPU.
                    cpus -= min(DEFAULT_CPUS_PER_GPU, max(cpus - (gpus - 1), 0))
                gpus -= 1
                excess -= 1
            state.take(node, job_id, ResourceVector(
                gpus=share.gpus - gpus, cpus=share.cpus - cpus
            ))
            if excess <= 0:
                break
        return True

    def _alloc_mem(self, job: Job, plan, state: _RoundState) -> bool:
        """Reserve per-node host memory per the framework estimate."""
        mark = state.mark()
        for node_id in state.job_node_ids(job.job_id):
            node = state.nodes[node_id]
            share = node.share_of(job.job_id)
            if share.gpus <= 0:
                continue
            demand = host_mem_demand_per_node(
                job.model, plan, job.spec.global_batch, share.gpus
            )
            if not state.reserve_host(node, job.job_id, demand):
                state.rollback(mark)
                return False
        return True
