"""Scheduling policies: Rubick, variants, and baselines on small scenarios."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
)
from repro.models import GPT2, ROBERTA
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler import (
    Job,
    JobPriority,
    JobSpec,
    JobStatus,
    PerfModelStore,
    SchedulingContext,
    Tenant,
    rubick,
    rubick_e,
    rubick_n,
    rubick_r,
)
from repro.scheduler.baselines import AntManPolicy, SiaPolicy, SynergyPolicy

SPEC = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 21


@pytest.fixture(scope="module")
def env():
    testbed = SyntheticTestbed(SPEC, seed=SEED)
    store = PerfModelStore()
    for model in (GPT2, ROBERTA):
        perf, _ = build_perf_model(testbed, model, model.global_batch_size, seed=SEED)
        store.add(perf)
    return testbed, store


def _ctx(store, tenants=None) -> SchedulingContext:
    return SchedulingContext(
        cluster_spec=SPEC, perf_store=store, tenants=tenants or {}
    )


def _queued_job(job_id="j1", model=GPT2, gpus=8, priority=JobPriority.GUARANTEED,
                tenant="default", plan=None, submit=0.0) -> Job:
    plan = plan or ExecutionPlan(dp=gpus, ga_steps=16 // gpus if gpus < 16 else 1)
    spec = JobSpec(
        job_id=job_id, model=model, global_batch=model.global_batch_size,
        requested=ResourceVector(gpus, gpus * 4, 0.0), initial_plan=plan,
        total_samples=1e5, submit_time=submit, priority=priority, tenant=tenant,
    )
    return Job(spec=spec)


ALL_POLICIES = [rubick, rubick_e, rubick_r, rubick_n, SiaPolicy, SynergyPolicy,
                AntManPolicy]


class TestAllPoliciesBasics:
    @pytest.mark.parametrize("make", ALL_POLICIES)
    def test_single_job_gets_scheduled(self, env, make):
        _, store = env
        cluster = Cluster(SPEC)
        job = _queued_job()
        allocations = make().schedule([job], cluster, _ctx(store))
        assert job.job_id in allocations
        alloc = allocations[job.job_id]
        assert alloc.placement.total.gpus >= 1
        assert alloc.plan.num_gpus == alloc.placement.total.gpus

    @pytest.mark.parametrize("make", ALL_POLICIES)
    def test_allocations_fit_cluster(self, env, make):
        _, store = env
        cluster = Cluster(SPEC)
        jobs = [
            _queued_job(f"j{i}", gpus=8, submit=float(i), model=GPT2)
            for i in range(6)
        ]
        allocations = make().schedule(jobs, cluster, _ctx(store))
        total = sum(a.placement.total.gpus for a in allocations.values())
        assert total <= SPEC.total_gpus
        # Per-node feasibility: apply everything on a fresh cluster.
        fresh = Cluster(SPEC)
        for job_id, alloc in allocations.items():
            fresh.apply(job_id, alloc.placement)  # raises on violation


class TestRubickSpecifics:
    def test_fixed_variants_honor_requested_gpus(self, env):
        _, store = env
        for make in (rubick_e, rubick_n):
            cluster = Cluster(SPEC)
            job = _queued_job(gpus=8)
            allocations = make().schedule([job], cluster, _ctx(store))
            assert allocations[job.job_id].placement.total.gpus == 8

    def test_rubick_e_picks_better_plan_than_initial(self, env):
        testbed, store = env
        cluster = Cluster(SPEC)
        bad = ExecutionPlan(dp=8, zero=ZeroStage.OFFLOAD, ga_steps=2)
        job = _queued_job(plan=bad, gpus=8)
        allocations = rubick_e().schedule([job], cluster, _ctx(store))
        chosen = allocations[job.job_id].plan
        shape_gpus = allocations[job.job_id].placement.total.gpus
        assert shape_gpus == 8
        assert chosen != bad  # offload on 8 GPUs is never GPT-2's best

    def test_rubick_n_keeps_initial_plan(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        plan = ExecutionPlan(dp=8, zero=ZeroStage.ZERO_DP, ga_steps=2)
        job = _queued_job(plan=plan)
        allocations = rubick_n().schedule([job], cluster, _ctx(store))
        assert allocations[job.job_id].plan == plan

    def test_quota_blocks_admission(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        tenants = {"team": Tenant(name="team", gpu_quota=0)}
        job = _queued_job(tenant="team")
        allocations = rubick_n().schedule([job], cluster, _ctx(store, tenants))
        assert job.job_id not in allocations

    def test_min_res_cached_on_job(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        job = _queued_job()
        rubick().schedule([job], cluster, _ctx(store))
        assert job.min_res is not None
        assert job.min_res.gpus <= job.spec.requested.gpus


class TestAntManSpecifics:
    def test_best_effort_preempted_for_guaranteed(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        policy = AntManPolicy()
        ctx = _ctx(store, {"a": Tenant(name="a", gpu_quota=16)})
        # Best-effort job occupies the whole cluster first.
        be = _queued_job("be", gpus=16, priority=JobPriority.BEST_EFFORT,
                         plan=ExecutionPlan(dp=16), tenant="b")
        allocations = policy.schedule([be], cluster, ctx)
        cluster.apply("be", allocations["be"].placement)
        be.status = JobStatus.RUNNING
        be.plan = allocations["be"].plan
        be.placement = allocations["be"].placement
        be.start_time = 0.0
        # A guaranteed job arrives needing the full cluster.
        guar = _queued_job("guar", gpus=16, tenant="a",
                           plan=ExecutionPlan(dp=16), submit=10.0)
        allocations = policy.schedule([be, guar], cluster, ctx)
        assert "guar" in allocations
        assert "be" not in allocations  # preempted


class TestSiaSpecifics:
    def test_scales_dp_only(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        job = _queued_job(gpus=4, plan=ExecutionPlan(dp=4, ga_steps=4))
        allocations = SiaPolicy().schedule([job], cluster, _ctx(store))
        plan = allocations[job.job_id].plan
        assert plan.tp == 1 and plan.pp == 1
        assert plan.zero == job.spec.initial_plan.zero


class TestShrinkGpu:
    """Reclaiming a victim's last GPU on a node must not strand its CPUs."""

    def _running_victim(self, cluster, gpus, cpus, job_id="victim"):
        victim = _queued_job(job_id, gpus=gpus)
        victim.status = JobStatus.RUNNING
        victim.start_time = 0.0
        placement = Placement({0: ResourceVector(gpus=gpus, cpus=cpus)})
        cluster.apply(job_id, placement)
        victim.placement = placement
        return victim

    def test_last_gpu_reclaim_releases_whole_share(self):
        from repro.scheduler.rubick import _RoundState

        cluster = Cluster(SPEC)
        victim = self._running_victim(cluster, gpus=1, cpus=4)
        state = _RoundState(cluster, [victim])
        rubick()._shrink_gpu(victim, state.nodes[0], state)
        # The share is gone entirely: no 0-GPU share holding CPUs survives.
        assert victim.job_id not in state.nodes[0].shares
        assert state.totals(victim.job_id).is_zero
        node = state.nodes[0]
        assert node.free.gpus == SPEC.node.num_gpus
        assert node.free.cpus == SPEC.node.num_cpus

    def test_multi_gpu_share_shrinks_by_one(self):
        from repro.scheduler.rubick import _RoundState

        cluster = Cluster(SPEC)
        victim = self._running_victim(cluster, gpus=2, cpus=8)
        state = _RoundState(cluster, [victim])
        rubick()._shrink_gpu(victim, state.nodes[0], state)
        share = state.nodes[0].share_of(victim.job_id)
        assert share.gpus == 1 and share.cpus == 7

    def test_no_stranded_cpu_shares_after_a_contended_round(self, env):
        """End to end: after scheduling under GPU pressure, no committed
        placement contains a 0-GPU share that still holds CPUs."""
        _, store = env
        cluster = Cluster(SPEC)
        policy = rubick()
        ctx = _ctx(store)
        jobs = [
            _queued_job(f"j{i}", gpus=2, model=ROBERTA,
                        plan=ExecutionPlan(dp=2, ga_steps=8), submit=float(i))
            for i in range(10)
        ]
        for round_no in range(3):
            ctx.now = 300.0 * round_no
            allocations = policy.schedule(jobs, cluster, ctx)
            for job_id, alloc in allocations.items():
                for share in alloc.placement.shares.values():
                    assert not (share.gpus == 0 and share.cpus > 0), job_id
                cluster.apply(job_id, alloc.placement)
                job = next(j for j in jobs if j.job_id == job_id)
                job.status = JobStatus.RUNNING
                if job.start_time is None:
                    job.start_time = ctx.now
                job.placement = alloc.placement
                job.plan = alloc.plan


class TestAcquisitionShortcuts:
    """Rubick's GPU acquisition enters only nodes where it can act, and its
    batched free-GPU moves leave exactly the one-at-a-time state."""

    SPEC3 = ClusterSpec(num_nodes=3, node=NodeSpec(num_gpus=8, num_cpus=96))

    @staticmethod
    def _held(cluster, job_id, node_id, gpus, cpus):
        """A running guaranteed job at its minimum: never a victim."""
        job = _queued_job(job_id, gpus=gpus, submit=0.0)
        job.status = JobStatus.RUNNING
        job.start_time = 0.0
        placement = Placement({node_id: ResourceVector(gpus=gpus, cpus=cpus)})
        cluster.apply(job_id, placement)
        job.placement = placement
        job.plan = job.spec.initial_plan
        job.min_res = ResourceVector(gpus=gpus, cpus=cpus)
        return job

    def _saturated_round(self):
        """Node 0 idle; nodes 1 and 2 held by guaranteed jobs at their
        minimum; a guaranteed job queued below its minimum."""
        cluster = Cluster(self.SPEC3)
        jobs = [
            self._held(cluster, f"held{node_id}", node_id, 8, 32)
            for node_id in (1, 2)
        ]
        # Another tenant, so the queued job's quota admits it this round.
        queued = _queued_job("queued", gpus=16, plan=ExecutionPlan(dp=16),
                             tenant="b", submit=1.0)
        queued.min_res = ResourceVector(gpus=12, cpus=48)
        jobs.append(queued)
        return cluster, jobs

    def test_only_state_changing_nodes_are_entered(self, env, monkeypatch):
        from repro.scheduler.rubick import RubickPolicy

        _, store = env
        cluster, jobs = self._saturated_round()
        entries: list[tuple[int, bool]] = []
        original = RubickPolicy._acquire_gpus_on_node

        def counting(self, job, node, state, *args):
            before = state.mark()
            original(self, job, node, state, *args)
            entries.append((node.node_id, state.mark() != before))

        monkeypatch.setattr(RubickPolicy, "_acquire_gpus_on_node", counting)
        allocations = rubick().schedule(jobs, cluster, _ctx(store))
        # The queued job takes node 0's eight free GPUs (and, once it rolls
        # back, a held job grows there); nodes 1 and 2 hold no free GPU and
        # no shrinkable job, so no acquisition ever enters them.
        assert entries[0] == (0, True)
        assert all(node_id == 0 and changed for node_id, changed in entries)
        assert "queued" not in allocations  # 8 < its 12-GPU minimum

    def _state_with_free_node(self):
        from repro.scheduler.rubick import _RoundState

        cluster, jobs = self._saturated_round()
        return _RoundState(cluster, jobs), jobs[-1]

    @staticmethod
    def _snapshot(state, job_ids):
        return (
            [(n.node_id, n.free, n.host_free, dict(n.shares)) for n in state.nodes],
            state._free_index.snapshot(),
            {j: (state.gpus_of(j), state.cpus_of(j)) for j in job_ids},
            {j: state.job_node_ids(j) for j in job_ids},
        )

    def _acquire(self, state, job, slope):
        rubick()._acquire_gpus_on_node(
            job, state.nodes[0], state, {}, {}, None, 6, job.min_res, slope,
        )

    def test_batched_move_matches_single_moves_and_rolls_back(self):
        ids = ["held1", "held2", "queued"]
        state, job = self._state_with_free_node()
        before = self._snapshot(state, ids)
        mark = state.mark()
        self._acquire(state, job, lambda gpus: 1.0)
        # Six GPUs (the target) with six companion CPUs, one journal entry.
        assert state.mark() == mark + 1
        assert state.nodes[0].share_of("queued") == ResourceVector(6, 6, 0.0)
        after = self._snapshot(state, ids)

        single, _ = self._state_with_free_node()
        for _ in range(6):
            single.move(single.nodes[0], "queued", ResourceVector(gpus=1, cpus=1))
        assert self._snapshot(single, ids) == after

        state.rollback(mark)
        assert self._snapshot(state, ids) == before

    def test_batch_stops_where_the_slope_gives_out(self):
        state, job = self._state_with_free_node()
        job.min_res = ResourceVector()
        # Past three GPUs the job gains nothing: the batch takes exactly
        # the three grabs the one-at-a-time loop would make.
        self._acquire(state, job, lambda gpus: 1.0 if gpus < 3 else 0.0)
        assert state.gpus_of("queued") == 3

    def test_batch_stops_at_the_free_cpus(self):
        from repro.scheduler.rubick import _RoundState

        cluster, jobs = self._saturated_round()
        # Node 0 keeps 7 free GPUs but only 3 free CPUs, none reclaimable.
        jobs.append(self._held(cluster, "hog", 0, 1, 93))
        state = _RoundState(cluster, jobs)
        self._acquire(state, jobs[2], lambda gpus: 1.0)
        assert state.gpus_of("queued") == 3
        assert state.nodes[0].free.gpus == 4
        assert state.nodes[0].free.cpus == 0

    def test_nodes_with_unbeatable_victims_are_skipped(self, monkeypatch):
        from repro.planeval import BestConfig, build_envelope
        from repro.scheduler.rubick import RubickPolicy, _RoundState

        cluster, jobs = self._saturated_round()
        jobs[0].min_res = ResourceVector(gpus=4, cpus=16)  # held1 may shrink
        queued = jobs[2]
        queued.min_res = ResourceVector()  # never below its minimum
        state = _RoundState(cluster, jobs)
        # Losing a GPU costs held1 more than one gains the queued job.
        state.down_slopes["held1", 8] = 5.0
        plan = ExecutionPlan(dp=1)
        curve = build_envelope(
            24, [None] + [BestConfig(plan, float(g)) for g in range(1, 25)]
        )

        class Curves:
            def curve(self, job):
                return curve

        entered = []
        monkeypatch.setattr(
            RubickPolicy, "_acquire_gpus_on_node",
            lambda self, job, node, *args: entered.append(node.node_id),
        )
        rubick()._acquire_gpus(
            queued, state, {j.job_id: j for j in jobs},
            {j.job_id: 1.0 for j in jobs}, Curves(), 16, queued.min_res,
        )
        # Node 1's only victim is not worth shrinking, node 2 has none.
        assert entered == [0]
