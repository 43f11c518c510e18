"""Scheduling policies: Rubick, variants, and baselines on small scenarios."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
)
from repro.models import GPT2, ROBERTA
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.perfmodel import ResourceShape
from repro.planeval import DEFAULT_CPUS_PER_GPU
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler import (
    Job,
    JobPriority,
    JobSpec,
    JobStatus,
    PerfModelStore,
    RubickPolicy,
    SchedulingContext,
    Tenant,
    rubick,
    rubick_e,
    rubick_n,
    rubick_r,
)
from repro.scheduler.baselines import AntManPolicy, SiaPolicy, SynergyPolicy
from repro.units import GB

SPEC = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 21


@pytest.fixture(scope="module")
def env():
    testbed = SyntheticTestbed(SPEC, seed=SEED)
    store = PerfModelStore()
    for model in (GPT2, ROBERTA):
        perf, _ = build_perf_model(testbed, model, model.global_batch_size)
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

    def test_unknown_growth_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown growth mode"):
            RubickPolicy(growth_mode="slack")

    def test_baseline_scores_the_plan_at_the_requested_shape(self, env):
        # A request may hold more GPUs than the submitted plan uses; the
        # SLA baseline still scores that plan at the requested shape.
        _, store = env
        job = _queued_job(gpus=8, plan=ExecutionPlan(dp=4, ga_steps=4))
        shape = ResourceShape.packed(8, node_size=8, cpus=32)
        expected = store.get(GPT2).throughput(
            job.spec.initial_plan, shape, GPT2.global_batch_size
        )
        assert rubick()._baseline_pred(job, _ctx(store)) == expected

    def test_min_res_cached_on_job(self, env):
        _, store = env
        cluster = Cluster(SPEC)
        job = _queued_job()
        rubick().schedule([job], cluster, _ctx(store))
        assert job.min_res is not None
        assert job.min_res.gpus <= job.spec.requested.gpus


class TestQuotaAdmission:
    """Phase 1 admits a queued guaranteed job only while the running
    guaranteed jobs' floors plus its own fit the tenant quota.  An
    unregistered tenant's quota is the *spec's* GPU count, so after a
    scale-up the tally alone holds a job back beside free GPUs."""

    def _round(self, store, ctx_spec, monkeypatch):
        cluster = Cluster(SPEC)
        cluster.add_node()  # 24 live GPUs; SPEC still counts 16
        holder = _queued_job("holder", gpus=8)
        holder.min_res = ResourceVector(8, 8)
        holder.placement = Placement({0: ResourceVector(gpus=8, cpus=32)})
        cluster.apply("holder", holder.placement)
        holder.status = JobStatus.RUNNING
        holder.plan = holder.spec.initial_plan
        holder.start_time = 0.0
        waiting = _queued_job(
            "waiting", gpus=16, plan=ExecutionPlan(dp=16), submit=1.0
        )
        waiting.min_res = ResourceVector(16, 16)
        calls = []
        real = RubickPolicy._schedule_job

        def counting(policy, job, *args):
            calls.append(job.job_id)
            return real(policy, job, *args)

        monkeypatch.setattr(RubickPolicy, "_schedule_job", counting)
        ctx = SchedulingContext(cluster_spec=ctx_spec, perf_store=store)
        allocations = rubick().schedule([holder, waiting], cluster, ctx)
        return allocations, calls, cluster

    def test_quota_tally_skips_a_job_beside_free_gpus(self, env, monkeypatch):
        _, store = env
        allocations, calls, cluster = self._round(store, SPEC, monkeypatch)
        free_gpus = sum(n.capacity.gpus - n.used.gpus for n in cluster.nodes)
        assert free_gpus == 16  # two whole nodes idle
        assert "waiting" not in calls  # 8 + 16 > 16: never tried
        assert "waiting" not in allocations

    def test_live_quota_admits_the_same_job(self, env, monkeypatch):
        _, store = env
        live = ClusterSpec(num_nodes=3, node=SPEC.node)
        allocations, calls, _ = self._round(store, live, monkeypatch)
        assert calls.count("waiting") == 1
        assert allocations["waiting"].placement.total.gpus == 16


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
        assert state.gpus_of(victim.job_id) == 0
        assert state.cpus_of(victim.job_id) == 0
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
            {k: list(b) for k, b in enumerate(state._free_index._buckets) if b},
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


# ----------------------------------------------------------------------
# Exact unit runs: each batched step of Alg. 1 against its one-unit loop
# ----------------------------------------------------------------------
_SLOPE_VALUES = st.sampled_from([0.0, 0.25, 1.0, 4.0])


class _TableSelector:
    """Selector stand-in whose slopes are drawn tables (ties included)."""

    def __init__(self, gpu_down, cpu_down, cpu_up, cpu_up_until):
        self.gpu_down = gpu_down  # job id -> slopes indexed by total GPUs
        self.cpu_down = cpu_down  # job id -> slopes indexed by CPUs mod 4
        self.cpu_up = cpu_up  # slopes indexed by CPUs mod its length
        self.cpu_up_until = cpu_up_until  # no CPU gain from here on

    def gpu_slope_down(self, job, gpus):
        return self.gpu_down[job.job_id][gpus]

    def cpu_slope_down(self, job, shape):
        return self.cpu_down[job.job_id][shape.cpus % 4]

    def cpu_slope_up(self, job, shape):
        if shape.cpus >= self.cpu_up_until:
            return 0.0
        return self.cpu_up[shape.cpus % len(self.cpu_up)]

    def cpu_slopes_up(self, job, shape, n):
        return [
            self.cpu_slope_up(job, shape.with_cpus(shape.cpus + i))
            for i in range(n)
        ]


@st.composite
def _round_scenarios(draw):
    """Plain data for a small round: 1-3 nodes, several victims with mixed
    floors, nodes saturated or CPU-tight, and the job being scheduled
    (``grower``), which may already hold shares."""
    num_nodes = draw(st.integers(1, 3))
    num_cpus = draw(st.integers(4, 24))
    victims = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    order = draw(st.permutations(victims + ["grower"]))
    shares: dict[str, dict[int, tuple[int, int]]] = {j: {} for j in order}
    for node_id in range(num_nodes):
        gpus_left, cpus_left = 8, num_cpus
        last_victim = None
        for job_id in order:
            if gpus_left == 0 or not draw(st.booleans()):
                continue
            # Small shares often: victims that leave the node mid-run.
            gpus = draw(st.integers(1, min(gpus_left, draw(st.sampled_from([2, 8])))))
            cpus = draw(st.integers(min(1, cpus_left), min(cpus_left, 6 * gpus)))
            shares[job_id][node_id] = (gpus, cpus)
            gpus_left -= gpus
            cpus_left -= cpus
            if job_id != "grower":
                last_victim = job_id
        if gpus_left and last_victim is not None and draw(st.booleans()):
            gpus, cpus = shares[last_victim][node_id]  # saturate the node
            shares[last_victim][node_id] = (gpus + gpus_left, cpus)
    return {
        "spec": ClusterSpec(
            num_nodes=num_nodes, node=NodeSpec(num_gpus=8, num_cpus=num_cpus)
        ),
        "order": order,
        "shares": shares,
        "floors": {
            j: (draw(st.integers(0, 8)), draw(st.integers(0, 16)))
            if draw(st.booleans()) else None  # None: best effort
            for j in order
        },
        "selector": _TableSelector(
            {v: draw(st.lists(_SLOPE_VALUES, min_size=25, max_size=25))
             for v in victims},
            {v: draw(st.lists(_SLOPE_VALUES, min_size=4, max_size=4))
             for v in victims},
            draw(st.lists(_SLOPE_VALUES, min_size=1, max_size=5)),
            draw(st.integers(0, 80)),
        ),
        "baselines": {j: draw(st.sampled_from([0.5, 1.0, 2.0])) for j in order},
    }


def _build_round(scenario):
    """A fresh (round state, jobs by id) from a scenario."""
    from repro.scheduler.rubick import _RoundState

    cluster = Cluster(scenario["spec"])
    jobs = {}
    for job_id in scenario["order"]:
        floor = scenario["floors"][job_id]
        job = _queued_job(
            job_id, gpus=1,
            priority=JobPriority.BEST_EFFORT if floor is None
            else JobPriority.GUARANTEED,
        )
        job.min_res = ResourceVector(*(floor or (0, 0)))
        placement = {
            node_id: ResourceVector(gpus=gpus, cpus=cpus)
            for node_id, (gpus, cpus) in scenario["shares"][job_id].items()
        }
        if placement:
            job.status = JobStatus.RUNNING
            cluster.apply(job_id, Placement(placement))
        jobs[job_id] = job
    return _RoundState(cluster, list(jobs.values())), jobs


def _round_snapshot(state, job_ids, ordered=True):
    shares = list if ordered else dict
    return (
        [(n.node_id, n.free, n.host_free, shares(n.shares.items()))
         for n in state.nodes],
        {k: list(b) for k, b in enumerate(state._free_index._buckets) if b},
        {j: (state.gpus_of(j), state.cpus_of(j), state.job_node_ids(j))
         for j in job_ids},
    )


def _one_unit_acquire(policy, job, node, state, by_id, baselines, selector,
                      target_gpus, min_res, my_slope):
    """Alg. 1 lines 8-16 as written: one GPU + one CPU per journaled step."""
    job_id = job.job_id
    while state.gpus_of(job_id) < target_gpus:
        current = state.gpus_of(job_id)
        below_min = current < min_res.gpus
        slope = my_slope(current)
        if not below_min and slope <= 1e-9:
            break

        def companion():
            return node.free.gpus > 0 and policy._ensure_companion_cpu(
                job, node, state, by_id, baselines, selector, below_min, slope
            )

        if companion():
            state.move(node, job_id, ResourceVector(gpus=1, cpus=1))
            continue
        victim = policy._lowest_slope_victim(
            node, state, by_id, baselines, selector, exclude=job_id
        )
        if victim is None or not (below_min or slope > victim[1]):
            break
        policy._shrink_gpu(victim[0], node, state)
        if not companion():
            break
        state.move(node, job_id, ResourceVector(gpus=1, cpus=1))


def _one_unit_trim(policy, job_id, plan_gpus, state):
    """`_trim_to_plan` as written: one journaled take per dropped GPU."""
    excess = state.gpus_of(job_id) - plan_gpus
    nodes = sorted(
        (n for n in state.nodes if n.share_of(job_id).gpus > 0),
        key=lambda n: n.share_of(job_id).gpus,
    )
    for node in nodes:
        while excess > 0 and node.share_of(job_id).gpus > 0:
            share = node.share_of(job_id)
            if share.gpus == 1:
                drop = share.cpus
            else:
                drop = min(DEFAULT_CPUS_PER_GPU, max(share.cpus - (share.gpus - 1), 0))
            state.take(node, job_id, ResourceVector(gpus=1, cpus=drop))
            excess -= 1
        if excess <= 0:
            break


def _one_unit_tune_cpus(policy, job, state, by_id, baselines, selector, min_res):
    """`_tune_cpus` as written: slope-driven growth one journaled CPU a time."""
    job_id = job.job_id
    if state.gpus_of(job_id) == 0:
        return
    for node_id in state.job_node_ids(job_id):
        node = state.nodes[node_id]
        share = node.share_of(job_id)
        if share.gpus == 0:
            continue
        spare = node.free.cpus - node.free.gpus
        want = min(share.gpus * DEFAULT_CPUS_PER_GPU - share.cpus, spare)
        if want > 0:
            state.move(node, job_id, ResourceVector(cpus=want))
    guard = 0
    while guard < 256:
        guard += 1
        shape = state.shape_of(job_id)
        slope = selector.cpu_slope_up(job, shape) / baselines[job_id]
        below_min = state.cpus_of(job_id) < min_res.cpus
        if not below_min and slope <= 1e-9:
            break
        node = next(
            (state.nodes[i] for i in state.job_node_ids(job_id)
             if state.nodes[i].share_of(job_id).gpus > 0
             and state.nodes[i].free.cpus > state.nodes[i].free.gpus),
            None,
        )
        if node is not None:
            state.move(node, job_id, ResourceVector(cpus=1))
            continue
        moved = False
        for node_id in state.job_node_ids(job_id):
            node = state.nodes[node_id]
            if node.share_of(job_id).gpus == 0:
                continue
            victim = policy._lowest_cpu_slope_victim(
                node, state, by_id, baselines, selector, exclude=job_id
            )
            if victim is not None and (below_min or slope > victim[1]):
                state.take(node, victim[0].job_id, ResourceVector(cpus=1))
                state.move(node, job_id, ResourceVector(cpus=1))
                moved = True
                break
        if not moved:
            break


class TestExactUnitRuns:
    """Each run in Rubick's Alg. 1 (victim reclaim, trim, CPU growth) leaves
    the state — shares with their dict order, free vectors, totals and the
    free-GPU buckets — of the one-unit loop it replaces, and rolls back to
    the one-unit loop's rollback."""

    def _check(self, scenario, run, reference):
        job_ids = scenario["order"]
        state, jobs = _build_round(scenario)
        pre = _round_snapshot(state, job_ids, ordered=False)
        mark = state.mark()
        run(state, jobs)
        ref_state, ref_jobs = _build_round(scenario)
        ref_mark = ref_state.mark()
        reference(ref_state, ref_jobs)
        assert _round_snapshot(state, job_ids) == _round_snapshot(ref_state, job_ids)
        assert state.down_slopes == ref_state.down_slopes
        state.rollback(mark)
        ref_state.rollback(ref_mark)
        assert _round_snapshot(state, job_ids) == _round_snapshot(ref_state, job_ids)
        assert _round_snapshot(state, job_ids, ordered=False) == pre

    @settings(max_examples=300, deadline=None)
    @given(scenario=_round_scenarios(), data=st.data())
    def test_acquisition_matches_one_unit_loop(self, scenario, data):
        node_id = data.draw(st.integers(0, scenario["spec"].num_nodes - 1))
        target = data.draw(st.integers(1, 24))
        min_res = ResourceVector(gpus=data.draw(st.integers(0, target)))
        job_slopes = data.draw(st.lists(_SLOPE_VALUES, min_size=25, max_size=25))
        args = (scenario["baselines"], scenario["selector"], target, min_res,
                job_slopes.__getitem__)

        def run(state, jobs):
            rubick()._acquire_gpus_on_node(
                jobs["grower"], state.nodes[node_id], state, jobs, *args
            )

        def reference(state, jobs):
            _one_unit_acquire(
                rubick(), jobs["grower"], state.nodes[node_id], state, jobs, *args
            )

        self._check(scenario, run, reference)

    @settings(max_examples=200, deadline=None)
    @given(scenario=_round_scenarios(), data=st.data())
    def test_trim_matches_one_unit_loop(self, scenario, data):
        held = sum(g for g, _ in scenario["shares"]["grower"].values())
        assume(held > 0)
        plan_gpus = data.draw(st.integers(0, held))
        self._check(
            scenario,
            lambda state, jobs: rubick()._trim_to_plan("grower", plan_gpus, state),
            lambda state, jobs: _one_unit_trim(rubick(), "grower", plan_gpus, state),
        )

    @settings(max_examples=200, deadline=None)
    @given(scenario=_round_scenarios(), data=st.data())
    def test_cpu_growth_matches_one_unit_loop(self, scenario, data):
        assume(scenario["shares"]["grower"])
        min_res = ResourceVector(cpus=data.draw(st.integers(0, 40)))
        args = (scenario["baselines"], scenario["selector"], min_res)
        self._check(
            scenario,
            lambda state, jobs: rubick()._tune_cpus(
                jobs["grower"], state, jobs, *args
            ),
            lambda state, jobs: _one_unit_tune_cpus(
                rubick(), jobs["grower"], state, jobs, *args
            ),
        )

    # A saturated node 0 (8 GPUs): ``lean`` holds 3 GPUs on a single CPU,
    # ``rich`` holds 5 GPUs and 10 CPUs at its GPU floor.  One CPU is free.
    _SPEC1 = ClusterSpec(num_nodes=1, node=NodeSpec(num_gpus=8, num_cpus=12))

    class _CpuDown:
        def cpu_slope_down(self, job, shape):
            return 0.5

    def _companion_round(self):
        from repro.scheduler.rubick import _RoundState

        cluster = Cluster(self._SPEC1)
        jobs = {}
        for job_id, gpus, cpus, min_res in (
            ("lean", 3, 1, ResourceVector()),
            ("rich", 5, 10, ResourceVector(gpus=5, cpus=5)),
        ):
            job = _queued_job(job_id, gpus=gpus)
            job.status = JobStatus.RUNNING
            job.min_res = min_res
            cluster.apply(job_id, Placement({0: ResourceVector(gpus, cpus)}))
            jobs[job_id] = job
        jobs["grower"] = _queued_job("grower", gpus=1)
        jobs["grower"].min_res = ResourceVector()
        state = _RoundState(cluster, list(jobs.values()))
        state.down_slopes.update({("lean", g): 0.1 for g in (1, 2, 3)})
        return state, jobs

    def test_run_stops_where_the_freed_gpu_has_no_free_cpu(self, monkeypatch):
        from repro.scheduler.rubick import RubickPolicy

        state, jobs = self._companion_round()
        node = state.nodes[0]
        baselines = {j: 1.0 for j in jobs}
        # The first reclaim pairs lean's GPU with the free CPU; lean then
        # has 2 GPUs on 1 CPU, so its next GPU leaves alone and finds no
        # free CPU: the run stops before that step and hands lean back.
        stop = rubick()._reclaim_run(
            jobs["grower"], node, state, jobs, baselines, None, 3, 0,
            lambda gpus: 1.0,
        )
        assert stop is jobs["lean"]
        assert node.share_of("grower") == ResourceVector(1, 1, 0.0)
        assert node.share_of("lean") == ResourceVector(2, 1, 0.0)
        assert node.free == ResourceVector(0, 0, 1600 * GB)

        # The full acquisition takes that step the one-unit way: a CPU comes
        # back from rich, the lowest-CPU-slope job over its CPU floor.
        cpu_victims = []
        original = RubickPolicy._lowest_cpu_slope_victim

        def spy(self, *args, **kwargs):
            found = original(self, *args, **kwargs)
            cpu_victims.append(found[0].job_id)
            return found

        monkeypatch.setattr(RubickPolicy, "_lowest_cpu_slope_victim", spy)
        args = (baselines, self._CpuDown(), 3, ResourceVector(), lambda g: 1.0)
        state, jobs = self._companion_round()
        rubick()._acquire_gpus_on_node(
            jobs["grower"], state.nodes[0], state, jobs, *args
        )
        assert cpu_victims == ["rich"]
        assert state.nodes[0].share_of("rich") == ResourceVector(5, 9, 0.0)
        assert "lean" not in state.nodes[0].shares
        ref_state, ref_jobs = self._companion_round()
        _one_unit_acquire(
            rubick(), ref_jobs["grower"], ref_state.nodes[0], ref_state,
            ref_jobs, *args,
        )
        ids = list(jobs)
        assert _round_snapshot(state, ids) == _round_snapshot(ref_state, ids)

    def test_reclaiming_from_two_victims_journals_three_entries(self):
        from repro.scheduler.rubick import _RoundState

        cluster = Cluster(ClusterSpec(
            num_nodes=1, node=NodeSpec(num_gpus=8, num_cpus=16)
        ))
        jobs = {}
        for job_id in ("a", "b"):
            job = _queued_job(job_id, gpus=4, priority=JobPriority.BEST_EFFORT)
            job.status = JobStatus.RUNNING
            cluster.apply(job_id, Placement({0: ResourceVector(4, 8)}))
            jobs[job_id] = job
        jobs["grower"] = _queued_job("grower", gpus=1)
        state = _RoundState(cluster, list(jobs.values()))
        # a is cheapest to shrink once, then b for the rest.
        state.down_slopes.update({("a", 4): 0.1, ("a", 3): 0.3})
        state.down_slopes.update({("b", g): 0.2 for g in (2, 3, 4)})
        mark = state.mark()
        rubick()._acquire_gpus_on_node(
            jobs["grower"], state.nodes[0], state, jobs,
            {j: 1.0 for j in jobs}, None, 4, ResourceVector(), lambda g: 1.0,
        )
        node = state.nodes[0]
        assert node.share_of("grower") == ResourceVector(4, 4, 0.0)
        assert node.share_of("a") == ResourceVector(3, 7, 0.0)
        assert node.share_of("b") == ResourceVector(1, 5, 0.0)
        # One take per victim and one move, where one-unit steps wrote 8.
        assert state.mark() - mark <= 3

    def test_cpu_growth_keeps_the_256_step_guard(self):
        """CPUs that always pay off: growth stops after 256 slope steps."""
        from repro.scheduler.rubick import _RoundState

        cluster = Cluster(ClusterSpec(
            num_nodes=1, node=NodeSpec(num_gpus=8, num_cpus=400)
        ))
        job = _queued_job("grower", gpus=1)
        job.status = JobStatus.RUNNING
        cluster.apply("grower", Placement({0: ResourceVector(1, 1)}))
        state = _RoundState(cluster, [job])
        selector = _TableSelector({}, {}, [1.0], 1000)
        rubick()._tune_cpus(
            job, state, {"grower": job}, {"grower": 1.0}, selector,
            ResourceVector(),
        )
        # The top-up to 4 CPUs per GPU, then exactly 256 one-CPU steps.
        assert state.cpus_of("grower") == 4 + 256
