"""Simulation fast path: short-circuit equivalence + calendar/memo units.

The loop's end-to-end results (event calendar, diff-based apply,
steady-state policy short-circuit, throughput memo) are pinned absolutely
for every registered policy by ``tests/data/golden.json``.  This module
checks the short-circuit relatively as well: skipping the policy in steady
state must be *byte-identical* to invoking it on every round, for every
registered policy on 2 seeds plus the 100-job bench-seed rubick trace the
perf trajectory is measured on.  The rest tests the pieces.
"""

from __future__ import annotations

import pytest

from repro.cluster import PAPER_CLUSTER
from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.errors import OutOfMemoryError
from repro.models import GPT2, all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.perfmodel import OnlineRefitter
from repro.perfmodel.shape import ResourceShape
from repro.planeval import TestbedScorer
from repro.plans.plan import ExecutionPlan
from repro.scheduler import PerfModelStore
from repro.scheduler.job import Job, JobSpec, JobStatus
from repro.scheduler.registry import POLICIES, make_policy
from repro.scheduler.variants import rubick
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.events import EventCalendar
from repro.sim.serialization import result_from_dict, result_to_dict

SEED = 7
GOLDEN_SEEDS = (7, 3)


# ----------------------------------------------------------------------
# Shared per-seed fixtures (fitting is the expensive part — do it once)
# ----------------------------------------------------------------------
def _fit(seed, num_jobs=30, name=None):
    """(trace, fitted store) for one seed."""
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=seed)
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=num_jobs, seed=seed, name=name or f"golden-{seed}"
        ),
        testbed,
    )
    store = PerfModelStore()
    for model in all_models():
        perf, _ = build_perf_model(
            testbed, model, model.global_batch_size
        )
        store.add(perf)
    return trace, store


@pytest.fixture(scope="module")
def by_seed():
    """seed -> (30-job trace, fitted store) for the golden matrix."""
    return {seed: _fit(seed) for seed in GOLDEN_SEEDS}


@pytest.fixture(scope="module")
def seeded(by_seed):
    """(30-job trace, fitted store) for the single-seed whole-run tests."""
    return by_seed[SEED]


def _run(policy_name, trace, store, *, seed=SEED, short_circuit=True,
         **sim_kwargs):
    """One default-loop run; ``short_circuit=False`` disarms the steady-state
    skip, so the policy is invoked on every round."""
    policy = make_policy(policy_name)
    if not short_circuit:
        policy.steady_state = lambda jobs, ctx: False  # instance override
    sim = Simulator(
        PAPER_CLUSTER,
        policy,
        testbed=SyntheticTestbed(PAPER_CLUSTER, seed=seed),
        perf_store=store,
        config=EngineConfig(seed=seed),
        **sim_kwargs,
    )
    return sim.run(trace)


def assert_equivalent(fast, reference):
    """Byte-identity of everything the metrics layer derives results from."""
    assert fast.records == reference.records  # exact float equality
    assert fast.makespan == reference.makespan
    assert fast.profiling_seconds == reference.profiling_seconds
    assert fast.policy_name == reference.policy_name
    assert fast.trace_name == reference.trace_name


# ----------------------------------------------------------------------
# Golden equivalence: the short-circuit changes no result
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_policy_byte_identical(self, by_seed, policy_name, seed):
        trace, store = by_seed[seed]
        fast = _run(policy_name, trace, store, seed=seed)
        reference = _run(
            policy_name, trace, store, seed=seed, short_circuit=False
        )
        assert_equivalent(fast, reference)
        assert reference.policy_skips == 0

    def test_bench_seed_100_job_rubick(self):
        """The acceptance config: ``bench_overheads.py``'s trace."""
        trace, store = _fit(7, num_jobs=100, name="overheads")
        fast = _run("rubick", trace, store, seed=7)
        reference = _run("rubick", trace, store, seed=7, short_circuit=False)
        assert_equivalent(fast, reference)
        # The short-circuit actually fired — identity above proves soundness.
        assert fast.policy_skips > 0
        assert (
            fast.policy_invocations + fast.policy_skips
            == reference.policy_invocations
        )

    def test_online_refitter_disables_short_circuit(self, seeded):
        """Refit observations happen in `_apply`; skipping would starve them."""
        trace, _ = seeded
        results = {}
        for short_circuit in (True, False):
            store = PerfModelStore()  # private store: refits mutate it
            results[short_circuit] = _run(
                "rubick", trace, store, short_circuit=short_circuit,
                online_refitter=OnlineRefitter(
                    error_threshold=0.02, min_new_samples=1
                ),
            )
        assert_equivalent(results[True], results[False])
        assert results[True].policy_skips == 0


# ----------------------------------------------------------------------
# Event calendar
# ----------------------------------------------------------------------
def _job(job_id, *, throughput, samples_left, status=JobStatus.RUNNING,
         pause_until=0.0, priority=None):
    from repro.scheduler.job import JobPriority

    plan = ExecutionPlan(dp=2, ga_steps=8)
    spec = JobSpec(
        job_id=job_id, model=GPT2, global_batch=GPT2.global_batch_size,
        requested=ResourceVector(gpus=2, cpus=8),
        initial_plan=plan, total_samples=samples_left, submit_time=0.0,
        priority=priority or JobPriority.GUARANTEED,
    )
    job = Job(spec=spec, status=status)
    job.plan = plan
    job.placement = Placement({0: ResourceVector(gpus=2, cpus=8)})
    job.throughput = throughput
    job.pause_until = pause_until
    return job


class _Arrival:
    def __init__(self, submit_time):
        self.submit_time = submit_time


class TestEventCalendar:
    def test_arrival_cursor_drains_in_order(self):
        arrivals = [_Arrival(t) for t in (1.0, 2.0, 2.0, 5.0)]
        cal = EventCalendar(arrivals, tick_interval=300.0)
        assert cal.first_arrival_time() == 1.0
        assert [a.submit_time for a in cal.pop_arrivals(2.5)] == [1.0, 2.0, 2.0]
        assert cal.has_arrivals
        assert cal.next_event_time(2.5) == 5.0  # arrival before tick
        assert [a.submit_time for a in cal.pop_arrivals(10.0)] == [5.0]
        assert not cal.has_arrivals

    def test_pushed_arrivals_merge_with_the_trace(self):
        # Trace order among batch ties, push order among pushed ties, and
        # the batch entry before a pushed one at the same time.
        batch = [_Arrival(t) for t in (1.0, 2.0, 2.0)]
        cal = EventCalendar(batch, tick_interval=300.0)
        late, early, tied_a, tied_b = (
            _Arrival(t) for t in (3.0, 0.5, 2.0, 2.0)
        )
        for arrival in (late, early, tied_a, tied_b):
            cal.push_arrival(arrival)
        assert cal.first_arrival_time() == 0.5
        assert list(cal.pop_arrivals(2.0)) == [
            early, batch[0], batch[1], batch[2], tied_a, tied_b,
        ]
        assert cal.next_event_time(2.0) == 3.0
        assert list(cal.pop_arrivals(10.0)) == [late]
        assert not cal.has_arrivals

    def test_pending_policy_round_stops_the_clock(self):
        job = _job("a", throughput=1.0, samples_left=200.0)  # completes at 200
        cal = EventCalendar([], tick_interval=300.0)
        cal.track(job, 0.0)
        assert cal.next_event_time(0.0, policy_at=150.0) == 150.0
        assert cal.next_event_time(0.0, policy_at=250.0) == 200.0
        assert cal.next_event_time(0.0, policy_at=0.0) == 200.0  # already due
        assert cal.next_event_time(0.0) == 200.0

    def test_invalidation_voids_stale_events(self):
        job = _job("a", throughput=100.0, samples_left=100.0)  # completes at 1s
        cal = EventCalendar([], tick_interval=300.0)
        cal.track(job, 0.0)
        assert cal.next_event_time(0.0) == pytest.approx(1.0)
        # Preemption: the old completion event must not survive.
        job.status = JobStatus.QUEUED
        job.throughput = 0.0
        cal.invalidate(job.job_id)
        assert cal.next_event_time(0.0) == 300.0  # tick only
        # Re-track after a new allocation (lower throughput, later finish).
        job.status = JobStatus.RUNNING
        job.throughput = 1.0
        cal.track(job, 10.0)
        assert cal.next_event_time(10.0) == pytest.approx(110.0)

    def test_paused_job_anchor_uses_pause_until(self):
        job = _job("a", throughput=10.0, samples_left=100.0,
                   status=JobStatus.PAUSED, pause_until=40.0)
        cal = EventCalendar([], tick_interval=300.0)
        cal.track(job, 0.0)
        assert cal.next_event_time(0.0) == pytest.approx(50.0)

    def test_stale_heap_entries_are_discarded_lazily(self):
        cal = EventCalendar([], tick_interval=300.0)
        job = _job("a", throughput=100.0, samples_left=100.0)
        for anchor in (0.0, 1.0, 2.0):  # three re-tracks -> two stale entries
            cal.track(job, anchor)
        assert len(cal._heap) == 3
        cal.next_event_time(2.0)
        assert len(cal._heap) == 1  # the two stale epochs were popped


# ----------------------------------------------------------------------
# Throughput memo (TestbedScorer)
# ----------------------------------------------------------------------
class TestThroughputMemo:
    def _scorer_with_counter(self, **testbed_kwargs):
        testbed = SyntheticTestbed(PAPER_CLUSTER, seed=7, **testbed_kwargs)
        calls = {"n": 0}
        inner = testbed.true_throughput

        def counting(*args, **kwargs):
            calls["n"] += 1
            return inner(*args, **kwargs)

        testbed.true_throughput = counting
        return TestbedScorer(testbed), testbed, calls

    def test_hit_costs_no_testbed_query(self):
        scorer, _, calls = self._scorer_with_counter()
        plan = ExecutionPlan(dp=2, ga_steps=8)
        shape = ResourceShape.packed(2, node_size=8, cpus=8)
        first = scorer.true_throughput(GPT2, plan, shape, 16)
        assert calls["n"] == 1
        again = scorer.true_throughput(GPT2, plan, shape, 16)
        assert calls["n"] == 1  # memo hit
        assert again == first

    def test_oom_is_memoized(self):
        scorer, _, calls = self._scorer_with_counter()
        plan = ExecutionPlan(dp=1, ga_steps=1)  # 1 GPU, full batch: OOMs
        shape = ResourceShape.packed(1, node_size=8, cpus=4)
        biggest = max(all_models(), key=lambda m: m.param_count)
        with pytest.raises(OutOfMemoryError):
            scorer.true_throughput(biggest, plan, shape, 16)
        assert calls["n"] == 1
        with pytest.raises(OutOfMemoryError):
            scorer.true_throughput(biggest, plan, shape, 16)
        assert calls["n"] == 1  # cached infeasibility, no re-query

    def test_noise_only_touches_measure_not_the_memo(self):
        """Ground truth is noise-free, so the memo never goes stale."""
        scorer, testbed, _ = self._scorer_with_counter(measurement_noise=0.3)
        plan = ExecutionPlan(dp=2, ga_steps=8)
        shape = ResourceShape.packed(2, node_size=8, cpus=8)
        cached = scorer.true_throughput(GPT2, plan, shape, 16)
        noisy = [
            testbed.measure(GPT2, plan, shape, 16, run_id=i) for i in (0, 1)
        ]
        assert noisy[0] != noisy[1]  # the noisy path stays noisy...
        assert cached == scorer.true_throughput(GPT2, plan, shape, 16)
        # ...and the memoized ground truth bypasses it entirely.
        assert cached not in noisy


# ----------------------------------------------------------------------
# Steady-state short-circuit
# ----------------------------------------------------------------------
class TestSteadyState:
    def test_non_reactive_policy_never_skips(self, seeded):
        trace, store = seeded
        policy = make_policy("simple")
        policy.steady_state = lambda jobs, ctx: False  # instance override
        sim = Simulator(
            PAPER_CLUSTER, policy,
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=SEED),
            perf_store=store, config=EngineConfig(seed=SEED),
        )
        result = sim.run(trace)
        assert result.policy_skips == 0
        assert result.policy_invocations == result.sim_rounds

    def test_rubick_blocks_on_queued_best_effort_and_closed_gates(self):
        policy = rubick()

        class Ctx:
            reconfig_delta = 78.0

        runner = _job("r", throughput=5.0, samples_left=1e6)
        runner.run_seconds = 1e6  # gate comfortably open
        assert policy.steady_state([runner], Ctx()) is True

        gated = _job("g", throughput=5.0, samples_left=1e6)
        gated.run_seconds = 100.0
        gated.reconfig_count = 3  # (100 - 4*78)/100 << 0.97: gate closed
        assert policy.steady_state([runner, gated], Ctx()) is False

        from repro.scheduler.job import JobPriority

        best_effort = _job("be", throughput=0.0, samples_left=1e6,
                           status=JobStatus.QUEUED,
                           priority=JobPriority.BEST_EFFORT)
        assert policy.steady_state([runner, best_effort], Ctx()) is False

        queued_guaranteed = _job("qg", throughput=0.0, samples_left=1e6,
                                 status=JobStatus.QUEUED)
        assert policy.steady_state([runner, queued_guaranteed], Ctx()) is True


# ----------------------------------------------------------------------
# Serialization of the perf counters
# ----------------------------------------------------------------------
class TestPerfCounterSerialization:
    def test_counters_roundtrip_and_wall_time_stays_out(self, seeded):
        trace, store = seeded
        result = _run("antman", trace, store)
        assert result.policy_skips > 0  # antman steady-states quickly
        doc = result_to_dict(result)
        assert "policy_wall_seconds" not in doc  # nondeterministic: not persisted
        assert "sim_wall_seconds" not in doc
        loaded = result_from_dict(doc)
        assert loaded.policy_skips == result.policy_skips
        assert loaded.sim_rounds == result.sim_rounds
        assert loaded.policy_invocations == result.policy_invocations
        assert loaded.records == result.records

    def test_pre_fastpath_documents_still_load(self, seeded):
        trace, store = seeded
        doc = result_to_dict(_run("antman", trace, store))
        for legacy_missing in ("policy_skips", "sim_rounds"):
            doc.pop(legacy_missing)
        loaded = result_from_dict(doc)
        assert loaded.policy_skips == 0 and loaded.sim_rounds == 0
