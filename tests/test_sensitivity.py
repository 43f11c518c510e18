"""Sensitivity curves, best-plan lookup, and minimum-resource search."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER, ResourceVector
from repro.models import GPT2, ROBERTA
from repro.perfmodel import ResourceShape
from repro.planeval import BestConfig, PlanEvalEngine, build_envelope
from repro.plans import ExecutionPlan
from repro.scheduler import (
    BestPlanSelector,
    Job,
    JobSpec,
    SchedulingContext,
    rubick,
)


@pytest.fixture(scope="module")
def engine(fitted_store) -> PlanEvalEngine:
    return PlanEvalEngine(PAPER_CLUSTER, perf_store=fitted_store)


def _find_min_res(fitted_store, job: Job):
    """Rubick's minimum-demand search (Alg. 1 preamble) for one job."""
    policy = rubick()
    ctx = SchedulingContext(PAPER_CLUSTER, fitted_store)
    policy._ensure_helpers(ctx)
    return policy._find_min_res(job, ctx)


def _job(model=GPT2, gpus=8, plan=None) -> Job:
    plan = plan or ExecutionPlan(dp=gpus, ga_steps=2 if gpus == 8 else 1)
    spec = JobSpec(
        job_id="t", model=model, global_batch=model.global_batch_size,
        requested=ResourceVector(gpus, gpus * 4, 0.0),
        initial_plan=plan, total_samples=1e5, submit_time=0.0,
    )
    return Job(spec=spec)


class TestBestForShape:
    def test_returns_plan_matching_gpus(self, engine):
        best = engine.best(GPT2, 16, ResourceShape.packed(8, cpus=32))
        assert best is not None
        assert best.plan.num_gpus == 8
        assert best.throughput > 0

    def test_zero_gpus_none(self, engine):
        assert engine.best(GPT2, 16, ResourceShape.packed(0)) is None

    def test_cached_and_deterministic(self, engine):
        shape = ResourceShape.packed(4, cpus=16)
        a = engine.best(GPT2, 16, shape)
        b = engine.best(GPT2, 16, shape)
        assert a is b  # same cache entry

    def test_small_model_space_restricted(self, engine):
        # Sub-1B models search the DP plan family only.
        best = engine.best(ROBERTA, 64, ResourceShape.packed(8, cpus=32))
        assert best is not None
        assert best.plan.tp == 1 and best.plan.pp == 1


class TestGpuCurve:
    def test_envelope_monotone(self, engine):
        curve = engine.curve(GPT2, 16, max_gpus=16)
        env = curve.envelope
        assert env[0] == 0.0
        assert all(b >= a for a, b in zip(env, env[1:]))

    def test_slopes_consistent_with_envelope(self, engine):
        curve = engine.curve(GPT2, 16, max_gpus=16)
        for g in range(0, 15):
            assert curve.slope_up(g) == pytest.approx(
                curve.envelope[g + 1] - curve.envelope[g]
            )
        assert curve.slope_down(0) == 0.0

    def test_lookahead_crosses_plateaus(self, engine):
        curve = engine.curve(GPT2, 16, max_gpus=16)
        # Wherever the unit slope is zero before the curve tops out, the
        # lookahead must still see the next rise.
        top = max(range(17), key=lambda g: curve.envelope[g])
        for g in range(top):
            if curve.slope_up(g) == 0.0:
                assert curve.lookahead_slope_up(g) > 0.0

    def test_lookahead_zero_at_top(self, engine):
        curve = engine.curve(GPT2, 16, max_gpus=16)
        assert curve.lookahead_slope_up(16) == 0.0
        assert curve.lookahead_slope_up(17) == 0.0

    def test_out_of_range_clamped(self, engine):
        curve = engine.curve(GPT2, 16, max_gpus=8)
        assert curve.throughput_at(99) == curve.throughput_at(8)
        assert curve.throughput_at(-1) == 0.0


def _scan_lookahead(env, gpus):
    """Per-GPU gain to the first later count whose envelope rises by more
    than 1e-12, by a linear scan (0.0 when none does)."""
    for nxt in range(gpus + 1, len(env)):
        if env[nxt] > env[gpus] + 1e-12:
            return (env[nxt] - env[gpus]) / (nxt - gpus)
    return 0.0


def _scan_peak(env):
    """Last count beating the previous peak count by more than 1e-9."""
    peak = 0
    for g in range(1, len(env)):
        if env[g] > env[peak] + 1e-9:
            peak = g
    return peak


def _step(value, kind, size):
    """Next raw throughput after ``value`` for one generated step kind."""
    if kind == "none":
        return None  # no plan uses exactly this count: the envelope is flat
    if kind == "same":
        return value
    if kind == "ulps":  # sub-1e-12 rises, a few ulps at a time
        for _ in range(1 + int(size * 8)):
            value = math.nextafter(value, math.inf)
        return value
    if kind == "edge":  # rises straddling the 1e-12 and 1e-9 thresholds
        return value + (1e-12, 1e-9)[size > 0.5] * (0.5 + size)
    if kind == "drop":  # a worse plan: the envelope carries its peak
        return value - size * value
    return value + size * 50.0  # a real rise


_KINDS = st.sampled_from(["none", "same", "ulps", "edge", "drop", "rise"])


@st.composite
def _raw_configs(draw):
    plan = ExecutionPlan(dp=1)
    value = draw(st.floats(0.5, 1e4))
    steps = draw(
        st.lists(st.tuples(_KINDS, st.floats(0.0, 1.0)), min_size=0, max_size=40)
    )
    # A flat tail: nothing after the last step beats the envelope.
    tail = draw(st.integers(0, 6))
    raw: list[BestConfig | None] = [None]
    for kind, size in steps + [("none", 0.0)] * tail:
        nxt = _step(value, kind, size)
        if nxt is None:
            raw.append(None)
            continue
        value = nxt
        raw.append(BestConfig(plan=plan, throughput=value))
    return raw


class TestCurveTables:
    """``build_envelope``'s per-count tables against direct scans."""

    @settings(max_examples=300, deadline=None)
    @given(_raw_configs())
    def test_tables_match_scans(self, raw):
        limit = len(raw) - 1
        curve = build_envelope(limit, raw)
        env = curve.envelope
        assert all(b >= a for a, b in zip(env, env[1:]))
        assert len(curve.lookahead) == limit + 1
        for g in range(limit + 1):
            assert curve.lookahead[g] == _scan_lookahead(env, g)
            assert curve.lookahead_slope_up(g) == curve.lookahead[g]
        assert curve.lookahead_slope_up(limit + 1) == 0.0
        assert curve.lookahead_slope_up(limit + 50) == 0.0
        assert curve.peak_gpus == _scan_peak(env)

    def test_negative_count_rejected(self):
        curve = build_envelope(0, [None])
        with pytest.raises(ValueError):
            curve.lookahead_slope_up(-1)


class TestMinRes:
    def test_min_res_never_exceeds_request(self, fitted_store):
        job = _job(gpus=8)
        found = _find_min_res(fitted_store, job)
        assert found is not None
        min_res, plan = found
        assert min_res.gpus <= 8
        assert min_res.cpus <= 32
        assert plan.num_gpus == min_res.gpus

    def test_min_res_matches_baseline_performance(self, fitted_store):
        job = _job(gpus=8)
        found = _find_min_res(fitted_store, job)
        assert found is not None
        min_res, plan = found
        perf = fitted_store.get(GPT2)
        baseline = perf.throughput(
            job.spec.initial_plan, ResourceShape.packed(8, cpus=32), 16
        )
        achieved = perf.throughput(
            plan, ResourceShape.packed(min_res.gpus, cpus=min_res.cpus), 16
        )
        assert achieved >= baseline * 0.999

    def test_bad_initial_plan_shrinks_demand(self, fitted_store):
        # A deliberately poor initial plan (offload on 8 GPUs) should be
        # matchable with far fewer GPUs under a better plan.
        from repro.plans import ZeroStage

        bad = ExecutionPlan(dp=8, zero=ZeroStage.OFFLOAD, ga_steps=2)
        job = _job(gpus=8, plan=bad)
        found = _find_min_res(fitted_store, job)
        assert found is not None
        assert found[0].gpus < 8


class TestCpuSlopes:
    def test_non_offload_best_has_zero_cpu_slope(self, engine):
        shape = ResourceShape.packed(8, cpus=32)
        best = engine.best(GPT2, 16, shape)
        if not best.plan.uses_offload:
            selector = BestPlanSelector(engine)
            assert selector.cpu_slope_up(_job(gpus=8), shape) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_cpu_slope_down_guards_floor(self, engine):
        shape = ResourceShape.packed(4, cpus=4)  # at the 1-CPU/GPU floor
        selector = BestPlanSelector(engine)
        assert selector.cpu_slope_down(_job(gpus=4), shape) == float("inf")
