"""Metrics aggregation and ASCII reporting helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    NO_DATA,
    format_series,
    format_table,
    normalize_to_first,
    ratio,
    span_cell,
)
from repro.analysis.report import perf_footer
from repro.scheduler import JobPriority
from repro.sim.metrics import JobRecord, SimulationResult
from repro.units import HOUR


def _record(job_id="j", jct=HOUR, priority=JobPriority.GUARANTEED,
            tenant="default", sla=1.0, model="gpt2-1.5b", reconfigs=1,
            held_gpus=8, restarts=0, lost_gpu_seconds=0.0):
    return JobRecord(
        job_id=job_id, model_name=model, priority=priority, tenant=tenant,
        submit_time=0.0, first_start=60.0, finish_time=jct, jct=jct,
        queue_seconds=60.0, run_seconds=jct - 60.0, reconfig_count=reconfigs,
        reconfig_seconds=78.0 * reconfigs, gpu_seconds=8 * jct,
        requested_gpus=8, sla_ratio=sla,
        reconfig_gpu_seconds=held_gpus * 78.0 * reconfigs,
        restart_count=restarts, lost_gpu_seconds=lost_gpu_seconds,
    )


class TestSimulationResult:
    def test_jct_statistics(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record(jct=h * HOUR) for h in (1, 2, 3)]
        assert res.avg_jct_hours() == pytest.approx(2.0)
        assert res.p99_jct_hours() == pytest.approx(3.0, rel=0.01)

    def test_empty_result_is_nan_not_zero(self):
        """Regression: an empty record set must not read as instant JCT."""
        res = SimulationResult(policy_name="p", trace_name="t")
        assert math.isnan(res.avg_jct())
        assert math.isnan(res.p99_jct())
        assert res.avg_reconfig_count == 0.0
        assert res.reconfig_gpu_hour_fraction == 0.0

    def test_empty_subset_is_nan_not_zero(self):
        """`by_tenant` of a tenant with no completions: NaN, not 0.0 h."""
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record("a", tenant="x")]
        ghost = res.by_tenant("ghost")
        assert ghost == []
        assert math.isnan(res.avg_jct(ghost))
        assert math.isnan(res.p99_jct_hours(ghost))
        # Non-empty subsets are unaffected.
        assert res.avg_jct_hours(res.by_tenant("x")) == pytest.approx(1.0)
        no_model = [r for r in res.records if r.model_name == "no-such-model"]
        assert math.isnan(res.avg_jct_hours(no_model))

    def test_priority_and_tenant_slices(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [
            _record("a", priority=JobPriority.GUARANTEED, tenant="x"),
            _record("b", priority=JobPriority.BEST_EFFORT, tenant="y"),
        ]
        assert [r.job_id for r in res.by_priority(JobPriority.GUARANTEED)] == ["a"]
        assert [r.job_id for r in res.by_tenant("y")] == ["b"]

    def test_sla_violations(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [
            _record("ok", sla=1.1),
            _record("bad", sla=0.5),
            _record("be", sla=0.1, priority=JobPriority.BEST_EFFORT),
        ]
        # Only guaranteed jobs count.
        assert [r.job_id for r in res.sla_violations()] == ["bad"]

    def test_never_ran_job_is_not_a_violation(self):
        """Regression: a guaranteed job whose guarantee was never exercised
        (NaN ratio — it never ran, or its baseline had no throughput) must
        not be counted as an SLA violation."""
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [
            _record("never-ran", sla=float("nan")),
            _record("slow", sla=0.2),
        ]
        assert [r.job_id for r in res.sla_violations()] == ["slow"]

    def test_from_job_never_ran_sla_is_nan(self):
        from repro.cluster import ResourceVector
        from repro.plans import ExecutionPlan
        from repro.scheduler import JobSpec
        from repro.scheduler.job import Job
        from repro.models import GPT2

        spec = JobSpec(
            job_id="cutoff", model=GPT2, global_batch=GPT2.global_batch_size,
            requested=ResourceVector(gpus=2, cpus=8),
            initial_plan=ExecutionPlan(dp=2, ga_steps=8),
            total_samples=1e5, submit_time=0.0,
        )
        job = Job(spec=spec)
        job.finish_time = 100.0  # makespan cutoff: finished without running
        job.baseline_throughput = 5.0
        record = JobRecord.from_job(job, gpu_seconds=0.0)
        assert math.isnan(record.sla_ratio)
        # And a ran job with a zero baseline is "not evaluated" too.
        job.run_seconds = 50.0
        job.baseline_throughput = 0.0
        assert math.isnan(JobRecord.from_job(job, 0.0).sla_ratio)

    def test_dynamics_accounting_identity(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [
            _record("a", restarts=1, lost_gpu_seconds=2 * HOUR),
            _record("b"),
        ]
        assert res.lost_gpu_hours == pytest.approx(2.0)
        assert res.total_restarts == 1
        assert res.goodput_gpu_hours + res.lost_gpu_hours == pytest.approx(
            res.total_gpu_hours
        )

    def test_summary_dynamics_keys_only_on_dynamic_runs(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record()]
        assert "evictions" not in res.summary()
        res.cluster_events = 3
        res.evictions = 2
        summary = res.summary()
        assert summary["cluster_events"] == 3.0
        assert summary["evictions"] == 2.0
        assert "goodput_gpu_h" in summary and "lost_gpu_h" in summary

    def test_reconfig_overhead_fraction(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record(jct=10 * HOUR, reconfigs=2)]
        frac = res.reconfig_gpu_hour_fraction
        assert 0 < frac < 0.01

    def test_reconfig_overhead_uses_held_not_requested_gpus(self):
        """Regression: a job that paused while holding 2 GPUs must be
        weighted by those 2 — not by its 8-GPU request."""
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record(jct=10 * HOUR, reconfigs=1, held_gpus=2)]
        held_based = (2 * 78.0 / HOUR) / res.total_gpu_hours
        request_based = (8 * 78.0 / HOUR) / res.total_gpu_hours
        assert res.reconfig_gpu_hour_fraction == pytest.approx(held_based)
        assert res.reconfig_gpu_hour_fraction != pytest.approx(request_based)

    def test_summary_keys(self):
        res = SimulationResult(policy_name="p", trace_name="t")
        res.records = [_record()]
        summary = res.summary()
        assert set(summary) >= {"jobs", "avg_jct_h", "p99_jct_h", "makespan_h"}


class TestFormatting:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [("x", 1.0), ("yyy", 22.5)])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular
        assert "yyy" in text

    def test_table_title(self):
        text = format_table(["a"], [("x",)], title="T")
        assert text.startswith("T\n")

    def test_ratio(self):
        assert ratio(2.0, 1.0) == "(2.00x)"
        assert ratio(1.0, 0.0) == "(n/a)"

    def test_series_bars_scale(self):
        text = format_series([1, 2], [1.0, 2.0], label="L", width=10)
        lines = text.splitlines()
        assert lines[0] == "L"
        assert lines[2].count("#") == 10
        assert lines[1].count("#") == 5

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1], [1.0, 2.0])

    def test_normalize_to_first(self):
        assert normalize_to_first([2.0, 4.0]) == [1.0, 2.0]
        assert normalize_to_first([]) == []
        assert normalize_to_first([0.0, 1.0]) == [0.0, 0.0]

    def test_nan_renders_as_no_data(self):
        """NaN statistics (empty subsets) render as — in every table form."""
        nan = float("nan")
        assert span_cell(nan, nan, nan) == NO_DATA
        text = format_table(["x"], [(nan,), (1.5,)])
        assert NO_DATA in text and "1.50" in text
        assert "nan" not in text

    def test_perf_footer_reports_fitting_outside_the_event_rate(self):
        rows = [
            {"policy_invocations": 10, "policy_wall_seconds": 0.02,
             "sim_rounds": 400, "sim_wall_seconds": 0.5,
             "fit_wall_seconds": 1.25},
            {"policy_invocations": 10, "policy_wall_seconds": 0.02,
             "sim_rounds": 400, "sim_wall_seconds": 0.5,
             "fit_wall_seconds": 0.0},
        ]
        footer = perf_footer(rows)
        assert "simulator 800 events/s" in footer
        assert "fitting 1.25 s" in footer
        assert "(2 runs executed)" in footer
