"""Trace/result JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.cluster import PAPER_CLUSTER
from repro.oracle import SyntheticTestbed
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler import rubick_n
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import (
    load_result,
    load_trace,
    plan_from_dict,
    plan_to_dict,
    result_to_dict,
    save_result,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)


@pytest.fixture(scope="module")
def trace():
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=13)
    return generate_trace(
        WorkloadConfig(num_jobs=10, seed=13, span=1800.0), testbed
    )


class TestPlanRoundTrip:
    @pytest.mark.parametrize(
        "plan",
        [
            ExecutionPlan(),
            ExecutionPlan(dp=4, ga_steps=2, gc=True),
            ExecutionPlan(dp=2, zero=ZeroStage.OFFLOAD, ga_steps=8),
            ExecutionPlan(dp=2, tp=4, pp=2, micro_batches=8, gc=True),
        ],
    )
    def test_round_trip(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan


class TestTraceRoundTrip:
    def test_dict_round_trip(self, trace):
        again = trace_from_dict(trace_to_dict(trace))
        assert again.jobs == trace.jobs
        assert again.name == trace.name

    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        again = load_trace(path)
        assert again.jobs == trace.jobs

    def test_file_is_plain_json(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert len(data["jobs"]) == len(trace)

    def test_version_mismatch_rejected(self, trace):
        data = trace_to_dict(trace)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            trace_from_dict(data)


class TestResultRoundTrip:
    def test_round_trip_preserves_metrics(self, trace, tmp_path):
        sim = Simulator(
            PAPER_CLUSTER, rubick_n(),
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=13),
            config=EngineConfig(seed=13),
        )
        result = sim.run(trace)
        path = tmp_path / "result.json"
        save_result(result, path)
        again = load_result(path)
        assert again.policy_name == result.policy_name
        assert again.avg_jct() == pytest.approx(result.avg_jct())
        assert again.p99_jct() == pytest.approx(result.p99_jct())
        assert again.makespan == pytest.approx(result.makespan)
        assert len(again.records) == len(result.records)

    def test_result_dict_has_summary(self, trace):
        sim = Simulator(
            PAPER_CLUSTER, rubick_n(),
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=13),
            config=EngineConfig(seed=13),
        )
        result = sim.run(trace)
        data = result_to_dict(result)
        assert "avg_jct_h" in data["summary"]

    def test_reconfig_gpu_seconds_round_trip_and_legacy_default(self, trace):
        from repro.sim.serialization import result_from_dict

        sim = Simulator(
            PAPER_CLUSTER, rubick_n(),
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=13),
            config=EngineConfig(seed=13),
        )
        result = sim.run(trace)
        data = result_to_dict(result)
        again = result_from_dict(data)
        assert [r.reconfig_gpu_seconds for r in again.records] == [
            r.reconfig_gpu_seconds for r in result.records
        ]
        # Results written before the field existed still load (as 0.0).
        for r in data["records"]:
            r.pop("reconfig_gpu_seconds")
        legacy = result_from_dict(data)
        assert all(r.reconfig_gpu_seconds == 0.0 for r in legacy.records)
