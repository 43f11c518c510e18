"""JSON (de)serialization of traces and simulation results.

Traces are the unit of experiment exchange (the paper ships trace variants,
not raw cluster logs); results are what reports and comparisons are built
from.  The format is a stable, versioned, plain-JSON document.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.plans.plan import ExecutionPlan, ZeroStage
from repro.scheduler.job import JobPriority
from repro.sim.metrics import Incident, JobRecord, SimulationResult
from repro.sim.trace import Trace, TraceJob

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def plan_to_dict(plan: ExecutionPlan) -> dict[str, Any]:
    return {
        "dp": plan.dp,
        "tp": plan.tp,
        "pp": plan.pp,
        "zero": plan.zero.name,
        "ga_steps": plan.ga_steps,
        "micro_batches": plan.micro_batches,
        "gc": plan.gc,
    }


def plan_from_dict(data: dict[str, Any]) -> ExecutionPlan:
    return ExecutionPlan(
        dp=int(data["dp"]),
        tp=int(data["tp"]),
        pp=int(data["pp"]),
        zero=ZeroStage[data["zero"]],
        ga_steps=int(data["ga_steps"]),
        micro_batches=int(data["micro_batches"]),
        gc=bool(data["gc"]),
    )


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def trace_job_to_dict(j: TraceJob) -> dict[str, Any]:
    """One trace job as a plain dict — the payload of both trace documents
    and the scheduling service's SUBMIT frames."""
    return {
        "job_id": j.job_id,
        "model_name": j.model_name,
        "submit_time": j.submit_time,
        "requested_gpus": j.requested_gpus,
        "requested_cpus": j.requested_cpus,
        "duration": j.duration,
        "global_batch": j.global_batch,
        "priority": j.priority.value,
        "tenant": j.tenant,
        "initial_plan": plan_to_dict(j.initial_plan),
    }


def trace_job_from_dict(j: dict[str, Any]) -> TraceJob:
    return TraceJob(
        job_id=j["job_id"],
        model_name=j["model_name"],
        submit_time=float(j["submit_time"]),
        requested_gpus=int(j["requested_gpus"]),
        requested_cpus=int(j.get("requested_cpus", 0)),
        duration=float(j["duration"]),
        global_batch=int(j["global_batch"]),
        priority=JobPriority(j["priority"]),
        tenant=j["tenant"],
        initial_plan=plan_from_dict(j["initial_plan"]),
    )


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "jobs": [trace_job_to_dict(j) for j in trace],
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    jobs = tuple(trace_job_from_dict(j) for j in data["jobs"])
    return Trace(jobs=jobs, name=data.get("name", "trace"))


def save_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(trace_to_dict(trace), indent=1, allow_nan=False)
    )


def load_trace(path: str | Path) -> Trace:
    return trace_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    if result.dropped_records:
        raise ValueError(
            f"cannot serialize a streaming result: {result.dropped_records} "
            f"records were dropped by the max_records="
            f"{result.max_records} retention bound, and a persisted "
            "document must carry every record (re-run without a record "
            "limit to serialize)"
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "policy_name": result.policy_name,
        "trace_name": result.trace_name,
        "makespan": result.makespan,
        "profiling_seconds": result.profiling_seconds,
        "policy_invocations": result.policy_invocations,
        "policy_skips": result.policy_skips,
        "sim_rounds": result.sim_rounds,
        # Wall-clock fields (`policy_wall_seconds`, `sim_wall_seconds`,
        # `fit_wall_seconds`) are deliberately NOT serialized: persisted
        # result documents must be a deterministic function of the run spec
        # (sweep workers are byte-identical to serial execution).  Timing travels through the sweep
        # runner's in-memory perf channel and `sweep-meta.jsonl` instead.
        # NaN statistics (empty record sets) travel as null, like records'
        # sla_ratio: JSON has no NaN token.
        "summary": {
            k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in result.summary().items()
        },
        "records": [_record_to_dict(r) for r in result.records],
    }
    # Cluster-dynamics counters only appear on dynamic runs: static
    # documents stay byte-identical to pre-subsystem output.
    if result.cluster_events:
        doc["cluster_events"] = result.cluster_events
        doc["evictions"] = result.evictions
    # Incident stream: only degraded runs carry it (same sparse contract —
    # zero-fault documents are byte-identical to pre-harness output).
    if result.incidents:
        doc["incidents"] = [incident_to_dict(i) for i in result.incidents]
    return doc


def incident_to_dict(incident: Incident) -> dict[str, Any]:
    data: dict[str, Any] = {
        "kind": incident.kind,
        "round": incident.round,
        "time": incident.time,
    }
    if incident.job_ids:
        data["job_ids"] = list(incident.job_ids)
    if incident.error:
        data["error"] = incident.error
    if incident.message:
        data["message"] = incident.message
    if incident.traceback_digest:
        data["traceback_digest"] = incident.traceback_digest
    return data


def incident_from_dict(data: dict[str, Any]) -> Incident:
    return Incident(
        kind=str(data["kind"]),
        round=int(data["round"]),
        time=float(data["time"]),
        job_ids=tuple(data.get("job_ids", ())),
        error=str(data.get("error", "")),
        message=str(data.get("message", "")),
        traceback_digest=str(data.get("traceback_digest", "")),
    )


def _record_to_dict(r: JobRecord) -> dict[str, Any]:
    rec = {
        "job_id": r.job_id,
        "model_name": r.model_name,
        "priority": r.priority.value,
        "tenant": r.tenant,
        "submit_time": r.submit_time,
        "first_start": r.first_start,
        "finish_time": r.finish_time,
        "jct": r.jct,
        "queue_seconds": r.queue_seconds,
        "run_seconds": r.run_seconds,
        "reconfig_count": r.reconfig_count,
        "reconfig_seconds": r.reconfig_seconds,
        "reconfig_gpu_seconds": r.reconfig_gpu_seconds,
        "gpu_seconds": r.gpu_seconds,
        "requested_gpus": r.requested_gpus,
        # NaN marks "guarantee never evaluated" (never-ran jobs under
        # dynamics); JSON has no NaN, so it travels as null.
        "sla_ratio": None if math.isnan(r.sla_ratio) else r.sla_ratio,
    }
    # Sparse dynamics keys: only evicted jobs carry them (0 everywhere on
    # static runs, so those record documents are unchanged byte for byte).
    if r.restart_count:
        rec["restart_count"] = r.restart_count
    if r.lost_gpu_seconds:
        rec["lost_gpu_seconds"] = r.lost_gpu_seconds
    return rec


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    records = [
        JobRecord(
            job_id=r["job_id"],
            model_name=r["model_name"],
            priority=JobPriority(r["priority"]),
            tenant=r["tenant"],
            submit_time=float(r["submit_time"]),
            first_start=r["first_start"],
            finish_time=float(r["finish_time"]),
            jct=float(r["jct"]),
            queue_seconds=float(r["queue_seconds"]),
            run_seconds=float(r["run_seconds"]),
            reconfig_count=int(r["reconfig_count"]),
            reconfig_seconds=float(r["reconfig_seconds"]),
            reconfig_gpu_seconds=float(r.get("reconfig_gpu_seconds", 0.0)),
            gpu_seconds=float(r["gpu_seconds"]),
            requested_gpus=int(r["requested_gpus"]),
            sla_ratio=(
                float("nan") if r["sla_ratio"] is None
                else float(r["sla_ratio"])
            ),
            # Cluster-dynamics fields (absent in legacy/static documents).
            restart_count=int(r.get("restart_count", 0)),
            lost_gpu_seconds=float(r.get("lost_gpu_seconds", 0.0)),
        )
        for r in data["records"]
    ]
    return SimulationResult(
        policy_name=data["policy_name"],
        trace_name=data["trace_name"],
        records=records,
        makespan=float(data["makespan"]),
        profiling_seconds=float(data["profiling_seconds"]),
        policy_invocations=int(data["policy_invocations"]),
        # Perf-trajectory counters (absent in pre-fast-path documents).
        policy_skips=int(data.get("policy_skips", 0)),
        sim_rounds=int(data.get("sim_rounds", 0)),
        # Cluster-dynamics counters (absent in legacy/static documents).
        cluster_events=int(data.get("cluster_events", 0)),
        evictions=int(data.get("evictions", 0)),
        # Incident stream (absent on healthy/legacy documents).
        incidents=[
            incident_from_dict(i) for i in data.get("incidents", ())
        ],
    )


def save_result(result: SimulationResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=1, allow_nan=False)
    )


def load_result(path: str | Path) -> SimulationResult:
    return result_from_dict(json.loads(Path(path).read_text()))
