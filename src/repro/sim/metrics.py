"""Simulation results and scheduling metrics (JCT, makespan, overheads)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scheduler.job import Job, JobPriority
from repro.units import HOUR


@dataclass(frozen=True)
class JobRecord:
    """Final accounting of one completed job."""

    job_id: str
    model_name: str
    priority: JobPriority
    tenant: str
    submit_time: float
    first_start: float | None
    finish_time: float
    jct: float
    queue_seconds: float
    run_seconds: float
    reconfig_count: int
    reconfig_seconds: float
    gpu_seconds: float
    requested_gpus: int
    #: Achieved execution throughput / SLA-baseline throughput (>= 1 means
    #: the performance guarantee held; only meaningful for guaranteed jobs).
    sla_ratio: float
    #: Held GPU-seconds spent in reconfiguration pauses (accumulated by the
    #: simulator from the placement actually held during each pause).
    reconfig_gpu_seconds: float = 0.0
    #: Cluster-dynamics accounting (0 on legacy documents and static runs):
    #: evictions this job suffered, and the held GPU-seconds whose progress
    #: a failure destroyed (rolled back to the last checkpoint).
    restart_count: int = 0
    lost_gpu_seconds: float = 0.0

    @staticmethod
    def from_job(job: Job, gpu_seconds: float) -> "JobRecord":
        assert job.finish_time is not None
        # A job that never ran (or whose baseline configuration has no
        # measurable throughput) never exercised its guarantee: its SLA
        # ratio is NaN — "not evaluated" — not 0.0, which would read as an
        # infinitely-slow *violation* in `sla_violations`.
        if job.run_seconds > 0 and job.baseline_throughput > 0:
            exec_thr = job.spec.total_samples / job.run_seconds
            sla = exec_thr / job.baseline_throughput
        else:
            sla = float("nan")
        return JobRecord(
            job_id=job.job_id,
            model_name=job.model.name,
            priority=job.spec.priority,
            tenant=job.spec.tenant,
            submit_time=job.spec.submit_time,
            first_start=job.start_time,
            finish_time=job.finish_time,
            jct=job.finish_time - job.spec.submit_time,
            queue_seconds=job.queue_seconds,
            run_seconds=job.run_seconds,
            reconfig_count=job.reconfig_count,
            reconfig_seconds=job.reconfig_seconds,
            gpu_seconds=gpu_seconds,
            requested_gpus=job.spec.requested.gpus,
            sla_ratio=sla,
            reconfig_gpu_seconds=job.reconfig_gpu_seconds,
            restart_count=job.restart_count,
            lost_gpu_seconds=job.lost_gpu_seconds,
        )


@dataclass(frozen=True)
class Incident:
    """One contained fault the simulator absorbed instead of crashing.

    Every field is deterministic — kind, scheduling round, simulation
    time, the (bounded) job ids in flight, and a stable traceback digest
    (see :func:`repro.faults.traceback_digest`) — so incident streams are
    byte-identical across repeated runs of the same plan + seed.
    """

    kind: str
    round: int
    time: float
    job_ids: tuple[str, ...] = ()
    error: str = ""
    message: str = ""
    traceback_digest: str = ""


#: Numeric ``JobRecord`` fields mirrored into compact per-field columns when
#: record retention is bounded, so scalar aggregates (JCT stats, GPU-hours,
#: overhead fractions, makespan) still cover every completed job after the
#: full record objects are dropped.
_STREAMED_FIELDS = (
    "jct",
    "submit_time",
    "finish_time",
    "gpu_seconds",
    "reconfig_count",
    "reconfig_seconds",
    "reconfig_gpu_seconds",
    "restart_count",
    "lost_gpu_seconds",
)


@dataclass
class SimulationResult:
    """Everything a benchmark needs to print a paper-style results row."""

    policy_name: str
    trace_name: str
    records: list[JobRecord] = field(default_factory=list)
    #: Bound on retained :class:`JobRecord` objects (None = keep all, the
    #: default).  When set, :meth:`add_record` keeps only the first
    #: ``max_records`` full records and streams every record's numeric
    #: fields into compact columns instead, so week-long 100k-job runs
    #: don't hold 100k record objects; aggregate statistics remain exact
    #: over *all* completions.  Per-record slices (``by_tenant``,
    #: ``sla_violations``) and serialization raise once anything was
    #: dropped — they cannot be answered faithfully from a bounded sample.
    max_records: int | None = None
    #: Completed jobs whose record object was dropped by ``max_records``
    #: (their numeric fields still feed the aggregates).
    dropped_records: int = 0
    makespan: float = 0.0
    profiling_seconds: float = 0.0
    policy_invocations: int = 0
    policy_wall_seconds: float = 0.0
    #: Rounds the cadence allowed the policy to run in that the
    #: steady-state short-circuit resolved without invoking it.
    policy_skips: int = 0
    #: Event-loop rounds processed (arrivals/completions/ticks) and the
    #: wall-clock cost of the session's `start`/`step` calls less model
    #: fitting — the simulator speed metrics behind the sweep footer.
    sim_rounds: int = 0
    sim_wall_seconds: float = 0.0
    #: Wall-clock cost of performance-model fitting in `start`/`submit`
    #: (a per-process memo hit costs next to nothing).  Never persisted.
    fit_wall_seconds: float = 0.0
    #: Event-calendar diagnostics read by the repo benchmark's tracer:
    #: next-event queries answered from the calendar's cursors and hint
    #: heap, and exact completion scans — always 0, since the calendar has
    #: none.  In-memory only.
    calendar_fast_rounds: int = 0
    calendar_exact_scans: int = 0
    #: Cluster-dynamics counters: events applied (failures, recoveries,
    #: scaling steps) and evictions they caused.  Both 0 on static runs —
    #: the serializer omits them then, keeping legacy documents byte-stable.
    cluster_events: int = 0
    evictions: int = 0
    #: Contained faults, in occurrence order (policy exceptions held for a
    #: round, perf-model fit retries, deadlock escalations, …).  Empty on
    #: healthy runs — the serializer omits the field then, keeping
    #: zero-fault result documents byte-stable.
    incidents: list[Incident] = field(default_factory=list)
    #: Streaming columns (see ``max_records``); populated lazily by
    #: :meth:`add_record` only on bounded results, so unbounded runs keep
    #: every aggregate reading ``records`` directly — byte-identical to the
    #: pre-streaming implementation.
    _columns: dict[str, list] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Record ingestion (streaming-aware)
    # ------------------------------------------------------------------
    def add_record(self, record: JobRecord) -> None:
        """Account one completed job, honoring the retention bound."""
        if self.max_records is not None:
            cols = self._columns
            if cols is None:
                cols = self._columns = {name: [] for name in _STREAMED_FIELDS}
            for name in _STREAMED_FIELDS:
                cols[name].append(getattr(record, name))
            if len(self.records) >= self.max_records:
                self.dropped_records += 1
                return
        self.records.append(record)

    def _values(self, name: str) -> list:
        """One numeric field across *all* completed jobs (incl. dropped)."""
        if self._columns is not None:
            return self._columns[name]
        return [getattr(r, name) for r in self.records]

    def _full_records(self) -> list[JobRecord]:
        """The record list, guarded against silently-partial slices."""
        if self.dropped_records:
            raise ValueError(
                f"{self.dropped_records} records were dropped by the "
                f"max_records={self.max_records} retention bound; "
                "per-record slices are unavailable on streaming results"
            )
        return self.records

    def span_bounds(self) -> tuple[float, float] | None:
        """(earliest submit, latest finish) over all completed jobs."""
        submits = self._values("submit_time")
        if not submits:
            return None
        return min(submits), max(self._values("finish_time"))

    # ------------------------------------------------------------------
    # JCT statistics
    # ------------------------------------------------------------------
    def _jcts(self, subset: list[JobRecord] | None = None) -> np.ndarray:
        """JCTs of a record subset; NaN-valued when the subset is empty.

        An empty subset (e.g. ``by_tenant`` of a tenant with no completions)
        must *not* read as an instant 0.0 JCT in scenario tables — NaN
        propagates through mean/percentile and renders as ``—``.
        """
        if subset is None:
            values = self._values("jct")
            if not values:
                return np.array([float("nan")])
            return np.array(values)
        if not subset:
            return np.array([float("nan")])
        return np.array([r.jct for r in subset])

    def avg_jct(self, subset: list[JobRecord] | None = None) -> float:
        return float(np.mean(self._jcts(subset)))

    def p99_jct(self, subset: list[JobRecord] | None = None) -> float:
        return float(np.percentile(self._jcts(subset), 99))

    def avg_jct_hours(self, subset: list[JobRecord] | None = None) -> float:
        return self.avg_jct(subset) / HOUR

    def p99_jct_hours(self, subset: list[JobRecord] | None = None) -> float:
        return self.p99_jct(subset) / HOUR

    @property
    def makespan_hours(self) -> float:
        return self.makespan / HOUR

    # ------------------------------------------------------------------
    # Slices
    # ------------------------------------------------------------------
    def by_priority(self, priority: JobPriority) -> list[JobRecord]:
        return [r for r in self._full_records() if r.priority == priority]

    def by_tenant(self, tenant: str) -> list[JobRecord]:
        return [r for r in self._full_records() if r.tenant == tenant]

    # ------------------------------------------------------------------
    # Overheads (paper §7.3 "System overheads")
    # ------------------------------------------------------------------
    @property
    def avg_reconfig_seconds_per_job(self) -> float:
        values = self._values("reconfig_seconds")
        if not values:
            return 0.0
        return float(np.mean(values))

    @property
    def avg_reconfig_count(self) -> float:
        values = self._values("reconfig_count")
        if not values:
            return 0.0
        return float(np.mean(values))

    @property
    def total_gpu_hours(self) -> float:
        return sum(self._values("gpu_seconds")) / HOUR

    # ------------------------------------------------------------------
    # Cluster-dynamics accounting
    # ------------------------------------------------------------------
    @property
    def lost_gpu_hours(self) -> float:
        """GPU-hours cluster dynamics wasted.  0 on static runs.

        Held GPU-seconds whose progress an eviction rolled back to the
        last checkpoint, plus held GPU-seconds spent in restart-penalty
        pause tails (the penalty is dynamics waste, not reconfiguration
        overhead — it never pollutes ``reconfig_gpu_hour_fraction``).
        """
        return sum(self._values("lost_gpu_seconds")) / HOUR

    @property
    def goodput_gpu_hours(self) -> float:
        """GPU-hours whose outcome survived: ``total − lost``.

        The complement of :attr:`lost_gpu_hours`, so the two always sum to
        :attr:`total_gpu_hours`.  Reconfiguration-pause overhead is *not*
        subtracted here — it is tracked separately by
        :attr:`reconfig_gpu_hour_fraction` (held-GPU pause accounting).
        """
        return self.total_gpu_hours - self.lost_gpu_hours

    @property
    def total_restarts(self) -> int:
        """Evictions across completed jobs (== ``evictions`` once all finish)."""
        return sum(self._values("restart_count"))

    @property
    def reconfig_gpu_hour_fraction(self) -> float:
        """Fraction of GPU-hours spent in reconfiguration pauses.

        Weighted by the GPUs each job actually *held* during its pauses —
        under Rubick held ≠ requested, so weighing by the request would
        misstate the overhead of exactly the policy being measured.
        """
        recon = sum(self._values("reconfig_gpu_seconds")) / HOUR
        total = self.total_gpu_hours
        return recon / total if total > 0 else 0.0

    # ------------------------------------------------------------------
    # SLA
    # ------------------------------------------------------------------
    def sla_violations(self, threshold: float = 0.95) -> list[JobRecord]:
        """Guaranteed jobs whose achieved performance fell below threshold×baseline.

        Jobs whose guarantee was never exercised (``sla_ratio`` is NaN —
        they never ran before the cutoff, or their baseline had no
        measurable throughput) are not violations: ``NaN < threshold`` is
        False, so the comparison excludes them by construction.
        """
        return [
            r
            for r in self.by_priority(JobPriority.GUARANTEED)
            if r.sla_ratio < threshold
        ]

    def summary(self) -> dict[str, float]:
        out = {
            "jobs": float(len(self.records) + self.dropped_records),
            "avg_jct_h": self.avg_jct_hours(),
            "p99_jct_h": self.p99_jct_hours(),
            "makespan_h": self.makespan_hours,
            "avg_reconfigs": self.avg_reconfig_count,
            "reconfig_gpu_frac": self.reconfig_gpu_hour_fraction,
        }
        # Dynamics keys appear only on dynamic runs so static result
        # documents stay byte-identical to pre-subsystem ones.
        if self.cluster_events:
            out["cluster_events"] = float(self.cluster_events)
            out["evictions"] = float(self.evictions)
            out["goodput_gpu_h"] = self.goodput_gpu_hours
            out["lost_gpu_h"] = self.lost_gpu_hours
        # Likewise the incident count: only degraded runs grow the key.
        if self.incidents:
            out["incidents"] = float(len(self.incidents))
        return out
