"""Job model: specs, lifecycle state, and SLA categories (paper §5.1).

Rubick classifies jobs as **guaranteed** (consume tenant quota; the system
must deliver at least the performance of their requested resources + original
plan) or **best-effort** (run opportunistically on free resources and may be
preempted).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.models.specs import ModelSpec
from repro.plans.plan import ExecutionPlan


class JobPriority(enum.Enum):
    GUARANTEED = "guaranteed"
    BEST_EFFORT = "best_effort"


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    PAUSED = "paused"  # reconfiguration (checkpoint-resume) in progress
    FINISHED = "finished"


@dataclass(frozen=True)
class JobSpec:
    """Immutable submission-time description of a job.

    ``total_samples`` is the job's work in training samples; the trace
    builder derives it from the trace duration and the measured throughput of
    (requested resources, initial plan), exactly as the paper translates
    durations into mini-batch targets (§7.3).
    """

    job_id: str
    model: ModelSpec
    global_batch: int
    requested: ResourceVector
    initial_plan: ExecutionPlan
    total_samples: float
    submit_time: float
    priority: JobPriority = JobPriority.GUARANTEED
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_samples) and self.total_samples > 0):
            raise ValueError(
                f"{self.job_id}: total_samples must be finite and positive"
            )
        if self.requested.gpus < self.initial_plan.num_gpus:
            raise ValueError(
                f"{self.job_id}: initial plan needs {self.initial_plan.num_gpus} "
                f"GPUs but request is {self.requested.gpus}"
            )

    @property
    def is_guaranteed(self) -> bool:
        return self.priority == JobPriority.GUARANTEED


@dataclass
class Job:
    """Mutable runtime state of one job (owned by the simulator)."""

    spec: JobSpec
    status: JobStatus = JobStatus.QUEUED
    #: Arrival sequence number assigned by the simulator (0, 1, 2, … in
    #: admission order).  Completion records are emitted in arrival order
    #: within a round; the simulator detects completions from a heap
    #: (arbitrary tie order) and re-sorts by this.
    seq: int = 0
    #: Lazy-advancement anchor: the last simulation time this job's
    #: progress/accounting was materialized to (set when it starts).
    anchor_time: float = 0.0
    samples_done: float = 0.0
    #: Current allocation (empty when queued/preempted).
    placement: Placement = field(default_factory=Placement.empty)
    plan: ExecutionPlan | None = None
    #: Ground-truth throughput of the current configuration (samples/s).
    throughput: float = 0.0
    start_time: float | None = None  # first time the job ran
    finish_time: float | None = None
    #: End of the in-flight reconfiguration pause, if status == PAUSED.
    pause_until: float = 0.0
    #: Aggregated statistics for the reconfiguration-penalty gate (§5.2) and
    #: the overhead accounting (§7.3).
    reconfig_count: int = 0
    reconfig_seconds: float = 0.0
    #: Held GPU-seconds spent inside reconfiguration pauses (held ≠ requested
    #: under Rubick, so overhead fractions must use this, not a product of
    #: ``reconfig_seconds`` and the request).
    reconfig_gpu_seconds: float = 0.0
    run_seconds: float = 0.0
    queue_seconds: float = 0.0
    last_queue_enter: float = 0.0
    #: Cluster-dynamics accounting (node failures / decommissions).  An
    #: eviction rolls ``samples_done`` back to the last checkpoint; the
    #: GPU-seconds that produced the destroyed progress accrue here, plus
    #: the held GPU-seconds of restart-penalty pause tails.
    restart_count: int = 0
    lost_gpu_seconds: float = 0.0
    #: Extra pause charged (once, on top of the reconfiguration delta) the
    #: next time this evicted job restarts — checkpoint refetch and
    #: re-scheduling cost a failure pays that a planned reconfig does not.
    pending_restart_penalty: float = 0.0
    #: Instant the current pause switches from checkpoint-resume (charged
    #: to the reconfiguration metrics) to restart penalty (charged to
    #: ``lost_gpu_seconds``).  +inf for ordinary pauses, so planned
    #: reconfigurations account exactly as before dynamics existed.
    penalty_pause_from: float = float("inf")
    #: Progress as of the last checkpoint.  Checkpoints are written at
    #: every configuration change (checkpoint-resume) and periodically
    #: while running (the simulator's ``CHECKPOINT_INTERVAL``); an evicted
    #: job resumes from here.
    samples_at_checkpoint: float = 0.0
    run_seconds_at_checkpoint: float = 0.0
    #: The SLA baseline: ground-truth throughput of (requested resources,
    #: initial plan); filled in at submission by the simulator.
    baseline_throughput: float = 0.0
    #: Minimum resource demand found by the scheduler (Alg. 1); cached here.
    min_res: ResourceVector | None = None
    min_res_plan: ExecutionPlan | None = None

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def model(self) -> ModelSpec:
        return self.spec.model

    @property
    def remaining_samples(self) -> float:
        return max(self.spec.total_samples - self.samples_done, 0.0)

    @property
    def is_active(self) -> bool:
        return self.status in (JobStatus.QUEUED, JobStatus.RUNNING, JobStatus.PAUSED)

    @property
    def is_running(self) -> bool:
        return self.status in (JobStatus.RUNNING, JobStatus.PAUSED)

    def reconfig_gate_open(self, delta: float, threshold: float = 0.97) -> bool:
        """The paper's reconfiguration-frequency guard (DESIGN.md item 10).

        A job may be reconfigured only if ``(T - (N+1)·δ)/T`` exceeds the
        threshold, where ``T`` is its aggregated training time and ``N`` its
        reconfiguration count so far — i.e. the guard prices in the
        *prospective* reconfiguration it is being asked to approve, so the
        threshold still holds after the pause is paid.
        """
        total = self.run_seconds + self.reconfig_seconds
        if total <= 0.0:
            return True  # fresh jobs always may (re)configure
        return (total - (self.reconfig_count + 1) * delta) / total > threshold
