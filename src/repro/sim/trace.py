"""Trace records: the jobs a simulation replays.

A trace job carries what the paper's sampled Microsoft trace carries — a
submission time, a GPU request and a duration — plus the model assignment and
initial execution plan the paper adds when constructing its Base/BP/MT trace
variants (§7.3).  The duration is *reference duration*: how long the job
would run on its requested resources with its initial plan; the simulator
converts it into a sample target using the testbed's measured throughput of
that configuration, mirroring the paper's duration→mini-batches translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.models.catalog import get_model
from repro.models.specs import ModelSpec
from repro.plans.plan import ExecutionPlan
from repro.scheduler.job import JobPriority


@dataclass(frozen=True)
class TraceJob:
    """One job submission in a trace."""

    job_id: str
    model_name: str
    submit_time: float
    requested_gpus: int
    duration: float  # reference runtime on (requested GPUs, initial plan)
    initial_plan: ExecutionPlan
    global_batch: int
    requested_cpus: int = 0  # 0 -> derived from GPUs at simulation time
    priority: JobPriority = JobPriority.GUARANTEED
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not math.isfinite(self.submit_time):
            raise ValueError(f"{self.job_id}: submit_time must be finite")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(
                f"{self.job_id}: duration must be finite and positive"
            )
        if self.global_batch <= 0:
            raise ValueError(f"{self.job_id}: global_batch must be positive")
        if self.requested_gpus < self.initial_plan.num_gpus:
            raise ValueError(
                f"{self.job_id}: plan needs {self.initial_plan.num_gpus} GPUs, "
                f"requested {self.requested_gpus}"
            )

    @property
    def model(self) -> ModelSpec:
        return get_model(self.model_name)

    @property
    def gpu_hours(self) -> float:
        return self.requested_gpus * self.duration / 3600.0


@dataclass(frozen=True)
class Trace:
    """An ordered collection of trace jobs."""

    jobs: tuple[TraceJob, ...] = field(default_factory=tuple)
    name: str = "trace"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.jobs, key=lambda j: j.submit_time))
        object.__setattr__(self, "jobs", ordered)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def span(self) -> float:
        """Time between the first and last submissions."""
        if not self.jobs:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def total_gpu_hours(self) -> float:
        return sum(j.gpu_hours for j in self.jobs)

    def with_priorities(
        self, assign, name: str | None = None
    ) -> "Trace":
        """A copy with priorities/tenants reassigned by ``assign(job) -> (priority, tenant)``."""
        jobs = []
        for job in self.jobs:
            priority, tenant = assign(job)
            jobs.append(replace(job, priority=priority, tenant=tenant))
        return Trace(jobs=tuple(jobs), name=name or self.name)

    def scaled_load(self, factor: float, name: str | None = None) -> "Trace":
        """Compress (factor > 1) or stretch inter-arrival times to vary load.

        Used by the Fig. 10 load sweep: the same jobs arrive ``factor`` times
        as fast.
        """
        if factor <= 0:
            raise ValueError("load factor must be positive")
        jobs = [
            replace(job, submit_time=job.submit_time / factor)
            for job in self.jobs
        ]
        return Trace(jobs=tuple(jobs), name=name or f"{self.name}-x{factor:g}")
