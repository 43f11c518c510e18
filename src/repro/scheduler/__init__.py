"""Scheduling: jobs, sensitivity curves, the Rubick policy, and baselines.

All plan selection routes through the unified plan-evaluation engine
(`repro.planeval`); its engine and value types are re-exported here for
convenience.
"""

from repro.planeval import (
    BestConfig,
    EngineStats,
    GpuCurve,
    PlanEvalEngine,
    default_plan_space,
)
from repro.scheduler.interfaces import (
    Allocation,
    PerfModelStore,
    SchedulerPolicy,
    SchedulingContext,
    Tenant,
)
from repro.scheduler.job import Job, JobPriority, JobSpec, JobStatus
from repro.scheduler.rubick import RubickPolicy
from repro.scheduler.selectors import (
    BestPlanSelector,
    FixedPlanSelector,
    PlanSelector,
    ScaledDpSelector,
)
from repro.scheduler.variants import rubick, rubick_e, rubick_n, rubick_r

__all__ = [
    "Allocation",
    "BestConfig",
    "BestPlanSelector",
    "EngineStats",
    "FixedPlanSelector",
    "GpuCurve",
    "PlanEvalEngine",
    "Job",
    "JobPriority",
    "JobSpec",
    "JobStatus",
    "PerfModelStore",
    "PlanSelector",
    "RubickPolicy",
    "ScaledDpSelector",
    "SchedulerPolicy",
    "SchedulingContext",
    "Tenant",
    "default_plan_space",
    "rubick",
    "rubick_e",
    "rubick_n",
    "rubick_r",
]
