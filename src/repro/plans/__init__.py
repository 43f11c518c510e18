"""Execution plans: representation, memory model and enumeration."""

from repro.plans.enumerate import (
    DEFAULT_SPACE,
    DP_FAMILY_SPACE,
    PlanSpace,
    enumerate_plans,
)
from repro.plans.memory import (
    MemoryEstimate,
    estimate_memory,
    host_mem_demand_per_node,
)
from repro.plans.plan import ExecutionPlan, ZeroStage

__all__ = [
    "DEFAULT_SPACE",
    "DP_FAMILY_SPACE",
    "ExecutionPlan",
    "MemoryEstimate",
    "PlanSpace",
    "ZeroStage",
    "enumerate_plans",
    "estimate_memory",
    "host_mem_demand_per_node",
]
