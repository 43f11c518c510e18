"""Seeded, deterministic fault injection (the robustness harness).

``FaultPlan`` + ``FaultInjector`` describe and fire failures at named
seams across the stack; the sweep runner, run store and simulator expose
those seams and contain the damage (retries, quarantine, incidents).
"""

from repro.faults.injector import (
    FaultInjector,
    incident_payload,
    traceback_digest,
)
from repro.faults.plan import (
    FAULT_PLANS,
    FILE_PREFIX,
    NO_FAULTS,
    NO_FAULTS_NAME,
    PLAN_FORMAT_VERSION,
    SEAMS,
    FaultPlan,
    FaultRule,
    fault_plan_from_dict,
    fault_plan_to_dict,
    fault_rule_from_dict,
    fault_rule_to_dict,
    load_fault_plan,
    resolve_fault_plan,
    save_fault_plan,
)

__all__ = [
    "FAULT_PLANS",
    "FILE_PREFIX",
    "NO_FAULTS",
    "NO_FAULTS_NAME",
    "PLAN_FORMAT_VERSION",
    "SEAMS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "fault_plan_from_dict",
    "fault_plan_to_dict",
    "fault_rule_from_dict",
    "fault_rule_to_dict",
    "incident_payload",
    "load_fault_plan",
    "resolve_fault_plan",
    "save_fault_plan",
    "traceback_digest",
]
