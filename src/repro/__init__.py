"""repro — a reproduction of Rubick (MLSYS 2025).

Rubick: Exploiting Job Reconfigurability for Deep Learning Cluster
Scheduling.  This package implements the paper's performance model for
reconfigurable DL training, the Rubick scheduling policy and its ablation
variants, the baseline schedulers it is evaluated against (Sia, Synergy,
AntMan), and the substrates everything runs on: a model/plan/memory system,
a cluster model, a synthetic A800 testbed (the hardware substitution — see
DESIGN.md), and a discrete-time cluster simulator with a Philly-like
workload generator.

Quickstart::

    from repro import (
        PAPER_CLUSTER, SyntheticTestbed, build_perf_model, GPT2,
    )

    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=0)
    perf, report = build_perf_model(testbed, GPT2, GPT2.global_batch_size)
    print(report.rmsle)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
paper's tables and figures.
"""

from repro.cluster import (
    PAPER_CLUSTER,
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
    single_node_cluster,
)
from repro.models import CATALOG, GPT2, LLAMA2_7B, ModelSpec, all_models, get_model
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.perfmodel import (
    Interconnect,
    PerfModel,
    PerfParams,
    ResourceShape,
    ThroughputSample,
    fit_perf_model,
)
from repro.plans import (
    ExecutionPlan,
    ZeroStage,
    enumerate_plans,
    estimate_memory,
)
from repro.planeval import EngineStats, PlanEvalEngine
from repro.scheduler import (
    Allocation,
    Job,
    JobPriority,
    JobSpec,
    PerfModelStore,
    RubickPolicy,
    SchedulingContext,
    Tenant,
    rubick,
    rubick_e,
    rubick_n,
    rubick_r,
)
from repro.scheduler.registry import POLICIES, make_policy
from repro.service import ServiceClient, ServiceMaster, serve
from repro.sim import (
    EngineConfig,
    SimulationResult,
    Simulator,
    StepReport,
    Trace,
    TraceJob,
    WorkloadConfig,
    generate_trace,
    to_best_plan_trace,
    to_multi_tenant_trace,
)
from repro.workloads import SCENARIOS, resolve_scenario

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "CATALOG",
    "Cluster",
    "ClusterSpec",
    "EngineConfig",
    "EngineStats",
    "ExecutionPlan",
    "GPT2",
    "Interconnect",
    "Job",
    "JobPriority",
    "JobSpec",
    "LLAMA2_7B",
    "ModelSpec",
    "NodeSpec",
    "PAPER_CLUSTER",
    "POLICIES",
    "PerfModel",
    "PerfModelStore",
    "PerfParams",
    "Placement",
    "PlanEvalEngine",
    "ResourceShape",
    "ResourceVector",
    "RubickPolicy",
    "SCENARIOS",
    "SchedulingContext",
    "ServiceClient",
    "ServiceMaster",
    "SimulationResult",
    "Simulator",
    "StepReport",
    "SyntheticTestbed",
    "Tenant",
    "ThroughputSample",
    "Trace",
    "TraceJob",
    "WorkloadConfig",
    "ZeroStage",
    "all_models",
    "build_perf_model",
    "enumerate_plans",
    "estimate_memory",
    "fit_perf_model",
    "generate_trace",
    "get_model",
    "make_policy",
    "resolve_scenario",
    "rubick",
    "rubick_e",
    "rubick_n",
    "rubick_r",
    "serve",
    "single_node_cluster",
    "to_best_plan_trace",
    "to_multi_tenant_trace",
]
