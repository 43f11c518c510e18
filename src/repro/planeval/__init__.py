"""planeval — the unified plan-evaluation engine (paper §5.2 ``GetBestPlan``).

One memoized, versioned scoring service answering "best execution plan +
predicted throughput for (model, batch, shape)" for every consumer:
sensitivity curves, the variant plan selectors, Rubick and the baseline
policies, and the simulator's intrinsic-work accounting.  See
`repro.planeval.engine` for the cache architecture and
`repro.planeval.scoring` for the batched scoring backends.
"""

from repro.planeval.curve import BestConfig, GpuCurve, build_envelope
from repro.planeval.engine import (
    DEFAULT_CPUS_PER_GPU,
    EngineStats,
    PlanEvalEngine,
    PlanMemo,
    PlanRequest,
    default_plan_space,
)
from repro.planeval.scoring import (
    PerfStoreScorer,
    TestbedScorer,
    fused_throughputs,
)

__all__ = [
    "BestConfig",
    "DEFAULT_CPUS_PER_GPU",
    "EngineStats",
    "GpuCurve",
    "PerfStoreScorer",
    "PlanEvalEngine",
    "PlanMemo",
    "PlanRequest",
    "TestbedScorer",
    "build_envelope",
    "default_plan_space",
    "fused_throughputs",
]
