"""The fitted performance model: predicts throughput for any (plan, shape).

One :class:`PerfModel` exists per *model type* (paper §3: the model "can also
be reused across multiple jobs of the same model type").  It combines

* one profiled constant — ``t_fwd_ref``, the framework-profiler forward time
  per sample (paper §4.1 obtains ``T_fwd`` from DeepSpeed's profiler), and
* the seven fitted :class:`~repro.perfmodel.params.PerfParams`,

and evaluates the closed form of `repro.perfmodel.components` with ideal
effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.specs import ModelSpec
from repro.perfmodel.components import IterBreakdown, compute_breakdown
from repro.perfmodel.params import PerfParams
from repro.perfmodel.shape import Interconnect, ResourceShape
from repro.plans.plan import ExecutionPlan


@dataclass(frozen=True)
class PerfModel:
    """Throughput predictor for one model type."""

    model: ModelSpec
    env: Interconnect
    t_fwd_ref: float
    params: PerfParams = PerfParams()

    def __post_init__(self) -> None:
        if self.t_fwd_ref <= 0:
            raise ValueError("t_fwd_ref (profiled forward time) must be positive")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def breakdown(
        self, plan: ExecutionPlan, shape: ResourceShape, global_batch: int
    ) -> IterBreakdown:
        """Full component breakdown of the predicted iteration time."""
        return compute_breakdown(
            model=self.model,
            plan=plan,
            shape=shape,
            env=self.env,
            params=self.params,
            t_fwd_ref=self.t_fwd_ref,
            global_batch=global_batch,
        )

    def iter_time(
        self, plan: ExecutionPlan, shape: ResourceShape, global_batch: int
    ) -> float:
        """Predicted seconds per training iteration (paper Eq. 1)."""
        return self.breakdown(plan, shape, global_batch).t_iter

    def throughput(
        self, plan: ExecutionPlan, shape: ResourceShape, global_batch: int
    ) -> float:
        """Predicted training throughput in samples/second (``b / T_iter``)."""
        return global_batch / self.iter_time(plan, shape, global_batch)
