"""Continuous (online) performance-model refitting — paper §4.3.

    "The model can also be updated online using metrics collected in real
    training runs when the prediction error exceeds a threshold.  By
    continuously updating the model, Rubick could fix potential prediction
    errors and the impact of such errors on scheduling decisions."

:class:`OnlineRefitter` watches realized throughput observations per model
type, compares them with the current fitted model's prediction, and — once
the error on a fresh observation exceeds ``error_threshold`` — refits the
model over the union of the original profiling samples and the accumulated
runtime observations (non-strict fitting: runtime observations need not
include ZeRO-Offload runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.specs import ModelSpec
from repro.perfmodel.fitting import ThroughputSample, fit_perf_model
from repro.perfmodel.model import PerfModel
from repro.perfmodel.shape import ResourceShape
from repro.plans.plan import ExecutionPlan


@dataclass
class RefitEvent:
    """Record of one online refit (for observability and tests)."""

    model_name: str
    trigger_error: float
    num_samples: int
    rmsle_after: float


@dataclass
class OnlineRefitter:
    """Tracks observations and refits per-model performance models.

    Attributes:
        error_threshold: Relative throughput error that triggers a refit.
        max_observations: Sliding-window cap on retained runtime samples per
            model (oldest observations age out — clusters drift).
        min_new_samples: Observations that must accumulate between refits,
            preventing refit thrash on a single noisy reading.
    """

    error_threshold: float = 0.10
    max_observations: int = 64
    min_new_samples: int = 3
    _observations: dict[str, list[ThroughputSample]] = field(default_factory=dict)
    _base_samples: dict[str, list[ThroughputSample]] = field(default_factory=dict)
    _since_refit: dict[str, int] = field(default_factory=dict)
    events: list[RefitEvent] = field(default_factory=list)

    def register_profiling_samples(
        self, model: ModelSpec, samples: list[ThroughputSample]
    ) -> None:
        """Keep the offline profiling set; refits always include it (it is
        the only source of ZeRO-Offload coverage for many models)."""
        self._base_samples[model.name] = list(samples)

    def observe(
        self,
        perf: PerfModel,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
        realized_throughput: float,
    ) -> PerfModel:
        """Record one realized-throughput observation; maybe refit.

        Returns the (possibly refitted) performance model — callers should
        store the result back.
        """
        if realized_throughput <= 0:
            return perf
        predicted = perf.throughput(plan, shape, global_batch)
        error = abs(predicted - realized_throughput) / realized_throughput

        window = self._observations.setdefault(model.name, [])
        window.append(
            ThroughputSample(
                plan=plan,
                shape=shape,
                global_batch=global_batch,
                throughput=realized_throughput,
            )
        )
        if len(window) > self.max_observations:
            del window[: len(window) - self.max_observations]
        self._since_refit[model.name] = self._since_refit.get(model.name, 0) + 1

        if error <= self.error_threshold:
            return perf
        if self._since_refit[model.name] < self.min_new_samples:
            return perf
        return self._refit(perf, model, error)

    def _refit(self, perf: PerfModel, model: ModelSpec, error: float) -> PerfModel:
        samples = list(self._base_samples.get(model.name, []))
        samples.extend(self._observations.get(model.name, []))
        # Deduplicate identical configurations, keeping the newest reading.
        deduped: dict[tuple, ThroughputSample] = {}
        for s in samples:
            deduped[(s.plan, s.shape, s.global_batch)] = s
        samples = list(deduped.values())
        if len(samples) < 4:
            return perf  # not enough signal to move the 7-parameter fit
        refitted, report = fit_perf_model(
            model, perf.env, perf.t_fwd_ref, samples, strict=False
        )
        self._since_refit[model.name] = 0
        self.events.append(
            RefitEvent(
                model_name=model.name,
                trigger_error=error,
                num_samples=len(samples),
                rmsle_after=report.rmsle,
            )
        )
        return refitted

    def observation_count(self, model: ModelSpec) -> int:
        return len(self._observations.get(model.name, ()))
