"""Fitting the performance model from profiled samples (paper §4.3).

The paper fits the 7-tuple of parameters by minimizing the root mean squared
logarithmic error (RMSLE) between predicted and measured iteration times over
a handful of sampled test runs — at least seven points, at least three of
which use ZeRO-Offload (otherwise ``k_opt_off``/``k_off``/``k_swap`` are not
observable).

We search in log-parameter space (the parameters span many orders of
magnitude) with :func:`repro.perfmodel.trf.least_squares` from a few
deterministic restarts, keeping the best solution.  That solver is a
numpy-only port of scipy's bounded ``least_squares(method="trf")`` whose fits
are bit-identical to scipy's, so the runtime needs numpy alone (DESIGN.md
item 51).  It is imported on the first fit, not with the package: most
processes (the sweep parent, the service before its first submission, every
consumer of a pre-fitted store) never fit anything.

The residual re-combines per-sample :class:`BreakdownTerms` built once per
fit: the parameter-free prelude of Eq. 1 is the same for every candidate
parameter vector, and :func:`combine_terms` is the same code
:func:`~repro.perfmodel.components.compute_breakdown` runs, so every
prediction is bit-identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError
from repro.models.specs import ModelSpec
from repro.perfmodel.components import (
    BreakdownTerms,
    breakdown_terms,
    combine_terms,
)
from repro.perfmodel.model import PerfModel
from repro.perfmodel.params import PARAM_BOUNDS, PerfParams
from repro.perfmodel.shape import Interconnect, ResourceShape
from repro.plans.plan import ExecutionPlan
from repro.rng import rng_for

#: The paper's minimum sample budget.
MIN_SAMPLES = 7
MIN_OFFLOAD_SAMPLES = 3


@dataclass(frozen=True)
class ThroughputSample:
    """One measured configuration: (plan, shape, batch) -> samples/second."""

    plan: ExecutionPlan
    shape: ResourceShape
    global_batch: int
    throughput: float

    @property
    def iter_time(self) -> float:
        return self.global_batch / self.throughput


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of one fitting run."""

    rmsle: float
    num_samples: int
    num_offload_samples: int
    per_sample_error: tuple[float, ...]  # relative |pred - meas| / meas

    @property
    def avg_error(self) -> float:
        if not self.per_sample_error:
            return 0.0
        return float(np.mean(self.per_sample_error))


def sample_terms(
    model: ModelSpec,
    env: Interconnect,
    t_fwd_ref: float,
    samples: list[ThroughputSample],
) -> list[BreakdownTerms]:
    """The parameter-free prelude of every sample, built once per fit."""
    return [
        breakdown_terms(model, s.plan, s.shape, env, t_fwd_ref, s.global_batch)
        for s in samples
    ]


def predict_iter_times(
    terms: list[BreakdownTerms], params: list[float]
) -> np.ndarray:
    """Predicted ``T_iter`` per sample for the seven params in field order."""
    return np.array([combine_terms(t, *params)[4] for t in terms])


def fit_perf_model(
    model: ModelSpec,
    env: Interconnect,
    t_fwd_ref: float,
    samples: list[ThroughputSample],
    *,
    restarts: int = 4,
    seed: int = 0,
    strict: bool = True,
) -> tuple[PerfModel, FitReport]:
    """Fit :class:`PerfParams` to measured samples; return model + report.

    Args:
        strict: Enforce the paper's sampling requirements (>= 7 samples,
            >= 3 with ZeRO-Offload).  Disable for online refits on arbitrary
            runtime measurements.

    Raises:
        FittingError: On insufficient samples (strict mode) or solver failure.
    """
    n_off = sum(1 for s in samples if s.plan.uses_offload)
    if strict:
        if len(samples) < MIN_SAMPLES:
            raise FittingError(
                f"need >= {MIN_SAMPLES} samples to fit, got {len(samples)}"
            )
        if n_off < MIN_OFFLOAD_SAMPLES:
            raise FittingError(
                f"need >= {MIN_OFFLOAD_SAMPLES} ZeRO-Offload samples, got {n_off}"
            )
    if not samples:
        raise FittingError("cannot fit with zero samples")
    for s in samples:
        if s.throughput <= 0:
            raise FittingError(f"non-positive measured throughput in sample {s}")

    measured_log = np.log([s.iter_time for s in samples])
    names = PerfParams.names()
    lo = np.log([PARAM_BOUNDS[n][0] for n in names])
    hi = np.log([PARAM_BOUNDS[n][1] for n in names])

    from repro.perfmodel import trf

    terms = sample_terms(model, env, t_fwd_ref, samples)

    def residuals(x: np.ndarray) -> np.ndarray:
        pred = predict_iter_times(terms, np.exp(x).tolist())
        return np.log(np.maximum(pred, 1e-12)) - measured_log

    rng = rng_for(seed, "perfmodel-fit", model.name)
    starts = [np.log(np.array(PerfParams().as_vector()))]
    for _ in range(max(restarts - 1, 0)):
        starts.append(lo + rng.random(len(names)) * (hi - lo))

    best_x: np.ndarray | None = None
    best_cost = np.inf
    for x0 in starts:
        try:
            result = trf.least_squares(residuals, np.clip(x0, lo, hi), lo, hi)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise FittingError(f"least-squares solver failed: {exc}") from exc
        if result.cost < best_cost:
            best_cost = result.cost
            best_x = result.x
    assert best_x is not None

    params = PerfParams.from_vector(list(np.exp(best_x)))
    fitted = PerfModel(model=model, env=env, t_fwd_ref=t_fwd_ref, params=params)
    pred = predict_iter_times(terms, params.as_vector())
    meas = np.array([s.iter_time for s in samples])
    rel_err = np.abs(pred - meas) / meas
    rmsle = float(np.sqrt(np.mean((np.log(pred) - measured_log) ** 2)))
    report = FitReport(
        rmsle=rmsle,
        num_samples=len(samples),
        num_offload_samples=n_off,
        per_sample_error=tuple(float(e) for e in rel_err),
    )
    return fitted, report


def prediction_errors(
    perf: PerfModel, samples: list[ThroughputSample]
) -> list[float]:
    """Relative throughput prediction errors on held-out samples (Table 2)."""
    errors = []
    for s in samples:
        pred = perf.throughput(s.plan, s.shape, s.global_batch)
        errors.append(abs(pred - s.throughput) / s.throughput)
    return errors
