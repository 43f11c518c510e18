"""Fitting the performance model from profiled samples (paper §4.3).

The paper fits the 7-tuple of parameters by minimizing the root mean squared
logarithmic error (RMSLE) between predicted and measured iteration times over
a handful of sampled test runs — at least seven points, at least three of
which use ZeRO-Offload (otherwise ``k_opt_off``/``k_off``/``k_swap`` are not
observable).

We search in log-parameter space (the parameters span many orders of
magnitude) with :func:`repro.perfmodel.trf.least_squares`, once, from
:class:`PerfParams`' defaults.  A weak log-space prior holds each overlap
degree near that start wherever the samples do not pin it (DESIGN.md item
54).  The solver is a numpy-only port of scipy's bounded TRF, bit-identical
to scipy's (DESIGN.md item 51), imported on the first fit: most processes
(the sweep parent, the service before its first submission, every consumer
of a pre-fitted store) never fit anything.

The residual re-combines per-sample :class:`BreakdownTerms` built once per
fit: the parameter-free prelude of Eq. 1 is the same for every candidate
parameter vector, and :func:`combine_terms` is the same code
:func:`~repro.perfmodel.components.compute_breakdown` runs, so every
prediction is bit-identical to the scalar path.
"""

from __future__ import annotations

import math
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

#: The paper's minimum sample budget.
MIN_SAMPLES = 7
MIN_OFFLOAD_SAMPLES = 3

#: The overlap degrees the samples pin only weakly, and the weight of the
#: log-space prior residual that holds each near its start value.
PRIOR_PARAMS = ("k_sync", "k_off", "k_swap")
PRIOR_WEIGHT = 0.01


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

    # exp and log are libm's, so no fitted bit depends on numpy's SIMD
    # dispatch level (DESIGN.md item 54).
    measured_log = [math.log(s.iter_time) for s in samples]
    names = PerfParams.names()
    lo = np.array([math.log(PARAM_BOUNDS[n][0]) for n in names])
    hi = np.array([math.log(PARAM_BOUNDS[n][1]) for n in names])
    x0 = np.array([math.log(v) for v in PerfParams().as_vector()])
    prior = [names.index(n) for n in PRIOR_PARAMS]

    from repro.perfmodel import trf

    terms = sample_terms(model, env, t_fwd_ref, samples)

    def residuals(x: np.ndarray) -> np.ndarray:
        pred = predict_iter_times(terms, [math.exp(v) for v in x])
        fit = [math.log(max(p, 1e-12)) - m for p, m in zip(pred, measured_log)]
        fit.extend(PRIOR_WEIGHT * (x[i] - x0[i]) for i in prior)
        return np.array(fit)

    try:
        result = trf.least_squares(residuals, x0, lo, hi)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FittingError(f"least-squares solver failed: {exc}") from exc

    params = PerfParams.from_vector([math.exp(v) for v in result.x])
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
