"""Synthetic training-loss process for the accuracy experiments (Fig. 9, Tab. 3).

The paper's claim is *statistical*: because Rubick keeps the global batch size
fixed across reconfigurations, switching plans/resources perturbs the loss
trajectory no more than changing the random seed does.  We reproduce the
claim with a synthetic loss process that encodes the same structure:

* the expected curve is a power-law decay determined only by (model, global
  batch, step) — the quantities reconfiguration preserves;
* seed changes re-draw the entire stochastic gradient-noise path (an AR(1)
  perturbation, matching the strong step-to-step correlation of real loss
  curves);
* plan changes re-draw only a *numerics* path with a much smaller amplitude —
  the floating-point non-determinism of different parallel reduction orders —
  so reconfigured curves stay inside the seed-variation envelope by
  construction of the physics being modeled, not by fiat on the outputs.

This is the documented substitution for real GPU training (DESIGN.md): the
evaluation exercises the same comparison pipeline (relative-difference curves
and max train/val/test deltas) the paper runs on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.specs import ModelSpec
from repro.plans.plan import ExecutionPlan
from repro.rng import rng_for

#: Relative amplitude of seed-level gradient noise on the loss.
SEED_NOISE_SCALE = 0.035
#: Relative amplitude of plan-level numerics noise (reduction order, fused
#: kernels) — roughly an order of magnitude below gradient noise.
PLAN_NOISE_SCALE = 0.006
#: AR(1) correlation of the noise paths (loss curves are smooth).
AR_COEFF = 0.95

#: Generalization-gap offsets of the evaluation splits.
_SPLIT_OFFSETS = {"train": 0.0, "validation": 0.04, "test": 0.06}


@dataclass(frozen=True)
class LossCurveConfig:
    """Configuration of one simulated training run."""

    model: ModelSpec
    global_batch: int
    seed: int = 0
    steps: int = 3000

    @property
    def initial_loss(self) -> float:
        # Cross-entropy starts near ln(vocab) for LMs; a smaller constant
        # stands in for vision models.
        if self.model.is_language_model:
            return float(np.log(self.model.vocab_size))
        return float(np.log(1000.0))

    @property
    def floor_loss(self) -> float:
        """Irreducible loss; larger models reach lower floors."""
        return 1.2 + 0.8 / np.log10(max(self.model.param_count, 10.0))

    @property
    def decay_exponent(self) -> float:
        """Power-law loss-curve exponent; mildly batch-dependent."""
        return 0.28 + 0.04 * np.log2(max(self.global_batch, 1)) / 10.0


def _ar1_path(rng: np.random.Generator, steps: int, scale: float) -> np.ndarray:
    """Smooth AR(1) noise path with stationary std ``scale``."""
    innovations = rng.normal(0.0, scale * np.sqrt(1 - AR_COEFF**2), size=steps)
    path = np.empty(steps)
    acc = rng.normal(0.0, scale)
    for i in range(steps):
        acc = AR_COEFF * acc + innovations[i]
        path[i] = acc
    return path


def expected_loss(config: LossCurveConfig) -> np.ndarray:
    """Noise-free expected loss trajectory (depends only on model/batch/step)."""
    steps = np.arange(1, config.steps + 1, dtype=float)
    span = config.initial_loss - config.floor_loss
    warmup = 25.0
    return config.floor_loss + span * ((steps + warmup) / warmup) ** (
        -config.decay_exponent
    )


def simulate_reconfigured_loss(
    config: LossCurveConfig,
    plan_schedule: list[tuple[int, ExecutionPlan]],
    *,
    split: str = "train",
) -> np.ndarray:
    """Loss for a run whose plan changes at the given steps.

    ``plan_schedule`` is ``[(start_step, plan), ...]`` with ascending start
    steps; the first entry must start at 0.  Because Rubick preserves the
    global batch across reconfigurations, only the small numerics-noise path
    switches at each boundary; the gradient-noise path is a function of the
    seed alone.
    """
    if not plan_schedule or plan_schedule[0][0] != 0:
        raise ValueError("plan_schedule must start at step 0")
    if split not in _SPLIT_OFFSETS:
        raise ValueError(f"unknown split {split!r}")
    base = expected_loss(config)
    seed_rng = rng_for(config.seed, "loss-seed", config.model.name)
    seed_noise = _ar1_path(seed_rng, config.steps, SEED_NOISE_SCALE)
    plan_noise = np.empty(config.steps)
    boundaries = [s for s, _ in plan_schedule[1:]] + [config.steps]
    for (start, plan), end in zip(plan_schedule, boundaries):
        if not 0 <= start < end <= config.steps:
            raise ValueError("plan_schedule steps must ascend within the run")
        rng = rng_for(config.seed, "loss-plan", config.model.name, repr(plan), start)
        plan_noise[start:end] = _ar1_path(rng, end - start, PLAN_NOISE_SCALE)
    curve = base * (1.0 + seed_noise + plan_noise)
    if split == "train":
        return curve
    eval_rng = rng_for(config.seed, "loss-eval", config.model.name, split)
    eval_noise = _ar1_path(eval_rng, config.steps, 0.01)
    return curve * (1.0 + _SPLIT_OFFSETS[split]) * (1.0 + eval_noise)


def simulate_loss(
    config: LossCurveConfig,
    plan: ExecutionPlan,
    *,
    split: str = "train",
) -> np.ndarray:
    """Simulated loss trajectory for a single-plan run."""
    return simulate_reconfigured_loss(config, [(0, plan)], split=split)


def max_loss_difference(
    reference: np.ndarray, other: np.ndarray, *, tail_fraction: float = 1.0
) -> float:
    """Max absolute pointwise loss difference (optionally over the curve tail)."""
    if reference.shape != other.shape:
        raise ValueError("curves must align")
    start = int(len(reference) * (1.0 - tail_fraction))
    return float(np.max(np.abs(reference[start:] - other[start:])))
