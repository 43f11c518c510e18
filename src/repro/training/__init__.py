"""Synthetic training-loss process for the accuracy-preservation experiments."""

from repro.training.loss import (
    LossCurveConfig,
    PLAN_NOISE_SCALE,
    SEED_NOISE_SCALE,
    expected_loss,
    max_loss_difference,
    simulate_loss,
    simulate_reconfigured_loss,
)

__all__ = [
    "LossCurveConfig",
    "PLAN_NOISE_SCALE",
    "SEED_NOISE_SCALE",
    "expected_loss",
    "max_loss_difference",
    "simulate_loss",
    "simulate_reconfigured_loss",
]
