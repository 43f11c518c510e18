"""Synthetic loss process: the accuracy-preservation physics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import BERT, GPT2
from repro.plans import ExecutionPlan, ZeroStage
from repro.training import (
    LossCurveConfig,
    expected_loss,
    max_loss_difference,
    simulate_loss,
    simulate_reconfigured_loss,
)

CFG = LossCurveConfig(model=GPT2, global_batch=16, seed=3, steps=600)
PLAN_A = ExecutionPlan(dp=8, ga_steps=2)
PLAN_B = ExecutionPlan(dp=4, zero=ZeroStage.ZERO_DP, ga_steps=4)


class TestExpectedCurve:
    def test_monotone_decreasing(self):
        curve = expected_loss(CFG)
        assert np.all(np.diff(curve) <= 0)

    def test_starts_near_ln_vocab(self):
        curve = expected_loss(CFG)
        assert curve[0] == pytest.approx(np.log(GPT2.vocab_size), rel=0.1)

    def test_floor_above_zero(self):
        assert CFG.floor_loss > 0


class TestSimulatedRuns:
    def test_deterministic_per_seed_and_plan(self):
        a = simulate_loss(CFG, PLAN_A)
        b = simulate_loss(CFG, PLAN_A)
        assert np.array_equal(a, b)

    def test_seed_changes_move_curve_more_than_plan_changes(self):
        ref = simulate_loss(CFG, PLAN_A)
        other_plan = simulate_loss(CFG, PLAN_B)
        other_seed = simulate_loss(
            LossCurveConfig(model=GPT2, global_batch=16, seed=4, steps=600),
            PLAN_A,
        )
        assert max_loss_difference(ref, other_plan) < max_loss_difference(
            ref, other_seed
        )

    def test_splits_ordered_train_val_test(self):
        train = simulate_loss(CFG, PLAN_A, split="train")
        val = simulate_loss(CFG, PLAN_A, split="validation")
        test = simulate_loss(CFG, PLAN_A, split="test")
        assert val.mean() > train.mean()
        assert test.mean() > val.mean()

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            simulate_loss(CFG, PLAN_A, split="dev")


class TestReconfiguredRuns:
    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ValueError):
            simulate_reconfigured_loss(CFG, [(100, PLAN_A)])

    def test_single_plan_schedule_equals_simulate_loss(self):
        direct = simulate_loss(CFG, PLAN_A)
        scheduled = simulate_reconfigured_loss(CFG, [(0, PLAN_A)])
        assert np.array_equal(direct, scheduled)

    def test_reconfiguration_stays_within_seed_envelope(self):
        ref = simulate_loss(CFG, PLAN_A)
        rcfg = simulate_reconfigured_loss(
            CFG, [(0, PLAN_A), (200, PLAN_B), (400, PLAN_A)]
        )
        seed = simulate_loss(
            LossCurveConfig(model=GPT2, global_batch=16, seed=4, steps=600),
            PLAN_A,
        )
        assert max_loss_difference(ref, rcfg) <= max_loss_difference(ref, seed)

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(ValueError):
            simulate_reconfigured_loss(CFG, [(0, PLAN_A), (9999, PLAN_B)])

    @settings(max_examples=10, deadline=None)
    @given(boundary=st.integers(min_value=1, max_value=599))
    def test_any_boundary_produces_finite_curve(self, boundary):
        curve = simulate_reconfigured_loss(CFG, [(0, PLAN_A), (boundary, PLAN_B)])
        assert np.all(np.isfinite(curve))
        assert np.all(curve > 0)


class TestDiffHelpers:
    def test_relative_difference_zero_for_identical(self):
        a = simulate_loss(CFG, PLAN_A)
        assert max_loss_difference(a, a) == 0

    def test_misaligned_curves_rejected(self):
        a = simulate_loss(CFG, PLAN_A)
        with pytest.raises(ValueError):
            max_loss_difference(a, a[:-1])

    def test_tail_fraction(self):
        cfg_b = LossCurveConfig(model=BERT, global_batch=64, seed=3, steps=600)
        a = simulate_loss(cfg_b, PLAN_A)
        b = simulate_loss(
            LossCurveConfig(model=BERT, global_batch=64, seed=5, steps=600),
            PLAN_A,
        )
        full = max_loss_difference(a, b)
        tail = max_loss_difference(a, b, tail_fraction=0.1)
        assert tail <= full
