"""The per-process fit memo inside ``build_perf_model``.

A fit is a pure function of (testbed cluster/seed/noise, model, batch, GPU
cap).  These tests pin that the memo returns the first result on
a hit, misses when any input changes, never caches a failure, and sits
below the engine's ``perfmodel-fit`` fault seam and its per-session
profiling-cost accounting.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.oracle.profiler as profiler
from repro.cluster import ClusterSpec, NodeSpec
from repro.errors import FittingError
from repro.faults import FaultPlan, FaultRule
from repro.models import BERT, ROBERTA, all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler.baselines import SynergyPolicy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import result_to_dict

CLUSTER = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8, num_cpus=96))
SEED = 7


@pytest.fixture
def fits(monkeypatch):
    """An empty memo, and a list that records every real fit."""
    monkeypatch.setattr(profiler, "_FIT_MEMO", {})
    calls: list[str] = []
    real = profiler.fit_perf_model

    def counting(model, *args, **kwargs):
        calls.append(model.name)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(profiler, "fit_perf_model", counting)
    return calls


def _testbed(**overrides) -> SyntheticTestbed:
    kwargs = {"seed": SEED, "measurement_noise": 0.015, **overrides}
    cluster = kwargs.pop("cluster", CLUSTER)
    return SyntheticTestbed(cluster, **kwargs)


class TestMemo:
    def test_hit_returns_the_same_objects_without_refitting(self, fits):
        first = build_perf_model(_testbed(), ROBERTA, 32)
        # A fresh testbed with the same identity: the key is content, not
        # the testbed object.
        second = build_perf_model(_testbed(), ROBERTA, 32)
        assert fits == ["roberta"]
        assert second[0] is first[0] and second[1] is first[1]

    @pytest.mark.parametrize(
        "field, change",
        [
            ("cluster", {"cluster": dataclasses.replace(CLUSTER, num_nodes=3)}),
            ("testbed seed", {"seed": SEED + 1}),
            ("measurement noise", {"measurement_noise": 0.02}),
            ("model", {"model": BERT}),
            ("global batch", {"global_batch": 64}),
            ("max gpus", {"max_gpus": 4}),
        ],
    )
    def test_any_changed_key_field_misses(self, fits, field, change):
        def call(**kw):
            testbed = _testbed(
                **{k: kw[k] for k in ("cluster", "seed", "measurement_noise")
                   if k in kw}
            )
            return build_perf_model(
                testbed, kw.get("model", ROBERTA), kw.get("global_batch", 32),
                max_gpus=kw.get("max_gpus", 8),
            )

        base = call()
        changed = call(**change)
        assert len(fits) == 2, field
        assert changed[0] is not base[0]
        # Both entries now hit.
        assert call() is base and call(**change) is changed
        assert len(fits) == 2

    def test_fitting_error_is_not_cached(self, monkeypatch, fits):
        counting = profiler.fit_perf_model
        failures = []

        def flaky(*args, **kwargs):
            if not failures:
                failures.append(1)
                raise FittingError("solver diverged")
            return counting(*args, **kwargs)

        monkeypatch.setattr(profiler, "fit_perf_model", flaky)
        with pytest.raises(FittingError):
            build_perf_model(_testbed(), ROBERTA, 32)
        assert profiler._FIT_MEMO == {}
        fitted = build_perf_model(_testbed(), ROBERTA, 32)
        assert build_perf_model(_testbed(), ROBERTA, 32) is fitted
        assert fits == ["roberta"]


# ----------------------------------------------------------------------
# Engine level: the memo sits below the fault seam and the cost accounting
# ----------------------------------------------------------------------
def _trace():
    only = ("roberta", "bert")
    return generate_trace(
        WorkloadConfig(
            num_jobs=4, seed=SEED, span=1800.0, cluster=CLUSTER,
            model_weights={m.name: float(m.name in only) for m in all_models()},
        ),
        SyntheticTestbed(CLUSTER, seed=SEED),
    )


def _simulator(injector=None) -> Simulator:
    return Simulator(
        CLUSTER, SynergyPolicy(), config=EngineConfig(seed=SEED),
        injector=injector,
    )


class TestEngine:
    def test_second_session_hits_memo_and_charges_the_same_profiling(self, fits):
        trace = _trace()
        models = {tj.model.name for tj in trace}
        first = _simulator().run(trace)
        assert sorted(fits) == sorted(models)
        second = _simulator().run(trace)
        assert sorted(fits) == sorted(models)  # no refit in session two
        # Simulated profiling cost is charged per session, memo or not.
        assert second.profiling_seconds == first.profiling_seconds > 0
        assert result_to_dict(second) == result_to_dict(first)
        assert first.fit_wall_seconds > 0
        assert "fit_wall_seconds" not in result_to_dict(first)

    def test_armed_fit_seam_fires_on_a_memo_hit(self, fits):
        trace = _trace()
        _simulator().run(trace)  # warm the memo
        warm = len(fits)
        plan = FaultPlan(
            name="fit-once", rules=(FaultRule(seam="perfmodel-fit", times=(1,)),)
        )
        result = _simulator(plan.injector("run-0")).run(trace)
        assert len(fits) == warm  # the retry was served from the memo
        kinds = [incident.kind for incident in result.incidents]
        assert kinds == ["perfmodel-fit-error"]
        assert "seam=perfmodel-fit occurrence=1" in result.incidents[0].message
        # The retry succeeded: every job ran to completion.
        assert len(result.records) == len(trace)
