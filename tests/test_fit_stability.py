"""A fit that the samples pin: last-bit input noise moves it by last bits.

Each catalog model is fitted on the paper testbed (seeds 0 and 7), then
refitted three times with every measured throughput scaled by
``1 + 1e-12 * N(0, 1)`` from a fixed generator.  Without the overlap-degree
prior a change that small sent ``k_sync``/``k_off``/``k_swap`` across their
whole [1, 32] range and moved best-plan predictions by up to 5e-2
(DESIGN.md item 54).  Here every fitted parameter must stay within 1e-3
relative and the best-plan throughput on 8, 64 and 512 packed GPUs within
1e-4 relative of the unperturbed fit (a count where no plan fits the
model's catalog batch, such as 512 GPUs for ViT, must stay without one).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import PAPER_CLUSTER, ClusterSpec
from repro.models import all_models
from repro.oracle import SyntheticTestbed
from repro.oracle.profiler import collect_samples, default_profile_configs
from repro.perfmodel import ResourceShape
from repro.perfmodel.fitting import fit_perf_model
from repro.planeval import DEFAULT_CPUS_PER_GPU, PlanEvalEngine
from repro.scheduler import PerfModelStore

#: 64 paper nodes, so that the probe reaches 512 packed GPUs.
FLEET = ClusterSpec(num_nodes=64, node=PAPER_CLUSTER.node)
GPU_COUNTS = (8, 64, 512)
PERTURBATIONS = 3


def _best_throughputs(perf, model) -> np.ndarray:
    """Best-plan throughput per count; NaN where no plan fits the batch."""
    store = PerfModelStore()
    store.add(perf)
    engine = PlanEvalEngine(FLEET, perf_store=store)
    node_size = FLEET.node.num_gpus
    best = [
        engine.best(
            model, model.global_batch_size,
            ResourceShape.packed(
                gpus, node_size=node_size, cpus=gpus * DEFAULT_CPUS_PER_GPU
            ),
        )
        for gpus in GPU_COUNTS
    ]
    return np.array([np.nan if b is None else b.throughput for b in best])


@pytest.mark.parametrize("testbed_seed", [0, 7])
@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_last_bit_noise_barely_moves_the_fit(model, testbed_seed):
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=testbed_seed)
    batch = model.global_batch_size
    samples = collect_samples(
        testbed, model, batch, default_profile_configs(testbed, model, batch)
    )
    fwd = testbed.profiled_fwd_ref(model)
    base, _ = fit_perf_model(model, testbed.env, fwd, samples)
    params = np.array(base.params.as_vector())
    best = _best_throughputs(base, model)

    rng = np.random.default_rng(testbed_seed)
    for _ in range(PERTURBATIONS):
        noisy = [
            dataclasses.replace(
                s, throughput=s.throughput * (1.0 + 1e-12 * rng.standard_normal())
            )
            for s in samples
        ]
        refit, _ = fit_perf_model(model, testbed.env, fwd, noisy)
        moved = np.abs(np.array(refit.params.as_vector()) - params) / params
        assert moved.max() <= 1e-3, dict(zip(type(base.params).names(), moved))
        moved_best = _best_throughputs(refit, model)
        assert np.array_equal(np.isnan(moved_best), np.isnan(best))
        shift = np.abs(moved_best - best) / best
        assert np.nanmax(shift) <= 1e-4, dict(zip(GPU_COUNTS, shift))
