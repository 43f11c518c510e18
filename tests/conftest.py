"""Shared fixtures: a small testbed, fitted models, and common plans."""

from __future__ import annotations

import pytest

from repro.cluster import PAPER_CLUSTER, ClusterSpec, NodeSpec
from repro.models import GPT2, LLAMA2_7B, ROBERTA
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler import PerfModelStore


@pytest.fixture(scope="session")
def paper_testbed() -> SyntheticTestbed:
    """One testbed shared by the whole session (hidden truths are cached)."""
    return SyntheticTestbed(PAPER_CLUSTER, seed=1234)


@pytest.fixture(scope="session")
def small_cluster() -> ClusterSpec:
    """A 2-node × 4-GPU cluster for fast scheduler tests."""
    return ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=4, num_cpus=48))


@pytest.fixture(scope="session")
def small_testbed(small_cluster) -> SyntheticTestbed:
    return SyntheticTestbed(small_cluster, seed=99)


@pytest.fixture(scope="session")
def gpt2_perf(paper_testbed):
    """Fitted performance model for GPT-2 (expensive; share across tests)."""
    perf, report = build_perf_model(
        paper_testbed, GPT2, GPT2.global_batch_size
    )
    return perf, report


@pytest.fixture(scope="session")
def fitted_store(paper_testbed) -> PerfModelStore:
    """Perf-model store with the two models most tests use."""
    store = PerfModelStore()
    for model in (GPT2, ROBERTA, LLAMA2_7B):
        perf, _ = build_perf_model(
            paper_testbed, model, model.global_batch_size
        )
        store.add(perf)
    return store
