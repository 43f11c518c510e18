"""FreePool packing helper used by the baseline schedulers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec, Placement, ResourceVector
from repro.models import GPT2, LLAMA2_7B
from repro.plans import ExecutionPlan, ZeroStage
from repro.plans.memory import host_mem_demand_per_node
from repro.scheduler import Job, JobSpec, JobStatus
from repro.scheduler.baselines import FreePool
from repro.scheduler.rubick import _RoundState

SPEC = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=4, num_cpus=16))


@pytest.fixture
def pool() -> FreePool:
    return FreePool(Cluster(SPEC), keep_job_ids=set())


class TestAllocatePacked:
    def test_single_node_fit(self, pool):
        placement = pool.allocate_packed(3, cpus_per_gpu=2)
        assert placement is not None
        assert placement.total.gpus == 3
        assert placement.num_nodes == 1
        assert pool.free_gpus == 5

    def test_spans_nodes_when_needed(self, pool):
        placement = pool.allocate_packed(6, cpus_per_gpu=1)
        assert placement is not None
        assert placement.num_nodes == 2

    def test_oversized_request_fails_without_mutation(self, pool):
        assert pool.allocate_packed(9) is None
        assert pool.free_gpus == 8

    def test_zero_request_rejected(self, pool):
        assert pool.allocate_packed(0) is None

    def test_host_memory_constraint(self, pool):
        huge = SPEC.node.host_mem * 2
        placement = pool.allocate_packed(
            2, host_mem_per_node=lambda g: huge
        )
        assert placement is None

    def test_respects_existing_allocations(self):
        cluster = Cluster(SPEC)
        cluster.apply("held", Placement({0: ResourceVector(gpus=4, cpus=8)}))
        pool = FreePool(cluster, keep_job_ids={"held"})
        assert pool.free_gpus == 4
        placement = pool.allocate_packed(5)
        assert placement is None

    def test_released_jobs_free_their_resources(self):
        cluster = Cluster(SPEC)
        cluster.apply("gone", Placement({0: ResourceVector(gpus=4, cpus=8)}))
        pool = FreePool(cluster, keep_job_ids=set())  # "gone" not kept
        assert pool.free_gpus == 8


class TestClaim:
    def test_claim_reserves_exact_placement(self, pool):
        placement = Placement(
            {0: ResourceVector(gpus=2, cpus=4), 1: ResourceVector(gpus=1, cpus=2)}
        )
        assert pool.claim(placement)
        assert pool.free_gpus == 5

    def test_claim_fails_atomically(self, pool):
        pool.allocate_packed(4)  # fills node with most free GPUs
        too_big = Placement(
            {0: ResourceVector(gpus=4, cpus=4), 1: ResourceVector(gpus=4, cpus=4)}
        )
        before = pool.free_gpus
        assert not pool.claim(too_big)
        assert pool.free_gpus == before  # nothing partially reserved


class TestRelease:
    def test_release_returns_resources(self, pool):
        placement = pool.allocate_packed(4, cpus_per_gpu=1)
        pool.release(placement)
        assert pool.free_gpus == 8


# ----------------------------------------------------------------------
# Free resources do not depend on the order a node's allocations were made
# ----------------------------------------------------------------------
#: Divisible by every DP degree below, so every plan is feasible.
_BATCH = 420
#: DP degrees that split a job's host memory into non-dyadic fractions.
_DEMAND_PLANS = [
    (model, ExecutionPlan(dp=dp, zero=zero))
    for model in (GPT2, LLAMA2_7B)
    for dp in (1, 3, 5, 6, 7)
    for zero in (ZeroStage.NONE, ZeroStage.OFFLOAD)
]


@st.composite
def _allocated_clusters(draw):
    """A cluster whose jobs hold host memory from the estimator, the set
    of jobs a policy keeps, and a permutation of each node's allocations."""
    num_nodes = draw(st.integers(1, 3))
    placements = {}
    for i in range(draw(st.integers(3, 8))):
        model, plan = draw(st.sampled_from(_DEMAND_PLANS))
        host_mem = host_mem_demand_per_node(model, plan, _BATCH, 1)
        node_ids = draw(st.sets(st.integers(0, num_nodes - 1), min_size=1))
        placements[f"j{i}"] = Placement({
            node_id: ResourceVector(
                gpus=1, cpus=draw(st.integers(1, 4)), host_mem=host_mem
            )
            for node_id in node_ids
        })
    # Host memory just above the fullest node's demand: what is left free
    # is then small beside what is held, so it keeps every low-order byte.
    held = [0] * num_nodes
    for placement in placements.values():
        for node_id, share in placement.shares.items():
            held[node_id] += share.host_mem
    cluster = Cluster(ClusterSpec(num_nodes=num_nodes, node=NodeSpec(
        num_gpus=8, num_cpus=32,
        host_mem=math.ceil(max(held)) + draw(st.integers(0, 2**20)),
    )))
    for job_id, placement in placements.items():
        cluster.apply(job_id, placement)
    # Most jobs are kept: order can only matter among three or more shares.
    dropped = draw(st.sets(st.sampled_from(sorted(placements)), max_size=2))
    keep = set(placements) - dropped
    orders = [
        draw(st.permutations(list(node.allocations.items())))
        for node in cluster.nodes
    ]
    return cluster, keep, orders


def _running_jobs(job_ids) -> list[Job]:
    jobs = []
    for job_id in sorted(job_ids):
        job = Job(spec=JobSpec(
            job_id=job_id, model=GPT2, global_batch=_BATCH,
            requested=ResourceVector(1, 1), initial_plan=ExecutionPlan(),
            total_samples=1.0, submit_time=0.0,
        ))
        job.status = JobStatus.RUNNING
        jobs.append(job)
    return jobs


def _free_views(cluster: Cluster, keep: set[str]):
    pool = FreePool(cluster, keep_job_ids=keep)
    state = _RoundState(cluster, _running_jobs(keep))
    return (
        (pool._fg, pool._fc, pool._fm),
        [(node.free, node.host_free) for node in state.nodes],
    )


@settings(max_examples=200, deadline=None)
@given(case=_allocated_clusters())
def test_free_resources_ignore_allocation_order(case):
    cluster, keep, orders = case
    before = _free_views(cluster, keep)
    for node, order in zip(cluster.nodes, orders):
        node.allocations = dict(order)
    assert _free_views(cluster, keep) == before
