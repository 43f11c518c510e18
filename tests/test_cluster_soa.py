"""SoA mirror lockstep: randomized ops vs brute-force object-graph truth.

The array-backed :class:`ClusterIndex` must agree with the object graph
after *any* mutation sequence — allocate/release/apply, node failure and
recovery, capacity scale-up — including the error paths that roll back.
Integer columns must agree exactly; the float host-memory column to ulps.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
    resolve_dynamics,
)
from repro.cluster.soa import FreeGpuIndex
from repro.errors import ClusterDynamicsError, PlacementError
from repro.units import HOUR

SPEC = ClusterSpec(num_nodes=6, node=NodeSpec(num_gpus=8, num_cpus=96))


# ----------------------------------------------------------------------
# Brute-force recomputation (the pre-mirror O(n) scans, verbatim)
# ----------------------------------------------------------------------
def brute_free(cluster: Cluster) -> ResourceVector:
    gpus = cpus = 0
    host_mem = 0.0
    for node in cluster.nodes:
        node_free = node.free
        gpus += node_free.gpus
        cpus += node_free.cpus
        host_mem += node_free.host_mem
    return ResourceVector(gpus, cpus, host_mem)


def brute_all_job_ids(cluster: Cluster) -> set[str]:
    ids: set[str] = set()
    for node in cluster.nodes:
        ids.update(node.allocations)
    return ids


def brute_gpu_utilization(cluster: Cluster) -> float:
    total = sum(node.capacity.gpus for node in cluster.nodes)
    used = total - sum(node.free.gpus for node in cluster.nodes)
    return used / total if total else 0.0


def brute_placement_of(cluster: Cluster, job_id: str) -> Placement:
    return Placement(
        {
            node.node_id: node.allocations[job_id]
            for node in cluster.nodes
            if job_id in node.allocations
        }
    )


def brute_buckets(cluster: Cluster) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for node in cluster.nodes:
        out.setdefault(node.free.gpus, []).append(node.node_id)
    return {k: sorted(v) for k, v in out.items() if v}


def assert_lockstep(cluster: Cluster) -> None:
    """The full SoA↔object equality probe."""
    index = cluster.index
    # Integer aggregates: exact.
    free = brute_free(cluster)
    assert cluster.free.gpus == free.gpus
    assert cluster.free.cpus == free.cpus
    # host_mem is the float column: exact up to ulp drift (values are in
    # bytes, so an absolute slack of 1e-3 bytes is far below one byte).
    assert cluster.free.host_mem == pytest.approx(
        free.host_mem, rel=1e-9, abs=1e-3
    )
    assert cluster.num_up_nodes == sum(1 for n in cluster.nodes if n.up)
    assert cluster.all_job_ids() == brute_all_job_ids(cluster)
    assert cluster.gpu_utilization() == brute_gpu_utilization(cluster)
    # Per-node columns.
    for node in cluster.nodes:
        probe = index.probe(node.node_id)
        used = node.used
        assert probe.used_gpus == used.gpus
        assert probe.used_cpus == used.cpus
        assert probe.used_mem == pytest.approx(
            used.host_mem, rel=1e-9, abs=1e-3
        )
        assert probe.up == node.up
        assert probe.num_allocs == len(node.allocations)
        assert probe.cap_gpus == node.capacity.gpus
    # Reverse index: job -> {node: share} matches dict membership.
    for job_id in brute_all_job_ids(cluster):
        expected = brute_placement_of(cluster, job_id)
        assert cluster.placement_of(job_id).shares == expected.shares
    for job_id, on_nodes in index.jobs.items():
        for node_id, share in on_nodes.items():
            assert cluster.nodes[node_id].allocations[job_id] == share
    # Free-GPU bucket index matches a brute-force rebuild.
    assert index.free_gpus.snapshot() == brute_buckets(cluster)


# ----------------------------------------------------------------------
# FreeGpuIndex unit behaviour
# ----------------------------------------------------------------------
class TestFreeGpuIndex:
    def test_iteration_matches_stable_sort(self):
        rng = random.Random(11)
        frees = [rng.randint(0, 8) for _ in range(32)]
        idx = FreeGpuIndex(8)
        for node_id, f in enumerate(frees):
            idx.add(node_id, f)
        expected = [
            nid
            for nid, _ in sorted(
                enumerate(frees), key=lambda item: item[1], reverse=True
            )
        ]
        assert list(idx.iter_ids_by_free_desc()) == expected
        # ...and stays identical through random updates.
        for _ in range(200):
            nid = rng.randrange(32)
            frees[nid] = rng.randint(0, 8)
            idx.update(nid, frees[nid])
        expected = [
            nid
            for nid, _ in sorted(
                enumerate(frees), key=lambda item: item[1], reverse=True
            )
        ]
        assert list(idx.iter_ids_by_free_desc()) == expected

    def test_first_fit_and_largest(self):
        idx = FreeGpuIndex(8)
        for node_id, f in enumerate([2, 5, 8, 5, 0]):
            idx.add(node_id, f)
        assert list(idx.iter_nonempty_desc()) == [2, 1, 3, 0]
        idx.update(2, 0)
        assert list(idx.iter_nonempty_desc()) == [1, 3, 0]

    def test_saturated(self):
        idx = FreeGpuIndex(8)
        idx.add(0, 0)
        assert list(idx.iter_nonempty_desc()) == []


# ----------------------------------------------------------------------
# Satellite regression: O(1) accessors pinned to brute force
# ----------------------------------------------------------------------
class TestAccessorRegression:
    def test_gpu_utilization_and_all_job_ids(self):
        cluster = Cluster(SPEC)
        cluster.apply("a", Placement({0: ResourceVector(gpus=8, cpus=32)}))
        cluster.apply(
            "b",
            Placement(
                {1: ResourceVector(gpus=4), 2: ResourceVector(gpus=4)}
            ),
        )
        assert cluster.gpu_utilization() == brute_gpu_utilization(cluster)
        assert cluster.all_job_ids() == brute_all_job_ids(cluster)
        cluster.remove_node(1)
        assert cluster.gpu_utilization() == brute_gpu_utilization(cluster)
        assert cluster.all_job_ids() == brute_all_job_ids(cluster)
        cluster.release("a")
        assert cluster.gpu_utilization() == brute_gpu_utilization(cluster)
        assert cluster.all_job_ids() == brute_all_job_ids(cluster)

    def test_all_down_is_zero(self):
        cluster = Cluster(ClusterSpec(num_nodes=1, node=SPEC.node))
        cluster.remove_node(0)
        assert cluster.gpu_utilization() == 0.0


# ----------------------------------------------------------------------
# Randomized operation sequences (the property test)
# ----------------------------------------------------------------------
def _random_placement(rng: random.Random, cluster: Cluster) -> Placement:
    up = [n for n in cluster.nodes if n.up]
    if not up:
        return Placement({})
    shares = {}
    for node in rng.sample(up, k=rng.randint(1, min(3, len(up)))):
        gpus = rng.randint(0, node.spec.num_gpus)
        shares[node.node_id] = ResourceVector(
            gpus=gpus,
            cpus=rng.randint(0, node.spec.num_cpus // 2),
            host_mem=rng.random() * node.spec.host_mem / 4,
        )
    return Placement(shares)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_ops_stay_lockstep(seed):
    rng = random.Random(seed)
    cluster = Cluster(SPEC)
    jobs = [f"job-{i}" for i in range(12)]
    for step in range(300):
        op = rng.random()
        try:
            if op < 0.45:
                cluster.apply(rng.choice(jobs), _random_placement(rng, cluster))
            elif op < 0.60:
                cluster.release(rng.choice(jobs))
            elif op < 0.70:
                node = rng.choice(cluster.nodes)
                node.allocate(
                    rng.choice(jobs),
                    ResourceVector(gpus=rng.randint(0, 4), cpus=rng.randint(0, 8)),
                )
            elif op < 0.78:
                node = rng.choice(cluster.nodes)
                node.set_allocation(
                    rng.choice(jobs),
                    ResourceVector(gpus=rng.randint(0, 12)),
                )
            elif op < 0.84:
                cluster.nodes[rng.randrange(len(cluster.nodes))].release(
                    rng.choice(jobs)
                )
            elif op < 0.92:
                cluster.remove_node(rng.randrange(len(cluster.nodes)))
            elif op < 0.97:
                down = [n.node_id for n in cluster.nodes if not n.up]
                cluster.add_node(rng.choice(down) if down else None)
            else:
                cluster.add_node()  # capacity scale-up
        except (PlacementError, ClusterDynamicsError):
            pass  # rejected ops must leave the mirror untouched too
        if step % 25 == 0:
            assert_lockstep(cluster)
    assert_lockstep(cluster)


def test_lockstep_under_flaky_dynamics():
    """PR 5 dynamics events keep the mirror exact (satellite requirement)."""
    spec = ClusterSpec(num_nodes=8, node=NodeSpec(num_gpus=8, num_cpus=96))
    cluster = Cluster(spec)
    rng = random.Random(42)
    jobs = [f"j{i}" for i in range(10)]
    events = resolve_dynamics("flaky-heavy").events(
        seed=7, span=12 * HOUR, cluster=spec
    )
    assert events, "expected failure/recovery events from the flaky profile"
    for event in events:
        # Fill in some load between events so failures actually evict.
        for _ in range(3):
            try:
                cluster.apply(rng.choice(jobs), _random_placement(rng, cluster))
            except PlacementError:
                pass
        try:
            if event.kind in ("fail", "scale-down"):
                cluster.remove_node(
                    event.node_id
                    if event.node_id is not None
                    else max(n.node_id for n in cluster.nodes if n.up)
                )
            else:
                cluster.add_node(event.node_id)
        except ClusterDynamicsError:
            pass
        assert_lockstep(cluster)
