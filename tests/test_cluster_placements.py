"""Cluster queries vs brute-force scans of the nodes, under random ops.

``Cluster`` keeps one job -> placement map beside the nodes' allocation
dicts.  After *any* sequence of apply/release, node failure and recovery
and capacity scale-up — including applies that fail and roll back —
``placement_of`` and ``all_job_ids`` must equal what a scan of the nodes
reports, and no node may hold more than its live capacity.
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
from repro.errors import ClusterDynamicsError, PlacementError
from repro.units import HOUR

SPEC = ClusterSpec(num_nodes=6, node=NodeSpec(num_gpus=8, num_cpus=96))


# ----------------------------------------------------------------------
# Brute-force scans of the nodes
# ----------------------------------------------------------------------
def brute_all_job_ids(cluster: Cluster) -> set[str]:
    ids: set[str] = set()
    for node in cluster.nodes:
        ids.update(node.allocations)
    return ids


def brute_placement_of(cluster: Cluster, job_id: str) -> Placement:
    return Placement(
        {
            node.node_id: node.allocations[job_id]
            for node in cluster.nodes
            if job_id in node.allocations
        }
    )


def assert_lockstep(cluster: Cluster) -> None:
    """The job -> placement map equals the node scans; nodes stay within
    their live capacity (a down node has none, so it holds nothing)."""
    for node in cluster.nodes:
        assert node.used.fits_within(node.capacity)
    assert cluster.all_job_ids() == brute_all_job_ids(cluster)
    for job_id in brute_all_job_ids(cluster):
        placement = cluster.placement_of(job_id)
        assert placement.shares == brute_placement_of(cluster, job_id).shares
        assert list(placement.shares) == sorted(placement.shares)


class TestAccessorRegression:
    def test_all_down_is_zero(self):
        cluster = Cluster(ClusterSpec(num_nodes=1, node=SPEC.node))
        cluster.remove_node(0)
        node = cluster.nodes[0]
        assert node.capacity == ResourceVector.zero()
        assert node.capacity - node.used == ResourceVector.zero()


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
            host_mem=rng.randint(0, node.spec.host_mem // 4),
        )
    return Placement(shares)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_ops_stay_lockstep(seed):
    rng = random.Random(seed)
    cluster = Cluster(SPEC)
    jobs = [f"job-{i}" for i in range(12)]
    for step in range(300):
        op = rng.random()
        job_id = rng.choice(jobs)
        try:
            if op < 0.55:
                cluster.apply(job_id, _random_placement(rng, cluster))
            elif op < 0.70:
                # Over one node's capacity, or off the end of the cluster:
                # the apply fails and must restore the previous placement.
                before = cluster.placement_of(job_id)
                shares = dict(_random_placement(rng, cluster).shares)
                shares[rng.randrange(len(cluster.nodes) + 1)] = ResourceVector(
                    gpus=SPEC.node.num_gpus + 1
                )
                with pytest.raises(PlacementError):
                    cluster.apply(job_id, Placement(shares))
                assert cluster.placement_of(job_id).shares == before.shares
            elif op < 0.84:
                cluster.release(job_id)
            elif op < 0.92:
                cluster.remove_node(rng.randrange(len(cluster.nodes)))
            elif op < 0.97:
                down = [n.node_id for n in cluster.nodes if not n.up]
                cluster.add_node(rng.choice(down) if down else None)
            else:
                cluster.add_node()  # capacity scale-up
        except (PlacementError, ClusterDynamicsError):
            pass  # rejected ops must leave the map matching the nodes too
        if step % 25 == 0:
            assert_lockstep(cluster)
    assert_lockstep(cluster)


def test_lockstep_under_flaky_dynamics():
    """Flaky-profile failures and recoveries keep the map matching the nodes."""
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
