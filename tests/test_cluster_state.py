"""Live cluster allocation bookkeeping."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    Placement,
    ResourceVector,
)
from repro.errors import PlacementError


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=4, num_cpus=16)))


class TestNode:
    def test_capacity_and_free(self, cluster):
        node = cluster.nodes[0]
        assert node.capacity.gpus == 4
        assert node.capacity - node.used == node.capacity

    def test_allocate_reduces_free(self, cluster):
        node = cluster.nodes[0]
        node.allocate("a", ResourceVector(gpus=2, cpus=4))
        free = node.capacity - node.used
        assert free.gpus == 2
        assert free.cpus == 12

    def test_allocate_extends_existing(self, cluster):
        node = cluster.nodes[0]
        node.allocate("a", ResourceVector(gpus=1))
        node.allocate("a", ResourceVector(gpus=2))
        assert node.allocations["a"].gpus == 3

    def test_over_capacity_raises(self, cluster):
        node = cluster.nodes[0]
        with pytest.raises(PlacementError):
            node.allocate("a", ResourceVector(gpus=5))

    def test_release_returns_share(self, cluster):
        node = cluster.nodes[0]
        node.allocate("a", ResourceVector(gpus=2))
        released = node.release("a")
        assert released.gpus == 2
        assert (node.capacity - node.used).gpus == 4
        assert node.release("missing").is_zero


def _free_gpus(cluster: Cluster) -> int:
    return sum(n.capacity.gpus - n.used.gpus for n in cluster.nodes)


class TestCluster:
    def test_totals(self, cluster):
        assert sum(n.capacity.gpus for n in cluster.nodes) == 8
        assert _free_gpus(cluster) == 8

    def test_apply_and_placement_of(self, cluster):
        placement = Placement(
            {0: ResourceVector(gpus=2, cpus=2), 1: ResourceVector(gpus=1, cpus=1)}
        )
        cluster.apply("job", placement)
        assert cluster.placement_of("job").total.gpus == 3
        assert _free_gpus(cluster) == 5
        assert cluster.all_job_ids() == {"job"}

    def test_apply_replaces_previous(self, cluster):
        cluster.apply("job", Placement({0: ResourceVector(gpus=4, cpus=4)}))
        cluster.apply("job", Placement({1: ResourceVector(gpus=1, cpus=1)}))
        assert sorted(cluster.placement_of("job").shares) == [1]
        assert _free_gpus(cluster) == 7

    def test_apply_rolls_back_on_overflow(self, cluster):
        cluster.apply("a", Placement({0: ResourceVector(gpus=4, cpus=4)}))
        before = cluster.placement_of("a")
        with pytest.raises(PlacementError):
            cluster.apply(
                "b",
                Placement({0: ResourceVector(gpus=1, cpus=1)})
                .with_share(0, ResourceVector(gpus=5, cpus=1)),
            )
        # "a" untouched, "b" absent.
        assert cluster.placement_of("a").shares == before.shares
        assert cluster.placement_of("b").is_empty

    def test_release_idempotent(self, cluster):
        cluster.apply("a", Placement({0: ResourceVector(gpus=1)}))
        cluster.release("a")
        cluster.release("a")
        assert _free_gpus(cluster) == 8
