"""Placement construction and aggregate queries."""

from __future__ import annotations

import pytest

from repro.cluster import Placement, ResourceVector


class TestConstruction:
    def test_empty(self):
        p = Placement.empty()
        assert p.is_empty
        assert p.num_nodes == 0
        assert p.min_gpus_per_node == 0

    def test_zero_shares_dropped(self):
        p = Placement({0: ResourceVector.zero(), 1: ResourceVector(gpus=2, cpus=2)})
        assert sorted(p.shares) == [1]

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            Placement({0: ResourceVector(gpus=-1)})

    def test_single(self):
        p = Placement({3: ResourceVector(gpus=4, cpus=8)})
        assert sorted(p.shares) == [3]
        assert p.total == ResourceVector(4, 8, 0)


class TestAggregates:
    def test_total_sums_shares(self):
        p = Placement(
            {
                0: ResourceVector(2, 4, 1),
                1: ResourceVector(3, 6, 2),
            }
        )
        assert p.total == ResourceVector(5, 10, 3)

    def test_gpus_per_node_descending(self):
        p = Placement({0: ResourceVector(gpus=2), 1: ResourceVector(gpus=8)})
        assert p.gpus_per_node == [8, 2]
        assert p.min_gpus_per_node == 2
        assert p.num_nodes == 2

    def test_cpu_only_share_not_a_gpu_node(self):
        p = Placement({0: ResourceVector(gpus=4), 1: ResourceVector(cpus=8)})
        assert p.num_nodes == 1
        assert p.min_gpus_per_node == 4


class TestWithShare:
    def test_replace_and_remove(self):
        p = Placement({0: ResourceVector(gpus=2)})
        p2 = p.with_share(1, ResourceVector(gpus=3))
        assert p2.total.gpus == 5
        p3 = p2.with_share(0, ResourceVector.zero())
        assert sorted(p3.shares) == [1]

    def test_original_unchanged(self):
        p = Placement({0: ResourceVector(gpus=2)})
        p.with_share(0, ResourceVector(gpus=5))
        assert p.total.gpus == 2
