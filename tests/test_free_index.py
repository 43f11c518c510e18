"""Free-GPU bucket order: iteration equals a stable most-free-first sort."""

from __future__ import annotations

import random

from repro.cluster.free_index import FreeGpuIndex


def stable_sort_ids(frees: list[int]) -> list[int]:
    return [
        nid
        for nid, _ in sorted(enumerate(frees), key=lambda item: item[1], reverse=True)
    ]


class TestFreeGpuIndex:
    def test_iteration_matches_stable_sort(self):
        rng = random.Random(11)
        frees = [rng.randint(0, 8) for _ in range(32)]
        idx = FreeGpuIndex(frees, 8)
        assert list(idx.iter_ids_by_free_desc()) == stable_sort_ids(frees)
        # ...and stays identical through random updates.
        for _ in range(200):
            nid = rng.randrange(32)
            frees[nid] = rng.randint(0, 8)
            idx.update(nid, frees[nid])
        assert list(idx.iter_ids_by_free_desc()) == stable_sort_ids(frees)

    def test_first_fit_and_largest(self):
        idx = FreeGpuIndex([2, 5, 8, 5, 0], 8)
        assert list(idx.iter_nonempty_desc()) == [2, 1, 3, 0]
        idx.update(2, 0)
        assert list(idx.iter_nonempty_desc()) == [1, 3, 0]

    def test_saturated(self):
        idx = FreeGpuIndex([0], 8)
        assert list(idx.iter_nonempty_desc()) == []
