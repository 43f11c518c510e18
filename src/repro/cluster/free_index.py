"""Free-GPU bucket order for the scheduler's packing loops."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable


class FreeGpuIndex:
    """Nodes bucketed by free-GPU count, each bucket sorted by node id.

    Iterating buckets from ``node_size`` down and each bucket in ascending
    id order visits nodes exactly as ``sorted(nodes, key=free gpus,
    reverse=True)`` would (a stable sort ties back to ascending node id),
    without a per-call sort.  Rubick's round state and the baselines' free
    pool each build one per round and update it as they pack.
    """

    __slots__ = ("node_size", "_buckets", "_key_of")

    def __init__(self, frees: Iterable[int], node_size: int):
        """Bucket node ``i`` by ``frees[i]``, clamped to ``[0, node_size]``."""
        self.node_size = node_size
        self._buckets: list[list[int]] = [[] for _ in range(node_size + 1)]
        #: node_id -> bucket key it currently sits in.
        self._key_of: list[int] = []
        for node_id, free_gpus in enumerate(frees):
            key = self._clamp(free_gpus)
            self._key_of.append(key)
            self._buckets[key].append(node_id)

    def update(self, node_id: int, free_gpus: int) -> None:
        key = self._clamp(free_gpus)
        old = self._key_of[node_id]
        if key == old:
            return
        bucket = self._buckets[old]
        del bucket[self._index_in(bucket, node_id)]
        self._key_of[node_id] = key
        insort(self._buckets[key], node_id)

    def iter_ids_by_free_desc(self):
        """Node ids, most-free first, ascending id within equal free."""
        for key in range(self.node_size, -1, -1):
            yield from self._buckets[key]

    def iter_nonempty_desc(self):
        """Like :meth:`iter_ids_by_free_desc` but skips free == 0 nodes."""
        for key in range(self.node_size, 0, -1):
            yield from self._buckets[key]

    def _clamp(self, free_gpus: int) -> int:
        if free_gpus < 0:
            return 0
        return min(free_gpus, self.node_size)

    @staticmethod
    def _index_in(bucket: list[int], node_id: int) -> int:
        lo = bisect_left(bucket, node_id)
        if lo >= len(bucket) or bucket[lo] != node_id:
            raise KeyError(f"node {node_id} not in bucket")
        return lo

    # Testing hook: full-state equality against a brute-force rebuild.
    def snapshot(self) -> dict[int, list[int]]:
        return {k: list(b) for k, b in enumerate(self._buckets) if b}
