"""Array-backed cluster state: struct-of-arrays mirror + free-GPU index.

The object graph in :mod:`repro.cluster.state` is the source of truth for
*per-node* state (tests and the scheduler mutate :class:`Node` directly),
but every *cluster-level* aggregate used to be an O(num_nodes) scan:
``Cluster.free``, ``total``, ``num_up_nodes``, ``gpu_utilization``,
``placement_of``, ``all_job_ids``, ``release``.  At 8 nodes that is noise;
at 1024 nodes it dominates the simulator's hot loop.

:class:`ClusterIndex` mirrors the object graph as numpy struct-of-arrays
(per-node used gpus/cpus/host_mem columns, capacity columns, an up mask),
plus a job → {node_id: share} reverse index and an incrementally-maintained
:class:`FreeGpuIndex`.  The mirror is kept in *exact lockstep* through a
listener hook every :class:`Node` mutation fires — see DESIGN.md for the
lockstep contract:

* integer aggregates (GPU/CPU counts, node counts) are exact — integer
  addition is associative, so the incremental counters equal the
  brute-force scans bit-for-bit;
* the host-memory aggregate is float and accumulates in *operation* order
  rather than node order, so it may differ from a brute-force sum by ulps.
  Nothing on a scheduling decision path reads it (feasibility checks
  recompute per-node memory exactly from the object graph); it is reset to
  exact zero whenever a node drains so drift cannot accumulate across a
  run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.cluster.topology import NodeSpec


class FreeGpuIndex:
    """Nodes bucketed by free-GPU count, each bucket sorted by node id.

    Iterating buckets from ``node_size`` down to 1 and each bucket in
    ascending-id order reproduces *exactly* the visit order of
    ``sorted(nodes, key=lambda n: n.free.gpus, reverse=True)`` (a stable
    sort ties back to list order, which is ascending node id) — the
    ordering contract every packing loop in the scheduler relies on.

    Updates are O(log bucket) via bisect, so the round state and free pool
    visit nodes most-free-first without a per-call O(n log n) sort.
    """

    __slots__ = ("node_size", "_buckets", "_key_of")

    def __init__(self, node_size: int):
        self.node_size = node_size
        self._buckets: list[list[int]] = [[] for _ in range(node_size + 1)]
        #: node_id -> bucket key it currently sits in (-1 = not tracked).
        self._key_of: list[int] = []

    @classmethod
    def from_array(cls, free: np.ndarray, node_size: int) -> "FreeGpuIndex":
        """Bulk-build from a per-node free-GPU array (vectorized, O(n))."""
        idx = cls(node_size)
        clamped = np.clip(free, 0, node_size)
        idx._key_of = clamped.astype(np.int64).tolist()
        for key in range(node_size + 1):
            idx._buckets[key] = np.flatnonzero(clamped == key).tolist()
        return idx

    def add(self, node_id: int, free_gpus: int) -> None:
        """Start tracking a node (ids must be added in ascending order)."""
        while len(self._key_of) <= node_id:
            self._key_of.append(-1)
        key = self._clamp(free_gpus)
        self._key_of[node_id] = key
        insort(self._buckets[key], node_id)

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


@dataclass(frozen=True)
class SoaProbe:
    """One node's mirrored columns, for equality probes in tests."""

    used_gpus: int
    used_cpus: int
    used_mem: float
    cap_gpus: int
    cap_cpus: int
    cap_mem: float
    up: bool
    num_allocs: int


class ClusterIndex:
    """The struct-of-arrays mirror of one :class:`~repro.cluster.state.Cluster`.

    Maintained through :meth:`share_changed` / :meth:`node_down` /
    :meth:`node_up` / :meth:`append_node`, which the ``Cluster`` wires into
    its nodes' mutation hooks.  All reads are O(1) or O(size of the answer).
    """

    #: Grow the arrays in chunks so scale-up events don't reallocate per node.
    _GROW = 64

    def __init__(self, node_spec: NodeSpec, num_nodes: int):
        self.node_spec = node_spec
        self.num_nodes = num_nodes
        cap = max(num_nodes, self._GROW)
        self.used_gpus = np.zeros(cap, dtype=np.int64)
        self.used_cpus = np.zeros(cap, dtype=np.int64)
        self.used_mem = np.zeros(cap, dtype=np.float64)
        self.num_allocs = np.zeros(cap, dtype=np.int64)
        self.up = np.zeros(cap, dtype=bool)
        self.up[:num_nodes] = True
        # Cluster-level counters (ints exact; mem in operation order).
        self.up_count = num_nodes
        self.used_gpus_total = 0
        self.used_cpus_total = 0
        self.used_mem_total = 0.0
        #: job_id -> {node_id: share} — mirrors dict membership in
        #: ``Node.allocations`` (a zero share present there is present here).
        self.jobs: dict[str, dict[int, ResourceVector]] = {}
        self.free_gpus = FreeGpuIndex(node_spec.num_gpus)
        for node_id in range(num_nodes):
            self.free_gpus.add(node_id, node_spec.num_gpus)

    # ------------------------------------------------------------------
    # Lockstep maintenance (called from Node/Cluster mutation hooks)
    # ------------------------------------------------------------------
    def share_changed(
        self,
        node_id: int,
        job_id: str,
        old: ResourceVector | None,
        new: ResourceVector | None,
    ) -> None:
        """A node's allocation for ``job_id`` went ``old`` -> ``new``.

        ``None`` means absent from the node's allocation dict (so
        ``old=None`` is a fresh allocation and ``new=None`` a release).
        """
        og, oc, om = (old.gpus, old.cpus, old.host_mem) if old is not None else (0, 0, 0.0)
        ng, nc, nm = (new.gpus, new.cpus, new.host_mem) if new is not None else (0, 0, 0.0)
        dg = ng - og
        dc = nc - oc
        dm = nm - om
        if dg:
            g = int(self.used_gpus[node_id]) + dg
            self.used_gpus[node_id] = g
            self.used_gpus_total += dg
            if self.up[node_id]:
                self.free_gpus.update(node_id, self.node_spec.num_gpus - g)
        if dc:
            self.used_cpus[node_id] += dc
            self.used_cpus_total += dc
        if dm:
            self.used_mem[node_id] += dm
            self.used_mem_total += dm
        if new is None:
            if old is not None:
                self.num_allocs[node_id] -= 1
                on_node = self.jobs.get(job_id)
                if on_node is not None:
                    on_node.pop(node_id, None)
                    if not on_node:
                        del self.jobs[job_id]
                if self.num_allocs[node_id] == 0:
                    self._reset_drained(node_id)
        else:
            if old is None:
                self.num_allocs[node_id] += 1
            self.jobs.setdefault(job_id, {})[node_id] = new

    def _reset_drained(self, node_id: int) -> None:
        """Snap a drained node's float column back to exact zero.

        The integer columns reach exact zero on their own; the float memory
        column may carry ulp residue from the add/subtract history, which
        would otherwise accumulate over a long run.
        """
        residue = float(self.used_mem[node_id])
        if residue:
            self.used_mem_total -= residue
            self.used_mem[node_id] = 0.0

    def node_down(self, node_id: int) -> None:
        self.up[node_id] = False
        self.up_count -= 1
        # A node is drained before it goes down; advertise zero free.
        self.free_gpus.update(node_id, 0)

    def node_up(self, node_id: int) -> None:
        self.up[node_id] = True
        self.up_count += 1
        self.free_gpus.update(
            node_id, self.node_spec.num_gpus - int(self.used_gpus[node_id])
        )

    def append_node(self) -> None:
        node_id = self.num_nodes
        if node_id >= len(self.up):
            grow = len(self.up) + self._GROW
            for name in ("used_gpus", "used_cpus", "used_mem", "num_allocs", "up"):
                old = getattr(self, name)
                fresh = np.zeros(grow, dtype=old.dtype)
                fresh[: len(old)] = old
                setattr(self, name, fresh)
        self.num_nodes = node_id + 1
        self.up[node_id] = True
        self.up_count += 1
        self.free_gpus.add(node_id, self.node_spec.num_gpus)

    # ------------------------------------------------------------------
    # O(1) / O(answer) reads
    # ------------------------------------------------------------------
    def free_totals(self) -> tuple[int, int, float]:
        """Cluster-wide (gpus, cpus, host_mem) free on up nodes.

        GPU/CPU counts are exact; host_mem is the incremental float
        aggregate (see module docstring for the tolerance contract).
        """
        spec = self.node_spec
        return (
            self.up_count * spec.num_gpus - self.used_gpus_total,
            self.up_count * spec.num_cpus - self.used_cpus_total,
            self.up_count * spec.host_mem - self.used_mem_total,
        )

    def nodes_of(self, job_id: str) -> dict[int, ResourceVector]:
        return self.jobs.get(job_id, {})

    def probe(self, node_id: int) -> SoaProbe:
        """One node's mirrored state (for lockstep equality tests)."""
        spec = self.node_spec
        up = bool(self.up[node_id])
        return SoaProbe(
            used_gpus=int(self.used_gpus[node_id]),
            used_cpus=int(self.used_cpus[node_id]),
            used_mem=float(self.used_mem[node_id]),
            cap_gpus=spec.num_gpus if up else 0,
            cap_cpus=spec.num_cpus if up else 0,
            cap_mem=spec.host_mem if up else 0.0,
            up=up,
            num_allocs=int(self.num_allocs[node_id]),
        )
