"""Job placements: which resources a job holds on which nodes.

A placement is the scheduler's output for one job — per-node GPU/CPU/memory
shares — and the performance model's input (it determines whether DP/TP/PP
communication crosses the slow inter-node links).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.resources import ResourceVector
from repro.cluster.topology import ClusterSpec
from repro.errors import PlacementError


@dataclass(frozen=True)
class Placement:
    """Per-node resource shares held by one job.

    ``shares`` maps node id -> :class:`ResourceVector`.  Empty shares are not
    stored.  Placements are immutable value objects; the scheduler builds new
    ones rather than mutating.
    """

    shares: dict[int, ResourceVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for node_id, share in self.shares.items():
            share.require_non_negative()
            if not share.is_zero:
                cleaned[node_id] = share
        object.__setattr__(self, "shares", cleaned)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total(self) -> ResourceVector:
        # Placements are immutable, so the fold is computed once and cached
        # (the simulator reads `total` on every accounting step).  The cache
        # attribute is not a dataclass field: equality and repr ignore it.
        try:
            return self._total_cache  # type: ignore[attr-defined]
        except AttributeError:
            gpus = cpus = 0
            host_mem = 0.0
            for share in self.shares.values():
                gpus += share.gpus
                cpus += share.cpus
                host_mem += share.host_mem
            total = ResourceVector(gpus, cpus, host_mem)
            object.__setattr__(self, "_total_cache", total)
            return total

    @property
    def num_nodes(self) -> int:
        """Nodes on which the job holds at least one GPU."""
        return sum(1 for share in self.shares.values() if share.gpus > 0)

    @property
    def gpus_per_node(self) -> list[int]:
        """GPU counts per occupied node, descending."""
        return sorted(
            (share.gpus for share in self.shares.values() if share.gpus > 0),
            reverse=True,
        )

    @property
    def min_gpus_per_node(self) -> int:
        """Smallest per-node GPU share (bounds the tensor-parallel degree)."""
        counts = self.gpus_per_node
        return counts[-1] if counts else 0

    @property
    def is_single_node(self) -> bool:
        return self.num_nodes <= 1

    @property
    def is_empty(self) -> bool:
        return self.total.is_zero

    def node_ids(self) -> list[int]:
        return sorted(self.shares)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "Placement":
        return Placement({})

    @staticmethod
    def single(node_id: int, share: ResourceVector) -> "Placement":
        return Placement({node_id: share})

    @staticmethod
    def packed(
        cluster: ClusterSpec,
        gpus: int,
        cpus_per_gpu: float = 1.0,
        host_mem_per_gpu: float = 0.0,
        start_node: int = 0,
    ) -> "Placement":
        """Canonical densely-packed placement of ``gpus`` GPUs.

        Fills whole nodes first, in node-id order starting at ``start_node``.
        Used to build resource-sensitivity curves, which evaluate hypothetical
        allocations before any concrete node search has run.
        """
        if gpus < 0:
            raise PlacementError("cannot place a negative GPU count")
        if gpus > cluster.total_gpus:
            raise PlacementError(
                f"requested {gpus} GPUs exceeds cluster capacity "
                f"{cluster.total_gpus}"
            )
        shares: dict[int, ResourceVector] = {}
        remaining = gpus
        node_id = start_node
        while remaining > 0:
            take = min(remaining, cluster.node.num_gpus)
            shares[node_id] = ResourceVector(
                gpus=take,
                cpus=int(round(take * cpus_per_gpu)),
                host_mem=take * host_mem_per_gpu,
            )
            remaining -= take
            node_id += 1
        return Placement(shares)

    def with_share(self, node_id: int, share: ResourceVector) -> "Placement":
        """A copy of this placement with the share on ``node_id`` replaced."""
        shares = dict(self.shares)
        if share.is_zero:
            shares.pop(node_id, None)
        else:
            shares[node_id] = share
        return Placement(shares)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"n{node_id}:{share.gpus}g/{share.cpus}c"
            for node_id, share in sorted(self.shares.items())
        )
        return f"Placement({parts})"
