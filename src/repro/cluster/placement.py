"""Job placements: which resources a job holds on which nodes.

A placement is the scheduler's output for one job — per-node GPU/CPU/memory
shares — and the performance model's input (it determines whether DP/TP/PP
communication crosses the slow inter-node links).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.resources import ResourceVector


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
            gpus = cpus = host_mem = 0
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
    def is_empty(self) -> bool:
        return self.total.is_zero

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "Placement":
        return Placement({})

    @staticmethod
    def single(node_id: int, share: ResourceVector) -> "Placement":
        return Placement({node_id: share})

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
