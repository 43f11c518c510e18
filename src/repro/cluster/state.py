"""Runtime cluster state: per-node allocation bookkeeping.

The simulator owns one :class:`Cluster`; scheduling policies receive read
access (free-resource queries) and the simulator applies the policies'
placement decisions through :meth:`Cluster.apply` / :meth:`Cluster.release`.

Cluster dynamics (node failure/recovery, capacity scaling) go through
:meth:`Cluster.remove_node` / :meth:`Cluster.add_node`.  A removed node is
marked *down* in place rather than deleted: node ids are positional indices
into ``nodes`` throughout the scheduler layer (``FreePool``, Rubick's
``_RoundState``), so the list only ever grows.  A down node advertises zero
capacity — every free/used/placement query and first-fit packing loop then
naturally excludes it without any scheduler-side special-casing.

The cluster also keeps one job → placement map, written only by
:meth:`Cluster.apply` (including its rollback) and :meth:`Cluster.release`,
the only mutators of node allocations on the simulator's path (a direct
:class:`Node` mutation bypasses it).  It serves ``placement_of``,
``all_job_ids`` and ``release`` without a node scan; ``free``, ``total``
and ``num_up_nodes`` scan the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import ClusterSpec, NodeSpec
from repro.errors import ClusterDynamicsError, PlacementError


@dataclass
class Node:
    """One server with live per-job allocations."""

    node_id: int
    spec: NodeSpec
    allocations: dict[str, ResourceVector] = field(default_factory=dict)
    #: False while the node is failed/decommissioned.  Down nodes advertise
    #: zero capacity, so free-resource queries and packing skip them.
    up: bool = True

    @property
    def capacity(self) -> ResourceVector:
        if not self.up:
            return ResourceVector.zero()
        return ResourceVector(
            gpus=self.spec.num_gpus,
            cpus=self.spec.num_cpus,
            host_mem=self.spec.host_mem,
        )

    @property
    def used(self) -> ResourceVector:
        gpus = cpus = host_mem = 0
        for share in self.allocations.values():
            gpus += share.gpus
            cpus += share.cpus
            host_mem += share.host_mem
        return ResourceVector(gpus, cpus, host_mem)

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.used

    def allocate(self, job_id: str, share: ResourceVector) -> None:
        """Add (or extend) a job's share on this node; raises if over capacity."""
        share.require_non_negative()
        current = self.allocations.get(job_id, ResourceVector.zero())
        proposed = current + share
        if not (self.used - current + proposed).fits_within(self.capacity):
            raise PlacementError(
                f"node {self.node_id}: allocating {share} for {job_id} "
                f"exceeds capacity (used={self.used}, cap={self.capacity})"
            )
        self.allocations[job_id] = proposed

    def release(self, job_id: str) -> ResourceVector:
        """Remove a job from this node, returning what it held."""
        return self.allocations.pop(job_id, ResourceVector.zero())


class Cluster:
    """Live cluster: topology spec plus per-node allocation state."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.nodes: list[Node] = [
            Node(node_id=i, spec=spec.node) for i in range(spec.num_nodes)
        ]
        #: job_id -> the placement it holds, shares in ascending node id.
        #: Insertion order follows the latest ``apply`` of each job.
        self._placements: dict[str, Placement] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_up_nodes(self) -> int:
        return sum(node.up for node in self.nodes)

    @property
    def total(self) -> ResourceVector:
        """Live capacity: up nodes only (the cluster is homogeneous)."""
        up = self.num_up_nodes
        return ResourceVector(
            gpus=up * self.spec.node.num_gpus,
            cpus=up * self.spec.node.num_cpus,
            host_mem=up * self.spec.node.host_mem,
        )

    @property
    def free(self) -> ResourceVector:
        return sum((node.free for node in self.nodes), ResourceVector.zero())

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def placement_of(self, job_id: str) -> Placement:
        """The placement a job currently holds (possibly empty)."""
        placement = self._placements.get(job_id)
        return placement if placement is not None else Placement({})

    def all_job_ids(self) -> set[str]:
        return set(self._placements)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _node_for(self, node_id: int, verb: str) -> Node:
        """The node a dynamics transition names (ids are list positions, so
        a negative id must not index from the end)."""
        if not 0 <= node_id < len(self.nodes):
            raise ClusterDynamicsError(
                f"cannot {verb} node {node_id}: cluster has "
                f"{len(self.nodes)} nodes"
            )
        return self.nodes[node_id]

    def remove_node(self, node_id: int) -> list[str]:
        """Take a node down (failure/decommission), evicting its jobs.

        Every job with a share on the node loses its *entire* placement —
        a distributed job cannot keep running with a missing gang member —
        and the node is marked down in place (ids stay positional).
        Returns the evicted job ids in deterministic (sorted) order; the
        simulator re-queues them through its ``_requeue`` path.
        """
        node = self._node_for(node_id, "remove")
        if not node.up:
            raise ClusterDynamicsError(
                f"cannot remove node {node_id}: already down"
            )
        victims = sorted(node.allocations)
        for job_id in victims:
            self.release(job_id)
        node.up = False
        return victims

    def add_node(self, node_id: int | None = None) -> int:
        """Bring a node up: recover a down node, or commission a new one.

        With ``node_id`` the (down) node recovers under its old id; with
        ``None`` a fresh node of the cluster's homogeneous shape is
        appended (capacity scale-up) and its new id returned.
        """
        if node_id is None:
            node = Node(node_id=len(self.nodes), spec=self.spec.node)
            self.nodes.append(node)
            return node.node_id
        node = self._node_for(node_id, "recover")
        if node.up:
            raise ClusterDynamicsError(
                f"cannot recover node {node_id}: already up"
            )
        node.up = True
        return node_id

    def apply(self, job_id: str, placement: Placement) -> None:
        """Set a job's allocation to exactly ``placement`` (atomic)."""
        for node_id in placement.shares:
            if not 0 <= node_id < len(self.nodes):
                raise PlacementError(
                    f"cannot place {job_id} on node {node_id}: cluster "
                    f"has {len(self.nodes)} nodes"
                )
        previous = self.placement_of(job_id)
        self.release(job_id)
        try:
            for node_id, share in placement.shares.items():
                self.nodes[node_id].allocate(job_id, share)
        except PlacementError:
            # Roll back to the previous placement before re-raising so the
            # cluster never ends up in a partially-applied state.
            for node_id in placement.shares:
                self.nodes[node_id].release(job_id)
            for node_id, share in previous.shares.items():
                self.nodes[node_id].allocate(job_id, share)
            self._record(job_id, previous)
            raise
        self._record(job_id, placement)

    def _record(self, job_id: str, placement: Placement) -> None:
        """Map ``job_id`` to the shares its nodes now hold for it."""
        if placement.shares:
            self._placements[job_id] = Placement({
                node_id: self.nodes[node_id].allocations[job_id]
                for node_id in sorted(placement.shares)
            })

    def release(self, job_id: str) -> None:
        placement = self._placements.pop(job_id, None)
        if placement is None:
            return  # common case at scale: releasing a job that holds nothing
        for node_id in placement.shares:
            self.nodes[node_id].release(job_id)
