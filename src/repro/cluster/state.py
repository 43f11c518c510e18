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

Cluster-level aggregates (``free``, ``total``, ``gpu_utilization``,
``placement_of``, ``all_job_ids``, ``release``) are served from an
array-backed :class:`~repro.cluster.soa.ClusterIndex` mirror kept in exact
lockstep with the object graph: every :class:`Node` mutation fires a
listener hook the owning cluster wires at construction.  Nodes remain the
source of truth — the mirror only changes the *cost* of the queries
(O(num_nodes) scans become O(1)–O(job footprint)), never their results
(integer aggregates are bit-identical; see ``soa.py`` for the float
host-memory tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.soa import ClusterIndex
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

    #: Mutation listener (the owning cluster's SoA mirror).  Excluded from
    #: __init__/__repr__/__eq__: standalone nodes work without one, and
    #: wiring identity must not affect node equality.
    _listener: ClusterIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        gpus = cpus = 0
        host_mem = 0.0
        for share in self.allocations.values():
            gpus += share.gpus
            cpus += share.cpus
            host_mem += share.host_mem
        return ResourceVector(gpus, cpus, host_mem)

    @property
    def free(self) -> ResourceVector:
        return (self.capacity - self.used).clamp_floor()

    def _notify(
        self,
        job_id: str,
        old: ResourceVector | None,
        new: ResourceVector | None,
    ) -> None:
        listener = self._listener
        if listener is not None:
            listener.share_changed(self.node_id, job_id, old, new)

    def allocate(self, job_id: str, share: ResourceVector) -> None:
        """Add (or extend) a job's share on this node; raises if over capacity."""
        share.require_non_negative()
        old = self.allocations.get(job_id)
        current = old if old is not None else ResourceVector.zero()
        proposed = current + share
        if not (self.used - current + proposed).fits_within(self.capacity):
            raise PlacementError(
                f"node {self.node_id}: allocating {share} for {job_id} "
                f"exceeds capacity (used={self.used}, cap={self.capacity})"
            )
        self.allocations[job_id] = proposed
        self._notify(job_id, old, proposed)

    def set_allocation(self, job_id: str, share: ResourceVector) -> None:
        """Replace a job's share on this node (removing it if zero)."""
        old = self.allocations.pop(job_id, None)
        current = old if old is not None else ResourceVector.zero()
        if share.is_zero:
            if old is not None:
                self._notify(job_id, old, None)
            return
        if not (self.used + share).fits_within(self.capacity):
            self.allocations[job_id] = current  # roll back
            if old is None:
                # Faithful to the pre-mirror behaviour: the rollback path
                # materialises a zero share for a previously-absent job.
                self._notify(job_id, None, current)
            raise PlacementError(
                f"node {self.node_id}: setting {share} for {job_id} "
                f"exceeds capacity"
            )
        self.allocations[job_id] = share
        self._notify(job_id, old, share)

    def release(self, job_id: str) -> ResourceVector:
        """Remove a job from this node, returning what it held."""
        old = self.allocations.pop(job_id, None)
        if old is None:
            return ResourceVector.zero()
        self._notify(job_id, old, None)
        return old


class Cluster:
    """Live cluster: topology spec plus per-node allocation state."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.nodes: list[Node] = [
            Node(node_id=i, spec=spec.node) for i in range(spec.num_nodes)
        ]
        self._index = ClusterIndex(spec.node, spec.num_nodes)
        for node in self.nodes:
            node._listener = self._index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def index(self) -> ClusterIndex:
        """The array-backed mirror (read-only for callers)."""
        return self._index

    @property
    def num_up_nodes(self) -> int:
        return self._index.up_count

    @property
    def total(self) -> ResourceVector:
        """Live capacity: up nodes only (the cluster is homogeneous).

        Computed as ``num_up × node shape`` rather than a per-node float
        sum so an all-up cluster matches the spec-derived totals exactly.
        """
        up = self.num_up_nodes
        return ResourceVector(
            gpus=up * self.spec.node.num_gpus,
            cpus=up * self.spec.node.num_cpus,
            host_mem=up * self.spec.node.host_mem,
        )

    @property
    def free(self) -> ResourceVector:
        gpus, cpus, host_mem = self._index.free_totals()
        return ResourceVector(gpus, cpus, max(host_mem, 0.0))

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def placement_of(self, job_id: str) -> Placement:
        """The placement a job currently holds (possibly empty)."""
        on_nodes = self._index.nodes_of(job_id)
        if not on_nodes:
            return Placement({})
        return Placement(
            {node_id: on_nodes[node_id] for node_id in sorted(on_nodes)}
        )

    def jobs_on(self, node_id: int) -> list[str]:
        return sorted(self.nodes[node_id].allocations)

    def all_job_ids(self) -> set[str]:
        return set(self._index.jobs)

    def gpu_utilization(self) -> float:
        """Fraction of *live* cluster GPUs currently allocated."""
        total = self.num_up_nodes * self.spec.node.num_gpus
        used = self._index.used_gpus_total
        return used / total if total else 0.0

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
        self._index.node_down(node_id)
        return victims

    def add_node(self, node_id: int | None = None) -> int:
        """Bring a node up: recover a down node, or commission a new one.

        With ``node_id`` the (down) node recovers under its old id; with
        ``None`` a fresh node of the cluster's homogeneous shape is
        appended (capacity scale-up) and its new id returned.
        """
        if node_id is None:
            node = Node(node_id=len(self.nodes), spec=self.spec.node)
            node._listener = self._index
            self.nodes.append(node)
            self._index.append_node()
            return node.node_id
        node = self._node_for(node_id, "recover")
        if node.up:
            raise ClusterDynamicsError(
                f"cannot recover node {node_id}: already up"
            )
        node.up = True
        self._index.node_up(node_id)
        return node_id

    def apply(self, job_id: str, placement: Placement) -> None:
        """Set a job's allocation to exactly ``placement`` (atomic)."""
        previous = self.placement_of(job_id)
        self.release(job_id)
        try:
            for node_id, share in placement.shares.items():
                self.nodes[node_id].allocate(job_id, share)
        except PlacementError:
            # Roll back to the previous placement before re-raising so the
            # cluster never ends up in a partially-applied state.
            self.release(job_id)
            for node_id, share in previous.shares.items():
                self.nodes[node_id].allocate(job_id, share)
            raise

    def release(self, job_id: str) -> None:
        on_nodes = self._index.nodes_of(job_id)
        if not on_nodes:
            return  # common case at scale: releasing a job that holds nothing
        for node_id in sorted(on_nodes):
            self.nodes[node_id].release(job_id)
