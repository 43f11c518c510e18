"""Cluster substrate: resources, topology, placements, live state, dynamics."""

from repro.cluster.dynamics import (
    DYNAMICS,
    NO_DYNAMICS,
    NO_DYNAMICS_NAME,
    ClusterDynamics,
    ClusterEvent,
    FixedDynamics,
    NoDynamics,
    RandomFailures,
    ScaleSchedule,
    dynamics_from_dict,
    dynamics_to_dict,
    load_cluster_events,
    resolve_dynamics,
    save_cluster_events,
)
from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.state import Cluster, Node
from repro.cluster.topology import (
    PAPER_CLUSTER,
    ClusterSpec,
    NodeSpec,
    single_node_cluster,
)

__all__ = [
    "DYNAMICS",
    "NO_DYNAMICS",
    "NO_DYNAMICS_NAME",
    "PAPER_CLUSTER",
    "Cluster",
    "ClusterDynamics",
    "ClusterEvent",
    "ClusterSpec",
    "FixedDynamics",
    "NoDynamics",
    "Node",
    "NodeSpec",
    "Placement",
    "RandomFailures",
    "ResourceVector",
    "ScaleSchedule",
    "dynamics_from_dict",
    "dynamics_to_dict",
    "load_cluster_events",
    "resolve_dynamics",
    "save_cluster_events",
    "single_node_cluster",
]
