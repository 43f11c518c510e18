"""Cluster topology specs: node shapes and interconnect bandwidths.

Defaults mirror the paper's evaluation cluster (§7): 8 servers, each with
8 NVIDIA A800-80GB GPUs, 96 vCPUs, 1,600 GB host memory, 400 GB/s NVLink and
100 GB/s inter-node RDMA.  PCIe gen4 x16 (~32 GB/s) connects GPU and host for
ZeRO-Offload traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB, GiB


@dataclass(frozen=True)
class NodeSpec:
    """Hardware shape of one server."""

    num_gpus: int = 8
    num_cpus: int = 96
    #: Host memory in whole bytes, like every resource the scheduler sums.
    host_mem: int = 1600 * 10**9
    gpu_mem: float = 80 * GiB
    #: Memory the runtime (CUDA context, framework, fragmentation slack)
    #: reserves on each GPU before model state is placed.
    gpu_mem_reserved: float = 2 * GiB
    intra_bw: float = 400 * GB  # NVLink, bytes/s
    pcie_bw: float = 32 * GB  # host <-> device, bytes/s

    @property
    def usable_gpu_mem(self) -> float:
        """GPU memory available to model state after the runtime reserve."""
        return self.gpu_mem - self.gpu_mem_reserved



@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` servers."""

    num_nodes: int = 8
    node: NodeSpec = NodeSpec()
    inter_bw: float = 100 * GB  # RDMA, bytes/s

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("cluster must have at least one node")

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node.num_gpus


#: The paper's 64-GPU A800 evaluation cluster.
PAPER_CLUSTER = ClusterSpec()


def single_node_cluster(num_gpus: int = 8) -> ClusterSpec:
    """A one-server cluster, used by the micro-benchmarks (Figs. 6–8)."""
    return ClusterSpec(num_nodes=1, node=NodeSpec(num_gpus=num_gpus))
