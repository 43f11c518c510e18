"""Shared helpers for the baseline schedulers.

Baselines allocate whole requested GPU counts with simple packing; this
module provides the free-resource pool and first-fit-decreasing packing they
share.

The pool seeds per-node free gpus/cpus/host-mem lists from the nodes'
allocations, plus a :class:`FreeGpuIndex` so the packing loop visits nodes
most-free-first (free GPUs descending, node id ascending on ties) without
re-sorting per request.
"""

from __future__ import annotations

from repro.cluster.free_index import FreeGpuIndex
from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.state import Cluster
from repro.planeval import DEFAULT_CPUS_PER_GPU
from repro.plans.memory import host_mem_demand_per_node


class HostDemandMemo:
    """Cross-round memo of :func:`host_mem_demand_per_node`.

    The demand is a pure function of ``(model, batch, plan, gpus-on-node)``,
    but the packing loop re-evaluates it for every candidate node of every
    queued job every round — at datacenter scale that is hundreds of
    thousands of identical analytic evaluations per run.  Policies hold one
    memo instance and hand :meth:`fn` closures to ``allocate_packed``.
    """

    __slots__ = ("_cache",)

    def __init__(self):
        #: ``(model name, batch, plan) -> {gpus_on_node: demand}``
        self._cache: dict[tuple, dict[int, int]] = {}

    def fn(self, model, plan, batch: int):
        """A ``gpus_on_node -> host-mem demand`` callable for one job."""
        key = (model.name, batch, plan)
        per_g = self._cache.get(key)
        if per_g is None:
            per_g = {}
            self._cache[key] = per_g

        def demand(g: int, _per_g=per_g, _model=model, _plan=plan, _batch=batch):
            v = _per_g.get(g)
            if v is None:
                v = host_mem_demand_per_node(_model, _plan, _batch, g)
                _per_g[g] = v
            return v

        return demand


class FreePool:
    """Mutable view of free per-node resources during one scheduling round."""

    def __init__(self, cluster: Cluster, keep_job_ids: set[str]):
        #: Per-node free gpus, cpus and host memory.
        self._fg: list[int] = []
        self._fc: list[int] = []
        self._fm: list[int] = []
        for node in cluster.nodes:
            gpus = cpus = host_mem = 0
            for job_id, share in node.allocations.items():
                if job_id in keep_job_ids:
                    gpus += share.gpus
                    cpus += share.cpus
                    host_mem += share.host_mem
            cap = node.capacity
            self._fg.append(max(cap.gpus - gpus, 0))
            self._fc.append(max(cap.cpus - cpus, 0))
            self._fm.append(cap.host_mem - host_mem)
        self._free_gpus = sum(self._fg)
        self._order = FreeGpuIndex(self._fg, cluster.spec.node.num_gpus)

    @property
    def free_gpus(self) -> int:
        return self._free_gpus

    def free_of(self, node_id: int) -> tuple[int, int]:
        """(free gpus, free cpus) of one node — O(1)."""
        return self._fg[node_id], self._fc[node_id]

    def take_cpus(self, node_id: int, cpus: int) -> None:
        """Consume CPUs on one node without touching its GPU column."""
        self._fc[node_id] -= cpus

    def _move(self, node_id: int, gpus: int, cpus: int, host_mem: int) -> None:
        """Add (positive) or subtract (negative) free resources on a node."""
        if gpus:
            new = self._fg[node_id] + gpus
            self._fg[node_id] = new
            self._free_gpus += gpus
            self._order.update(node_id, new)
        if cpus:
            self._fc[node_id] += cpus
        if host_mem:
            self._fm[node_id] += host_mem

    def release(self, placement: Placement) -> None:
        """Return a placement's resources to the pool (preemption)."""
        for node_id, share in placement.shares.items():
            self._move(node_id, share.gpus, share.cpus, share.host_mem)

    def claim(self, placement: Placement) -> bool:
        """Reserve an exact placement if every node share fits; else no-op."""
        for node_id, share in placement.shares.items():
            if (
                share.gpus > self._fg[node_id]
                or share.cpus > self._fc[node_id]
                or share.host_mem > self._fm[node_id]
            ):
                return False
        for node_id, share in placement.shares.items():
            self._move(node_id, -share.gpus, -share.cpus, -share.host_mem)
        return True

    def allocate_packed(
        self,
        gpus: int,
        *,
        cpus_per_gpu: int = DEFAULT_CPUS_PER_GPU,
        host_mem_per_node=None,
    ) -> Placement | None:
        """First-fit-decreasing gang placement of ``gpus`` GPUs.

        ``host_mem_per_node`` maps a node's GPU share to the host memory to
        reserve there (defaults to none).  Returns ``None`` — with the pool
        untouched — when the request cannot be gang-placed.
        """
        if gpus <= 0:
            return None
        if gpus > self._free_gpus:
            # Sum of per-node takes can never exceed the total free count,
            # so the request is infeasible without walking any node.
            return None
        shares: dict[int, ResourceVector] = {}
        remaining = gpus
        chosen: list[tuple[int, ResourceVector]] = []
        for node_id in self._order.iter_nonempty_desc():
            if remaining <= 0:
                break
            free_g = self._fg[node_id]
            free_c = self._fc[node_id]
            take = min(remaining, free_g)
            if take <= 0:
                continue
            cpus = min(take * cpus_per_gpu, free_c)
            if cpus < take:  # cannot even give 1 CPU per GPU here
                take = min(take, free_c)
                cpus = take
            if take <= 0:
                continue
            host = host_mem_per_node(take) if host_mem_per_node else 0
            if host > self._fm[node_id]:
                continue
            share = ResourceVector(gpus=take, cpus=cpus, host_mem=host)
            chosen.append((node_id, share))
            shares[node_id] = share
            remaining -= take
        if remaining > 0:
            return None
        for node_id, share in chosen:
            self._move(node_id, -share.gpus, -share.cpus, -share.host_mem)
        return Placement(shares)
