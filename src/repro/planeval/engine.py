"""The unified plan-evaluation engine (``GetBestPlan`` as a service).

Every consumer of "best execution plan + predicted throughput for (model,
batch, shape)" — the plan selectors, the Rubick policy and the baselines,
and the simulator's intrinsic-work accounting — routes through one
:class:`PlanEvalEngine`.  The engine owns:

* **plan enumeration**, memoized per (model, batch, shape-class) — the
  enumeration does not depend on CPU counts, so CPU-slope probes reuse it;
* **batched scoring** via a pluggable backend (`repro.planeval.scoring`) —
  one fused pass over the perf-model components per candidate set instead of
  per-plan predict calls;
* **memoization with versioned per-model invalidation**: every cached best
  config, score table, and sensitivity curve is tied to the scoring
  backend's per-model version (the :class:`~repro.scheduler.interfaces.
  PerfModelStore` refit generation).  An online refit of one model type
  drops exactly that model's entries; every other model keeps its warm
  caches;
* **cache statistics** — hit/miss/eval/invalidation counters via
  :meth:`PlanEvalEngine.stats`, surfaced by ``repro simulate
  --planeval-stats`` and ``benchmarks/bench_planeval_cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.topology import ClusterSpec
from repro.models.catalog import is_small_model
from repro.models.specs import ModelSpec
from repro.perfmodel.shape import ResourceShape
from repro.planeval.curve import BestConfig, GpuCurve, build_envelope
from repro.planeval.scoring import PerfStoreScorer
from repro.plans.enumerate import (
    DEFAULT_SPACE,
    DP_FAMILY_SPACE,
    PlanSpace,
    enumerate_plans,
)
from repro.plans.memory import estimate_memory, host_mem_demand_per_node
from repro.plans.plan import ExecutionPlan

#: CPUs per GPU: the packed shapes of sensitivity curves ("other resources
#: fixed"), the policies' proportional CPU shares, and the CPU request of a
#: trace job that names none.
DEFAULT_CPUS_PER_GPU = 4


def default_plan_space(model: ModelSpec) -> PlanSpace:
    """The paper's trace policy: sub-1B models use the DP plan family only."""
    return DP_FAMILY_SPACE if is_small_model(model) else DEFAULT_SPACE


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of the engine's cache counters (monotone since construction).

    ``hits``/``misses`` count memo-table lookups across all entry points
    (``best``, ``best_of``, ``score_all``, ``curve``, ``curve_of``);
    ``evals`` counts individual plans scored through the backend; and
    ``invalidations`` counts per-model cache drops triggered by a backend
    version change (i.e. online refits observed).
    """

    hits: int = 0
    misses: int = 0
    evals: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evals": self.evals,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class PlanRequest:
    """One entry of a batched :meth:`PlanEvalEngine.best_of_many` call.

    ``candidates=None`` asks for the model's full (memoized) enumeration —
    the :meth:`PlanEvalEngine.best` path; an explicit tuple (or a lazy
    callable plus ``key``) follows the restricted :meth:`~PlanEvalEngine.
    best_of` path.  Flags mirror the corresponding single-request entry
    points exactly, so a batched call returns bit-identical configs.
    """

    model: ModelSpec
    global_batch: int
    shape: ResourceShape
    candidates: object | None = None
    key: tuple | None = None
    check_gpu_mem: bool = False
    check_host_mem: bool = True


class _ModelSlab:
    """All memoized results for one model type, pinned to a backend version."""

    __slots__ = ("version", "best", "scores", "curves")

    def __init__(self, version: int) -> None:
        self.version = version
        self.best: dict[tuple, BestConfig | None] = {}
        self.scores: dict[tuple, tuple[tuple[ExecutionPlan, float], ...]] = {}
        self.curves: dict[tuple, GpuCurve] = {}


class PlanEvalEngine:
    """Memoized, versioned plan enumeration + scoring service.

    Args:
        cluster_spec: Hardware shape (node size bounds TP; node memory is the
            enumeration's OOM filter; total GPUs is the default curve limit).
        perf_store: Fitted performance models; shorthand for
            ``scorer=PerfStoreScorer(perf_store)``.
        scorer: Explicit scoring backend (see `repro.planeval.scoring`);
            overrides ``perf_store``.

    Plans are enumerated from :func:`default_plan_space` of the model, and
    curves pack :data:`DEFAULT_CPUS_PER_GPU` CPUs per GPU.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        *,
        perf_store=None,
        scorer=None,
    ) -> None:
        if scorer is None:
            if perf_store is None:
                raise ValueError("PlanEvalEngine needs a perf_store or a scorer")
            scorer = PerfStoreScorer(perf_store)
        self.scorer = scorer
        self.perf_store = perf_store
        self.cluster_spec = cluster_spec
        self._slabs: dict[str, _ModelSlab] = {}
        # Enumeration is structural (model/batch/space/memory), independent
        # of the scoring backend's version — it survives refits.
        self._enums: dict[tuple, tuple[ExecutionPlan, ...]] = {}
        self._hits = 0
        self._misses = 0
        self._evals = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _slab(self, model: ModelSpec) -> _ModelSlab:
        version = self.scorer.version(model)
        slab = self._slabs.get(model.name)
        if slab is None:
            slab = _ModelSlab(version)
            self._slabs[model.name] = slab
        elif slab.version != version:
            slab = _ModelSlab(version)
            self._slabs[model.name] = slab
            self._invalidations += 1
        return slab

    def invalidate(self, model_name: str | None = None) -> None:
        """Manually drop memoized results (one model, or everything)."""
        if model_name is None:
            self._slabs.clear()
            self._enums.clear()
        else:
            self._slabs.pop(model_name, None)
        self._invalidations += 1

    def stats(self) -> EngineStats:
        return EngineStats(
            hits=self._hits,
            misses=self._misses,
            evals=self._evals,
            invalidations=self._invalidations,
        )

    def cpu_cap(self, gpus: int) -> int:
        """CPUs available to a job holding ``gpus`` packed GPUs."""
        node = self.cluster_spec.node
        nodes = -(-gpus // node.num_gpus)
        return nodes * node.num_cpus

    # ------------------------------------------------------------------
    # Enumeration (shape-class level: CPUs do not matter here)
    # ------------------------------------------------------------------
    def plans_for(
        self,
        model: ModelSpec,
        global_batch: int,
        gpus: int,
        min_gpus_per_node: int,
    ) -> tuple[ExecutionPlan, ...]:
        """Memory-filtered candidate plans for one (batch, shape-class)."""
        # The plan space is a function of the model name alone, so neither
        # this key nor the per-model slab keys carry it.
        key = (model.name, global_batch, gpus, min_gpus_per_node)
        plans = self._enums.get(key)
        if plans is None:
            plans = tuple(
                enumerate_plans(
                    model,
                    global_batch,
                    gpus,
                    min_gpus_per_node=min_gpus_per_node,
                    gpu_mem_budget=self.cluster_spec.node.usable_gpu_mem,
                    space=default_plan_space(model),
                )
            )
            self._enums[key] = plans
        return plans

    @staticmethod
    def _densest_node_share(shape: ResourceShape) -> int:
        """GPUs on the densest node of a placement with this shape."""
        return max(
            shape.min_gpus_per_node,
            -(-shape.gpus // max(shape.num_nodes, 1)),
        )

    def _host_mem_ok(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        global_batch: int,
        densest: int,
    ) -> bool:
        return (
            host_mem_demand_per_node(model, plan, global_batch, densest)
            <= self.cluster_spec.node.host_mem
        )

    def _host_filtered(
        self,
        model: ModelSpec,
        plans: tuple[ExecutionPlan, ...],
        global_batch: int,
        shape: ResourceShape,
    ) -> tuple[ExecutionPlan, ...]:
        """Drop plans whose densest-node host share exceeds node memory."""
        densest = self._densest_node_share(shape)
        return tuple(
            p
            for p in plans
            if self._host_mem_ok(model, p, global_batch, densest)
        )

    def _scored_plans(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        check_host_mem: bool,
    ) -> tuple[tuple[ExecutionPlan, ...], list[float | None]]:
        """Enumerate, memory-filter, and batch-score one shape's plans."""
        plans = self.plans_for(
            model, global_batch, shape.gpus, shape.min_gpus_per_node
        )
        if check_host_mem:
            plans = self._host_filtered(model, plans, global_batch, shape)
        scores = self.scorer.score(model, plans, shape, global_batch)
        self._evals += len(plans)
        return plans, scores

    # ------------------------------------------------------------------
    # Scoring entry points
    # ------------------------------------------------------------------
    def _argmax(
        self,
        plans: Sequence[ExecutionPlan],
        scores: Sequence[float | None],
    ) -> BestConfig | None:
        best: BestConfig | None = None
        for plan, thr in zip(plans, scores):
            if thr is None:
                continue
            if best is None or thr > best.throughput:
                best = BestConfig(plan=plan, throughput=thr)
        return best

    def best(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        *,
        check_host_mem: bool = True,
    ) -> BestConfig | None:
        """Highest-scoring feasible plan for an exact shape (``GetBestPlan``)."""
        slab = self._slab(model)
        key = ("best", global_batch, shape, check_host_mem)
        if key in slab.best:
            self._hits += 1
            return slab.best[key]
        self._misses += 1
        best: BestConfig | None = None
        if shape.gpus > 0:
            plans, scores = self._scored_plans(
                model, global_batch, shape, check_host_mem
            )
            best = self._argmax(plans, scores)
        slab.best[key] = best
        return best

    def best_of(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        candidates: Sequence[ExecutionPlan] | Callable[[], Sequence[ExecutionPlan]],
        *,
        key: tuple | None = None,
        check_gpu_mem: bool = False,
        check_host_mem: bool = False,
    ) -> BestConfig | None:
        """Best plan among an explicit candidate list (restricted selectors).

        ``key`` identifies the restriction that produced the candidates
        (e.g. ``("scaled_dp", initial_plan)``); with it, ``candidates`` may
        be a zero-argument callable that is only invoked on a cache miss.
        Without ``key``, the candidate tuple itself keys the memo entry.
        """
        slab = self._slab(model)
        if key is None:
            if callable(candidates):
                raise ValueError("lazy candidates require an explicit key")
            candidates = tuple(candidates)
            memo_key = (
                "of", global_batch, shape, candidates,
                check_gpu_mem, check_host_mem,
            )
        else:
            memo_key = (
                "of", global_batch, shape, key, check_gpu_mem, check_host_mem
            )
        if memo_key in slab.best:
            self._hits += 1
            return slab.best[memo_key]
        self._misses += 1
        plans = tuple(candidates() if callable(candidates) else candidates)
        if check_gpu_mem:
            budget = self.cluster_spec.node.usable_gpu_mem
            plans = tuple(
                p
                for p in plans
                if estimate_memory(model, p, global_batch).gpu_total <= budget
            )
        if check_host_mem:
            plans = self._host_filtered(model, plans, global_batch, shape)
        scores = self.scorer.score(model, plans, shape, global_batch)
        self._evals += len(plans)
        best = self._argmax(plans, scores)
        slab.best[memo_key] = best
        return best

    def best_of_many(
        self, requests: Sequence[PlanRequest]
    ) -> list[BestConfig | None]:
        """Resolve a whole queue's best-plan requests in one batched pass.

        Policies that previously looped ``best()``/``best_of()`` per job
        hand the full request list over instead: duplicate requests (jobs
        sharing a model/batch/shape — the common case in a large pending
        queue) collapse to a single memo probe, and each *distinct* cold
        request runs exactly one fused scoring pass over its candidate set.
        Results are positionally aligned with ``requests`` and bit-identical
        to the equivalent sequence of single calls (same memo, same scoring
        path, same tie-breaking argmax).
        """
        out: list[BestConfig | None] = []
        resolved: dict[tuple, BestConfig | None] = {}
        for req in requests:
            if req.candidates is None:
                dedup = (
                    "best", req.model.name, req.global_batch, req.shape,
                    req.check_host_mem,
                )
            elif req.key is not None:
                dedup = (
                    "of", req.model.name, req.global_batch, req.shape,
                    req.key, req.check_gpu_mem, req.check_host_mem,
                )
            else:
                dedup = None  # anonymous candidate tuples: no cheap identity
            if dedup is not None and dedup in resolved:
                out.append(resolved[dedup])
                continue
            if req.candidates is None:
                best = self.best(
                    req.model, req.global_batch, req.shape,
                    check_host_mem=req.check_host_mem,
                )
            else:
                best = self.best_of(
                    req.model, req.global_batch, req.shape, req.candidates,
                    key=req.key,
                    check_gpu_mem=req.check_gpu_mem,
                    check_host_mem=req.check_host_mem,
                )
            if dedup is not None:
                resolved[dedup] = best
            out.append(best)
        return out

    def score_all(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        *,
        check_host_mem: bool = True,
    ) -> tuple[tuple[ExecutionPlan, float], ...]:
        """Every feasible plan with its score, in enumeration order."""
        slab = self._slab(model)
        key = (global_batch, shape, check_host_mem)
        if key in slab.scores:
            self._hits += 1
            return slab.scores[key]
        self._misses += 1
        scored: tuple[tuple[ExecutionPlan, float], ...] = ()
        if shape.gpus > 0:
            plans, scores = self._scored_plans(
                model, global_batch, shape, check_host_mem
            )
            scored = tuple(
                (plan, thr)
                for plan, thr in zip(plans, scores)
                if thr is not None
            )
        slab.scores[key] = scored
        return scored

    # ------------------------------------------------------------------
    # Sensitivity curves
    # ------------------------------------------------------------------
    def _packed_shape(self, gpus: int) -> ResourceShape:
        return ResourceShape.packed(
            gpus,
            node_size=self.cluster_spec.node.num_gpus,
            cpus=min(gpus * DEFAULT_CPUS_PER_GPU, self.cpu_cap(gpus)),
        )

    def curve(
        self,
        model: ModelSpec,
        global_batch: int,
        *,
        max_gpus: int | None = None,
    ) -> GpuCurve:
        """Full-space GPU sensitivity curve (upper envelope, Fig. 6)."""
        limit = max_gpus if max_gpus is not None else self.cluster_spec.total_gpus
        slab = self._slab(model)
        key = ("full", global_batch, limit)
        if key in slab.curves:
            self._hits += 1
            return slab.curves[key]
        self._misses += 1
        raw: list[BestConfig | None] = [None]
        for g in range(1, limit + 1):
            raw.append(self.best(model, global_batch, self._packed_shape(g)))
        curve = build_envelope(limit, raw)
        # Re-fetch the slab: the per-point best() calls above validated the
        # version; storing into a stale slab would resurrect dropped entries.
        self._slab(model).curves[key] = curve
        return curve

    def curve_of(
        self,
        model: ModelSpec,
        global_batch: int,
        key: tuple,
        point_fn: Callable[[ResourceShape], BestConfig | None],
    ) -> GpuCurve:
        """Sensitivity curve under a plan restriction (variant selectors).

        ``key`` identifies the restriction (it scopes the memo entry);
        ``point_fn`` maps a packed shape to the restricted best config and is
        only called on a cache miss.  Versioned invalidation applies exactly
        as for :meth:`curve` — this is what fixes the stale-curve hazard of
        the selectors' former private caches.
        """
        limit = self.cluster_spec.total_gpus
        slab = self._slab(model)
        memo_key = ("restricted", key, global_batch)
        if memo_key in slab.curves:
            self._hits += 1
            return slab.curves[memo_key]
        self._misses += 1
        raw: list[BestConfig | None] = [None]
        for g in range(1, limit + 1):
            raw.append(point_fn(self._packed_shape(g)))
        curve = build_envelope(limit, raw)
        self._slab(model).curves[memo_key] = curve
        return curve
