"""The unified plan-evaluation engine (``GetBestPlan`` as a service).

Every consumer of "best execution plan + predicted throughput for (model,
batch, shape)" — the plan selectors, the Rubick policy and the baselines,
and the simulator's intrinsic-work accounting — routes through one
:class:`PlanEvalEngine`.  The engine owns:

* **plan enumeration and filtering**, memoized per shape class — (model,
  batch, restriction, GPUs, nodes, densest-node share): neither reads the
  CPU count, so CPU-slope probes reuse them;
* **batched scoring** via a pluggable backend (`repro.planeval.scoring`) —
  one fused pass over the perf-model components per shape class, after
  which a new CPU count re-scores only the ZeRO-Offload plans;
* **memoization with versioned per-model invalidation**: every cached best
  config, shape class, and sensitivity curve is tied to the scoring
  backend's per-model version (the :class:`~repro.scheduler.interfaces.
  PerfModelStore` refit generation).  An online refit of one model type
  drops exactly that model's entries; every other model keeps its warm
  caches.  This is the only cache in the scheduler that knows about refit
  generations: everything a policy derives from a fitted model is read
  through it.  A :class:`PlanMemo` holds these entries, private to one
  engine or shared between the engines of several simulations of one
  testbed (DESIGN.md 56);
* **cache statistics** — hit/miss/eval/invalidation counters via
  :meth:`PlanEvalEngine.stats`, surfaced by ``repro simulate
  --planeval-stats`` and ``benchmarks/bench_planeval_cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
    (``best``, ``best_of``, each request of ``best_of_many``, each CPU
    count of ``best_row``, ``curve``, ``curve_of``); ``evals`` counts
    individual plans scored through the backend (a CPU-split scorer
    re-scores only the offload plans); and
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


class PlanRequest(NamedTuple):
    """One best-plan question: a model, batch and shape under a plan
    restriction (:meth:`PlanEvalEngine.best_of`, ``best_of_many`` and
    ``best_row``).

    ``key`` names the restriction in the memo and ``candidates`` yields its
    plans: a sequence, or a zero-argument callable run only on a memo
    miss.  The candidates may read the shape's GPUs, nodes and
    densest-node share but not its CPU count, so one list serves a whole
    shape class.  Leaving both ``None`` asks for the model's full
    enumeration, as :meth:`PlanEvalEngine.best` does.  The filters drop
    plans over the GPU memory budget or the densest node's host memory.
    A named tuple, in :meth:`PlanEvalEngine._shape_class`'s parameter
    order: selectors build one per lookup.
    """

    model: ModelSpec
    global_batch: int
    shape: ResourceShape
    candidates: object | None = None
    key: tuple | None = None
    check_gpu_mem: bool = False
    check_host_mem: bool = True


#: Distinct-from-None miss marker (None itself memoizes "no feasible plan").
_UNSET = object()


class _ShapeClass:
    """One shape class's candidates and best configs, per CPU count.

    A shape class is a shape with its CPU count left out: the candidate
    plans and the host-memory filter read only the GPUs, the nodes and the
    densest-node share.  Most classes are only ever asked at one CPU
    count, so the first answer is stored inline, and the scorer's
    CPU-split table is built only when a second count is asked
    (DESIGN.md 56).
    """

    __slots__ = ("plans", "fixed", "table", "cpus", "best", "more")

    def __init__(self, plans: tuple[ExecutionPlan, ...], fixed: bool) -> None:
        self.plans = plans
        #: The best config cannot move with the CPU count.
        self.fixed = fixed
        #: The scorer's CPU-split table, once a second count is asked.
        self.table = None
        #: The first CPU count answered (None until then) and its answer.
        self.cpus: int | None = None
        self.best: BestConfig | None = None
        #: CPU count -> best config, for every later count.
        self.more: dict[int, BestConfig | None] | None = None


class _ModelSlab:
    """All memoized results for one model type, pinned to a backend version."""

    __slots__ = ("version", "token", "classes", "curves")

    def __init__(self, version: int, token: object) -> None:
        self.version = version
        #: The scored object (a fitted model) the slab is keyed on; holding
        #: it keeps its ``id`` from being reused (DESIGN.md 56).
        self.token = token
        self.classes: dict[tuple, _ShapeClass] = {}
        self.curves: dict[tuple, GpuCurve] = {}


class PlanMemo:
    """An engine's plan-evaluation memos, which several engines may share.

    Every engine takes its per-model slabs and its plan enumerations from
    a memo: a private one unless it is given one.  The engines of one
    process's runs that score with the same fitted models share a memo,
    and reuse each other's best configs, shape classes and curves
    (DESIGN.md 56).  A slab is keyed on the model, the identity of the
    fitted model its scorer reads (``scorer.token``) and that model's
    refit generation: a refit moves an engine to a fresh slab and leaves
    the other runs' slabs be.  Every memo entry is a pure function of its
    key and of the cluster spec, so one memo must only serve engines of
    one cluster spec.
    """

    def __init__(self) -> None:
        self.enums: dict[tuple, tuple[ExecutionPlan, ...]] = {}
        self._slabs: dict[tuple, _ModelSlab] = {}

    def slab(self, model_name: str, token: object, version: int) -> _ModelSlab:
        key = (model_name, id(token), version)
        slab = self._slabs.get(key)
        if slab is None:
            slab = self._slabs[key] = _ModelSlab(version, token)
        return slab


class PlanEvalEngine:
    """Memoized, versioned plan enumeration + scoring service.

    Args:
        cluster_spec: Hardware shape (node size bounds TP; node memory is the
            enumeration's OOM filter; total GPUs is the default curve limit).
        perf_store: Fitted performance models; shorthand for
            ``scorer=PerfStoreScorer(perf_store)``.
        scorer: Explicit scoring backend (see `repro.planeval.scoring`);
            overrides ``perf_store``.
        memo: A :class:`PlanMemo` to share memoized results with other
            engines of the same cluster spec; ``None`` keeps them private.

    Plans are enumerated from :func:`default_plan_space` of the model, and
    curves pack :data:`DEFAULT_CPUS_PER_GPU` CPUs per GPU.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        *,
        perf_store=None,
        scorer=None,
        memo: PlanMemo | None = None,
    ) -> None:
        if scorer is None:
            if perf_store is None:
                raise ValueError("PlanEvalEngine needs a perf_store or a scorer")
            scorer = PerfStoreScorer(perf_store)
        self.scorer = scorer
        self._split = getattr(scorer, "split", None)
        self.perf_store = perf_store
        self.cluster_spec = cluster_spec
        self._memo = PlanMemo() if memo is None else memo
        #: model name -> the memo's slab of its current version.
        self._slabs: dict[str, _ModelSlab] = {}
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
        if slab is None or slab.version != version:
            if slab is not None:
                self._invalidations += 1
            slab = self._slabs[model.name] = self._memo.slab(
                model.name, self.scorer.token(model), version
            )
        return slab

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
        # this key nor the per-model slab keys carry it.  Enumeration is
        # structural (model/batch/space/memory), so it survives refits.
        key = (model.name, global_batch, gpus, min_gpus_per_node)
        enums = self._memo.enums
        plans = enums.get(key)
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
            enums[key] = plans
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
        kept = tuple(
            p
            for p in plans
            if self._host_mem_ok(model, p, global_batch, densest)
        )
        # Share the input tuple when nothing was dropped.
        return plans if len(kept) == len(plans) else kept

    def _shape_class(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        candidates,
        key: tuple | None,
        check_gpu_mem: bool,
        check_host_mem: bool,
    ) -> _ShapeClass:
        """The memoized shape class of ``shape`` under one restriction
        (the fields of a :class:`PlanRequest`; ``key=None`` is the full
        enumeration)."""
        classes = self._slab(model).classes
        class_key = (
            global_batch, shape.gpus, shape.num_nodes,
            shape.min_gpus_per_node, key, check_gpu_mem, check_host_mem,
        )
        cls = classes.get(class_key)
        if cls is not None:
            return cls
        if key is None:
            plans = self.plans_for(
                model, global_batch, shape.gpus, shape.min_gpus_per_node
            )
        else:
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
        # A split scorer reads the CPU count for offload plans only.
        fixed = self._split is not None and not any(
            p.uses_offload for p in plans
        )
        cls = classes[class_key] = _ShapeClass(plans, fixed)
        return cls

    def _best_at(
        self,
        cls: _ShapeClass,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        cpus: int,
    ) -> BestConfig | None:
        """Best config of ``shape``'s class at ``cpus`` CPUs (memoized)."""
        if cls.cpus == cpus or (cls.fixed and cls.cpus is not None):
            self._hits += 1
            return cls.best
        more = cls.more
        if more is not None:
            best = more.get(cpus, _UNSET)
            if best is not _UNSET:
                self._hits += 1
                return best
        self._misses += 1
        plans = cls.plans
        if cls.cpus is None or self._split is None or not plans:
            # One plain pass: cheaper than a split table while the class
            # has been asked at one CPU count only.
            if cpus != shape.cpus:
                shape = shape.with_cpus(cpus)
            scores = self.scorer.score(model, plans, shape, global_batch)
            self._evals += len(plans)
            best = self._argmax(plans, scores)
        else:
            table = cls.table
            if table is None:
                table = cls.table = self._split(
                    model, plans, shape, global_batch
                )
                self._evals += len(plans) - len(table.offload)
            hit = table.best_at(cpus)
            self._evals += len(table.offload)
            best = (
                None if hit is None
                else BestConfig(plan=plans[hit[0]], throughput=hit[1])
            )
        if cls.cpus is None:
            cls.cpus, cls.best = cpus, best
        elif more is None:
            cls.more = {cpus: best}
        else:
            more[cpus] = best
        return best

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
        if shape.gpus <= 0:
            return None
        cls = self._shape_class(
            model, global_batch, shape, None, None, False, check_host_mem
        )
        return self._best_at(cls, model, global_batch, shape, shape.cpus)

    def best_of(self, req: PlanRequest) -> BestConfig | None:
        """Best plan for one request (the restricted selectors' lookup)."""
        shape = req.shape
        cls = self._shape_class(*req)
        return self._best_at(cls, req.model, req.global_batch, shape, shape.cpus)

    def best_row(self, req: PlanRequest, count: int) -> list[BestConfig | None]:
        """``req``'s best config at ``count`` successive CPU counts.

        Entry ``i`` equals the :meth:`best_of` answer at
        ``req.shape.with_cpus(req.shape.cpus + i)``, read straight from
        the shape class: a CPU-slope scan costs one class lookup and the
        offload plans' re-scores, not two memo probes per CPU.
        """
        shape = req.shape
        cls = self._shape_class(*req)
        return [
            self._best_at(cls, req.model, req.global_batch, shape, cpus)
            for cpus in range(shape.cpus, shape.cpus + count)
        ]

    def best_of_many(
        self, requests: Sequence[PlanRequest | None]
    ) -> list[BestConfig | None]:
        """:meth:`best_of` of each request, in one call (``None`` where
        the request is ``None``: a shape its restriction cannot host).

        A duplicate request (jobs sharing a model, batch and shape class,
        common in a large pending queue) is a shape-class memo hit.
        """
        return [None if req is None else self.best_of(req) for req in requests]

    def score_all(
        self,
        model: ModelSpec,
        global_batch: int,
        shape: ResourceShape,
        *,
        check_host_mem: bool = True,
    ) -> tuple[tuple[ExecutionPlan, float], ...]:
        """Every feasible plan with its score, in enumeration order
        (not memoized)."""
        if shape.gpus <= 0:
            return ()
        plans = self.plans_for(
            model, global_batch, shape.gpus, shape.min_gpus_per_node
        )
        if check_host_mem:
            plans = self._host_filtered(model, plans, global_batch, shape)
        scores = self.scorer.score(model, plans, shape, global_batch)
        self._evals += len(plans)
        return tuple(
            (plan, thr)
            for plan, thr in zip(plans, scores)
            if thr is not None
        )

    # ------------------------------------------------------------------
    # Sensitivity curves
    # ------------------------------------------------------------------
    def _packed_shape(self, gpus: int) -> ResourceShape:
        return ResourceShape.packed(
            gpus,
            node_size=self.cluster_spec.node.num_gpus,
            cpus=min(gpus * DEFAULT_CPUS_PER_GPU, self.cpu_cap(gpus)),
        )

    def _curve(
        self,
        model: ModelSpec,
        key: tuple,
        limit: int,
        point_fn: Callable[[ResourceShape], BestConfig | None],
    ) -> GpuCurve:
        """The memoized envelope of ``point_fn`` at 1..``limit`` packed GPUs."""
        curves = self._slab(model).curves
        curve = curves.get(key)
        if curve is not None:
            self._hits += 1
            return curve
        self._misses += 1
        raw: list[BestConfig | None] = [None]
        raw += [point_fn(self._packed_shape(g)) for g in range(1, limit + 1)]
        curve = curves[key] = build_envelope(limit, raw)
        return curve

    def curve(
        self,
        model: ModelSpec,
        global_batch: int,
        *,
        max_gpus: int | None = None,
    ) -> GpuCurve:
        """Full-space GPU sensitivity curve (upper envelope, Fig. 6)."""
        limit = max_gpus if max_gpus is not None else self.cluster_spec.total_gpus
        return self._curve(
            model, ("full", global_batch, limit), limit,
            lambda shape: self.best(model, global_batch, shape),
        )

    def curve_of(
        self,
        model: ModelSpec,
        global_batch: int,
        key: tuple,
        point_fn: Callable[[ResourceShape], BestConfig | None],
    ) -> GpuCurve:
        """Sensitivity curve under a plan restriction (variant selectors).

        ``key`` names the restriction (it scopes the memo entry);
        ``point_fn`` maps a packed shape to the restricted best config and
        is only called on a memo miss.  The curve lives in the model's
        slab, so a refit drops it as it drops :meth:`curve`'s.
        """
        return self._curve(
            model, ("restricted", key, global_batch),
            self.cluster_spec.total_gpus, point_fn,
        )
