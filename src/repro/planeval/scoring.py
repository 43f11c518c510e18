"""Batched plan scoring backends for the plan-evaluation engine.

The engine is generic over *how* a plan is scored: scheduling policies score
with the fitted performance model (:class:`PerfStoreScorer`), while the
simulator's intrinsic-work accounting scores with the synthetic testbed's
ground truth (:class:`TestbedScorer`).  Both expose the same protocol:

* ``version(model)`` — a monotonically increasing integer per model type;
  the engine moves a model to a fresh memo slab whenever it changes
  (online refits bump it, ground truth never does);
* ``token(model)`` — the object the scores come from (a fitted model, or
  the ground-truth scorer itself), which the engine's memo keys its slabs
  on (DESIGN.md 56);
* ``score(model, plans, shape, global_batch)`` — throughput per plan, with
  ``None`` marking plans the backend deems infeasible.

:class:`PerfStoreScorer` adds an optional ``split``, which returns a
:class:`CpuSplitScores` table for one shape class.

:class:`CpuSplitScores` is the batched fast path behind
:class:`PerfStoreScorer`: one loop-fused pass over the perf-model component
formulas for *all* candidate plans of a shape, instead of a per-plan
``PerfModel.throughput`` call.  It hoists the shape/environment-dependent
terms (bandwidth selection, fitted coefficients) out of the loop, keeps the
CPU count out of everything but the offload plans, and skips the
:class:`~repro.perfmodel.components.IterBreakdown` dataclass allocation and
ideal-:class:`~repro.perfmodel.components.Effects` dispatch entirely.  The
arithmetic mirrors ``compute_breakdown`` operation-for-operation so results
are bit-identical to the unfused path — guarded by
``tests/test_planeval.py::TestFusedScoring``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import OutOfMemoryError
from repro.models.specs import ModelSpec
from repro.perfmodel.components import (
    comm_volume_dp,
    comm_volume_pp,
    comm_volume_tp,
)
from repro.perfmodel.model import PerfModel
from repro.perfmodel.overlap import overlap
from repro.perfmodel.shape import ResourceShape
from repro.plans.plan import ExecutionPlan, ZeroStage
from repro.units import BYTES_FP16

#: Distinct-from-None miss marker (None itself memoizes "infeasible").
_UNCACHED = object()


class CpuSplitScores:
    """One shape class's plan scores, split by whether they read the CPUs.

    A plan's predicted throughput reads ``shape.cpus`` only through the
    ZeRO-Offload optimizer step, so every other plan scores the same at
    any CPU count of a shape class (same GPUs, nodes and densest-node
    share).  The constructor scores those plans once and keeps, per
    offload plan, the CPU-independent terms of its time; :meth:`best_at`
    and :meth:`throughputs` then evaluate only the offload plans at a
    given CPU count.  The arithmetic mirrors ``compute_breakdown``
    operation for operation, so every score is bit-identical to
    ``perf.throughput(plan, shape.with_cpus(cpus), global_batch)``.
    """

    __slots__ = (
        "fixed", "fixed_best", "offload", "global_batch", "k_const",
        "k_swap", "opt_off_work",
    )

    def __init__(
        self,
        perf: PerfModel,
        plans: Sequence[ExecutionPlan],
        shape: ResourceShape,
        global_batch: int,
    ) -> None:
        model = perf.model
        env = perf.env
        params = perf.params
        t_fwd_ref = perf.t_fwd_ref

        # Hoisted fitted coefficients and shape-dependent environment terms.
        k_bwd = params.k_bwd
        k_sync = params.k_sync
        k_opt = params.k_opt
        k_off = params.k_off
        k_const = params.k_const
        b_dp = env.inter_bw if shape.spans_nodes else env.intra_bw
        b_pp = b_dp
        b_tp = env.intra_bw  # TP stays intra-node by construction
        b_pcie = env.pcie_bw
        param_count = model.param_count
        offload_bytes = 2.0 * BYTES_FP16 * param_count

        #: Throughput per plan; ``None`` in the slots of offload plans.
        fixed: list[float | None] = []
        #: ``(index, throughput)`` of the first best non-offload plan.
        fixed_best: tuple[int, float] | None = None
        #: ``(index, dp, t_cc, first overlap term, t_off / 2)`` per
        #: offload plan, in plan order.
        offload: list[tuple[int, int, float, float, float]] = []
        for i, plan in enumerate(plans):
            mbs = plan.micro_batch_size(global_batch)
            t_pass_fwd = t_fwd_ref * mbs / plan.tp
            t_pass_bwd = k_bwd * t_pass_fwd
            if plan.gc:
                t_pass_bwd += t_pass_fwd

            t_comm_dp = comm_volume_dp(model, plan) / b_dp
            t_comm_tp = comm_volume_tp(model, plan, global_batch) / b_tp
            t_comm_pp = comm_volume_pp(model, plan, global_batch) / b_pp

            if plan.pp > 1:
                # 1F1B pipeline: (m + p - 1) sequential micro-slots per phase.
                slots = (plan.micro_batches + plan.pp - 1) * 1.0
                t_fwd_total = (t_pass_fwd / plan.pp) * slots
                t_bwd_total = (t_pass_bwd / plan.pp) * slots
                t_cc = (
                    t_fwd_total
                    + overlap(k_sync, t_bwd_total, t_comm_dp)
                    + t_comm_tp
                    + t_comm_pp
                )
            else:
                a = plan.ga_steps
                if plan.uses_offload:
                    # Gradient sync participates in T_oo instead.
                    t_cc = a * t_pass_fwd + a * t_pass_bwd + t_comm_tp
                else:
                    t_cc = (
                        a * t_pass_fwd
                        + (a - 1) * t_pass_bwd
                        + overlap(k_sync, t_pass_bwd, t_comm_dp)
                        + t_comm_tp
                    )

            if plan.uses_offload:
                half_off = ((offload_bytes / plan.dp) / b_pcie) / 2.0
                offload.append((
                    i, plan.dp, t_cc,
                    overlap(k_off, t_comm_dp, half_off), half_off,
                ))
                fixed.append(None)
                continue
            if plan.zero == ZeroStage.ZERO_DP:
                t_opt = k_opt * param_count / plan.dp
            else:
                t_opt = k_opt * param_count / (plan.tp * plan.pp)
            thr = global_batch / (t_cc + t_opt + k_const)
            fixed.append(thr)
            if fixed_best is None or thr > fixed_best[1]:
                fixed_best = (i, thr)

        self.fixed = fixed
        self.fixed_best = fixed_best
        self.offload = offload
        self.global_batch = global_batch
        self.k_const = k_const
        self.k_swap = params.k_swap
        self.opt_off_work = params.k_opt_off * param_count

    def _offload_at(self, cpus: int):
        """``(index, throughput)`` of each offload plan at ``cpus`` CPUs."""
        global_batch = self.global_batch
        k_const = self.k_const
        k_swap = self.k_swap
        work = self.opt_off_work
        for i, dp, t_cc, oo_comm, half_off in self.offload:
            cpus_per_rank = max(cpus / dp, 0.5)
            t_opt = work / (dp * cpus_per_rank)
            t_oo = oo_comm + overlap(k_swap, t_opt, half_off)
            yield i, global_batch / (t_cc + t_oo + k_const)

    def throughputs(self, cpus: int) -> list[float]:
        """Every plan's throughput at ``cpus`` CPUs, in plan order."""
        out = list(self.fixed)
        for i, thr in self._offload_at(cpus):
            out[i] = thr
        return out

    def best_at(self, cpus: int) -> tuple[int, float] | None:
        """``(index, throughput)`` of the best plan at ``cpus`` CPUs.

        The first of equal maxima wins, as in a scan in plan order.
        """
        best = self.fixed_best
        for i, thr in self._offload_at(cpus):
            if (
                best is None
                or thr > best[1]
                or (thr == best[1] and i < best[0])
            ):
                best = (i, thr)
        return best


def fused_throughputs(
    perf: PerfModel,
    plans: Sequence[ExecutionPlan],
    shape: ResourceShape,
    global_batch: int,
) -> list[float]:
    """Predicted samples/s for every plan, in one fused pass.

    Numerically identical to ``[perf.throughput(p, shape, global_batch) for p
    in plans]`` (same operations in the same order), but evaluated with the
    per-shape terms hoisted and without per-plan breakdown objects.
    """
    return CpuSplitScores(perf, plans, shape, global_batch).throughputs(
        shape.cpus
    )


class PerfStoreScorer:
    """Scores plans with the fitted performance models of a store.

    The store is duck-typed (``get``/``model_version``) to keep this package
    free of scheduler imports; in practice it is a
    :class:`repro.scheduler.interfaces.PerfModelStore`.
    """

    def __init__(self, perf_store) -> None:
        self.perf_store = perf_store

    def version(self, model: ModelSpec) -> int:
        return self.perf_store.model_version(model.name)

    def token(self, model: ModelSpec) -> PerfModel | None:
        """The fitted model the current version scores with (or None)."""
        if not self.perf_store.has(model):
            return None
        return self.perf_store.get(model)

    def split(
        self,
        model: ModelSpec,
        plans: Sequence[ExecutionPlan],
        shape: ResourceShape,
        global_batch: int,
    ) -> CpuSplitScores:
        """One shape class's scores, re-evaluated per CPU count on demand."""
        return CpuSplitScores(
            self.perf_store.get(model), plans, shape, global_batch
        )

    def score(
        self,
        model: ModelSpec,
        plans: Sequence[ExecutionPlan],
        shape: ResourceShape,
        global_batch: int,
    ) -> list[float | None]:
        if not plans:
            return []
        perf = self.perf_store.get(model)
        return fused_throughputs(perf, plans, shape, global_batch)


class TestbedScorer:
    """Scores plans with the synthetic testbed's ground truth.

    Used by the simulator for intrinsic-work accounting (paper §7.3: a job's
    total samples derive from the *best feasible* plan at its requested GPU
    count).  Ground truth never changes, so ``version`` is constant and the
    engine's memoized results live for the whole simulation.

    On top of the engine-level memoization this scorer keeps its own
    ``true_throughput`` memo keyed on ``(model, plan, shape, global_batch)``:
    the simulator re-scores every job's *current* configuration on each
    scheduling round (ragged placements the engine's packed-shape memo never
    sees), and in steady state those queries repeat verbatim.  The memo is
    sound because :meth:`SyntheticTestbed.true_throughput` is a pure,
    noise-free function of its key — measurement noise exists only on the
    separate ``measure()`` path, which is never cached here.  Infeasible
    configurations are memoized too (as ``None``) so repeated OOM probes cost
    one dict lookup.
    """

    __test__ = False  # "Test..." name; keep pytest collection away

    def __init__(self, testbed) -> None:
        self.testbed = testbed
        self._thr_memo: dict[tuple, float | None] = {}

    def version(self, model: ModelSpec) -> int:
        return 0

    def token(self, model: ModelSpec) -> "TestbedScorer":
        """Ground truth never refits: the scorer itself keys shared slabs."""
        return self

    def true_throughput(
        self,
        model: ModelSpec,
        plan: ExecutionPlan,
        shape: ResourceShape,
        global_batch: int,
    ) -> float:
        """Memoized ground-truth samples/s; raises OOM when infeasible."""
        key = (model.name, plan, shape, global_batch)
        thr = self._thr_memo.get(key, _UNCACHED)
        if thr is _UNCACHED:
            try:
                thr = self.testbed.true_throughput(
                    model, plan, shape, global_batch
                )
            except OutOfMemoryError:
                self._thr_memo[key] = None
                raise
            self._thr_memo[key] = thr
            return thr
        if thr is None:
            raise OutOfMemoryError(
                f"{model.name} {plan.describe()}: infeasible at {shape} "
                f"(memoized)"
            )
        return thr

    def score(
        self,
        model: ModelSpec,
        plans: Sequence[ExecutionPlan],
        shape: ResourceShape,
        global_batch: int,
    ) -> list[float | None]:
        out: list[float | None] = []
        for plan in plans:
            try:
                out.append(
                    self.true_throughput(model, plan, shape, global_batch)
                )
            except OutOfMemoryError:
                out.append(None)
        return out
