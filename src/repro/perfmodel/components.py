"""Iteration-time component formulas (paper §4.1–§4.3).

``compute_breakdown`` assembles the per-iteration time ``T_iter`` from the
paper's components::

    T_iter = T_cc + T_oo + k_const                         (Eq. 1)
    T_cc   = forward/backward compute + DP/TP/PP communication, with the DP
             gradient sync overlapped into the backward pass (k_sync)
    T_oo   = optimizer (+ offload traffic overlapped via k_off / k_swap)

The same code path serves two masters:

* the **fitted performance model** (`repro.perfmodel.model.PerfModel`) calls
  it with ideal :class:`Effects` — exactly the paper's closed form;
* the **synthetic testbed** (`repro.oracle`) calls it with perturbing
  effects (GPU efficiency roll-off, pipeline-bubble jitter, network
  congestion, CPU-scaling roll-off), which is what makes fitting non-trivial
  and yields honest Table-2-style prediction errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.models.specs import ModelSpec
from repro.perfmodel.overlap import overlap
from repro.perfmodel.params import PerfParams
from repro.perfmodel.shape import Interconnect, ResourceShape
from repro.plans.plan import ExecutionPlan, ZeroStage
from repro.units import BYTES_FP16


class Effects:
    """Hook points where the real system deviates from the ideal closed form.

    The base class is the identity (ideal hardware); the synthetic testbed
    subclasses it.  Each hook returns a multiplier (>= 1 slows things down)
    or an adjusted value.
    """

    def fwd_time(self, ideal: float, mbs: int, tp: int) -> float:
        """Forward-pass time adjustment (kernel efficiency vs. micro-batch)."""
        del mbs, tp
        return ideal

    def bubble_factor(self, pp: int, micro_batches: int) -> float:
        """Multiplier on the pipeline (m + p - 1) span (stage imbalance)."""
        del pp, micro_batches
        return 1.0

    def bandwidth(self, nominal: float, num_nodes: int, kind: str) -> float:
        """Achievable bandwidth for a communication kind ('dp'/'tp'/'pp'/'pcie')."""
        del num_nodes, kind
        return nominal

    def cpu_update_time(self, ideal: float, cpus_per_rank: float) -> float:
        """Offloaded optimizer-step adjustment (CPU scaling roll-off)."""
        del cpus_per_rank
        return ideal


IDEAL_EFFECTS = Effects()


@dataclass(frozen=True)
class IterBreakdown:
    """All component times (seconds) for one training iteration."""

    t_fwd: float  # total forward span per iteration
    t_bwd: float  # total backward span per iteration (incl. GC recompute)
    t_comm_dp: float
    t_comm_tp: float
    t_comm_pp: float
    t_opt: float
    t_off: float
    t_cc: float
    t_oo: float
    t_iter: float


# ----------------------------------------------------------------------
# Communication volumes (paper §4.1, bytes per iteration)
# ----------------------------------------------------------------------
def comm_volume_dp(model: ModelSpec, plan: ExecutionPlan) -> float:
    """Ring-AllReduce gradient traffic per GPU: ``P · 2(d-1) / (d·t·p)``.

    Deviation from the paper (recorded in DESIGN.md): the paper applies the
    plain-DP rule unchanged to the ZeRO series, but ZeRO-2 physically pays a
    reduce-scatter for gradients *plus* an all-gather for the updated fp16
    parameters — twice the volume.  Without that term ZeRO-DP spuriously
    dominates 3D parallelism at multi-node scale, contradicting the paper's
    own Fig. 7.  (ZeRO-Offload moves the parameter round-trip over PCIe,
    which ``offload_volume`` accounts for.)
    """
    if plan.dp <= 1:
        return 0.0
    p_bytes = BYTES_FP16 * model.param_count
    volume = p_bytes * 2.0 * (plan.dp - 1) / (plan.dp * plan.tp * plan.pp)
    if plan.zero == ZeroStage.ZERO_DP:
        volume *= 2.0
    return volume


def comm_volume_tp(model: ModelSpec, plan: ExecutionPlan, global_batch: int) -> float:
    """TP activation traffic: ``4·2·(t-1)·b·s·h·l / (d·t)`` elements (fp16).

    Four collectives per layer across forward+backward; not divided by ``p``
    because TP communication across pipeline stages serializes (paper §4.1).
    """
    if plan.tp <= 1:
        return 0.0
    elems = (
        4.0
        * 2.0
        * (plan.tp - 1)
        * global_batch
        * model.seq_len
        * model.hidden_size
        * model.num_layers
        / (plan.dp * plan.tp)
    )
    return BYTES_FP16 * elems


def comm_volume_pp(model: ModelSpec, plan: ExecutionPlan, global_batch: int) -> float:
    """PP stage-boundary traffic: ``2·p·b·s·h / (d·t)`` elements (fp16)."""
    if plan.pp <= 1:
        return 0.0
    elems = (
        2.0
        * plan.pp
        * global_batch
        * model.seq_len
        * model.hidden_size
        / (plan.dp * plan.tp)
    )
    return BYTES_FP16 * elems


def offload_volume(model: ModelSpec, plan: ExecutionPlan) -> float:
    """Per-rank PCIe traffic for ZeRO-Offload: gradients down + params up.

    The paper gives ``P/d`` per direction without mixed precision; with fp16
    transfers both directions that is ``2 · 2P / d`` bytes.
    """
    if not plan.uses_offload:
        return 0.0
    return 2.0 * BYTES_FP16 * model.param_count / plan.dp


# ----------------------------------------------------------------------
# Component times
# ----------------------------------------------------------------------
def forward_pass_time(
    model: ModelSpec,
    plan: ExecutionPlan,
    global_batch: int,
    t_fwd_ref: float,
    effects: Effects = IDEAL_EFFECTS,
) -> float:
    """Forward time for one *pass* (one micro-batch through the whole model).

    ``t_fwd_ref`` is the profiled forward time for one sample through the
    full (unsharded) model on one GPU — the framework-profiler measurement of
    paper §4.1, scaled linearly to the per-GPU batch and tensor shard.
    """
    mbs = plan.micro_batch_size(global_batch)
    ideal = t_fwd_ref * mbs / plan.tp
    return effects.fwd_time(ideal, mbs, plan.tp)


class BreakdownTerms(NamedTuple):
    """The parameter-free prelude of Eq. 1 for one (model, plan, shape, batch).

    Everything here is fixed by the configuration, the environment and the
    effects; only :func:`combine_terms` reads the fitted parameters.  The
    fitter builds the terms once per sample and re-combines them for every
    candidate parameter vector.
    """

    t_pass_fwd: float
    gc: bool
    t_comm_dp: float
    t_comm_tp: float
    t_comm_pp: float
    #: Pipeline depth; ``> 1`` selects the 1F1B branch of ``T_cc``.
    pp: int
    #: Pipeline micro-slots ``(m + p - 1)·bubble`` (1F1B branch only).
    slots: float
    ga_steps: int
    t_fwd_total: float
    offload: bool
    cpus_per_rank: float
    #: Divisor of ``k · P`` in the optimizer step: ``dp · cpus_per_rank``
    #: offloaded, ``dp`` under ZeRO-DP, ``tp · pp`` otherwise.
    opt_divisor: float
    t_off: float
    param_count: float


def breakdown_terms(
    model: ModelSpec,
    plan: ExecutionPlan,
    shape: ResourceShape,
    env: Interconnect,
    t_fwd_ref: float,
    global_batch: int,
    effects: Effects = IDEAL_EFFECTS,
) -> BreakdownTerms:
    """Everything in ``T_iter`` that does not depend on :class:`PerfParams`."""
    t_pass_fwd = forward_pass_time(model, plan, global_batch, t_fwd_ref, effects)

    # --- Communication times ------------------------------------------
    dp_kind_nodes = shape.num_nodes
    b_dp = env.inter_bw if shape.spans_nodes else env.intra_bw
    b_pp = env.inter_bw if shape.spans_nodes else env.intra_bw
    b_tp = env.intra_bw  # TP stays intra-node by construction
    t_comm_dp = comm_volume_dp(model, plan) / effects.bandwidth(
        b_dp, dp_kind_nodes, "dp"
    )
    t_comm_tp = comm_volume_tp(model, plan, global_batch) / effects.bandwidth(
        b_tp, dp_kind_nodes, "tp"
    )
    t_comm_pp = comm_volume_pp(model, plan, global_batch) / effects.bandwidth(
        b_pp, dp_kind_nodes, "pp"
    )

    slots = 0.0
    if plan.pp > 1:
        # 1F1B pipeline: (m + p - 1) sequential micro-slots per phase.
        slots = (plan.micro_batches + plan.pp - 1) * effects.bubble_factor(
            plan.pp, plan.micro_batches
        )
        t_fwd_total = (t_pass_fwd / plan.pp) * slots
    else:
        t_fwd_total = plan.ga_steps * t_pass_fwd

    cpus_per_rank = 0.0
    t_off = 0.0
    if plan.uses_offload:
        cpus_per_rank = max(shape.cpus / plan.dp, 0.5)
        opt_divisor = plan.dp * cpus_per_rank
        b_pcie = effects.bandwidth(env.pcie_bw, shape.num_nodes, "pcie")
        t_off = offload_volume(model, plan) / b_pcie
    elif plan.zero == ZeroStage.ZERO_DP:
        opt_divisor = plan.dp
    else:
        opt_divisor = plan.tp * plan.pp
    return BreakdownTerms(
        t_pass_fwd, plan.gc, t_comm_dp, t_comm_tp, t_comm_pp, plan.pp, slots,
        plan.ga_steps, t_fwd_total, plan.uses_offload, cpus_per_rank,
        opt_divisor, t_off, model.param_count,
    )


def combine_terms(
    terms: BreakdownTerms,
    k_bwd: float,
    k_sync: float,
    k_opt: float,
    k_opt_off: float,
    k_off: float,
    k_swap: float,
    k_const: float,
    effects: Effects = IDEAL_EFFECTS,
) -> tuple[float, float, float, float, float]:
    """The parameter-dependent half of Eq. 1 — the one copy of the formula.

    Takes the seven :class:`PerfParams` in field order and returns
    ``(t_bwd_total, t_opt, t_cc, t_oo, t_iter)``.
    """
    (
        t_pass_fwd, gc, t_comm_dp, t_comm_tp, t_comm_pp, pp, slots, a,
        t_fwd_total, offload, cpus_per_rank, opt_divisor, t_off, param_count,
    ) = terms

    # Backward pass per micro-batch; GC recomputes a forward on top.
    t_pass_bwd = k_bwd * t_pass_fwd
    if gc:
        t_pass_bwd += t_pass_fwd

    # --- Combine compute + communication (T_cc) ------------------------
    if pp > 1:
        t_bwd_total = (t_pass_bwd / pp) * slots
        t_cc = (
            t_fwd_total
            + overlap(k_sync, t_bwd_total, t_comm_dp)
            + t_comm_tp
            + t_comm_pp
        )
    else:
        # GA: a-1 local accumulation passes, last pass overlaps the sync.
        t_bwd_total = a * t_pass_bwd
        if offload:
            # Gradient sync participates in T_oo instead (see below), so the
            # compute part is plain forward+backward.
            t_cc = t_fwd_total + t_bwd_total + t_comm_tp
        else:
            # Paper §4.1 (GA): T_cc = a·T_fwd + (a-1)·T_bwd
            #                        + f_overlap^{k_sync}(T_bwd, T_comm_dp);
            # with a == 1 this reduces to the 3D-parallel combination.
            t_cc = (
                t_fwd_total
                + (a - 1) * t_pass_bwd
                + overlap(k_sync, t_pass_bwd, t_comm_dp)
                + t_comm_tp
            )

    # --- Optimizer and offloading (T_oo) --------------------------------
    if offload:
        t_opt = effects.cpu_update_time(
            k_opt_off * param_count / opt_divisor, cpus_per_rank
        )
        # Fig. 5 shows offload traffic split across two overlap windows:
        # gradients stream out against the DP sync, parameters stream back
        # against the CPU optimizer step.  We split T_off evenly.
        t_oo = overlap(k_off, t_comm_dp, t_off / 2.0) + overlap(
            k_swap, t_opt, t_off / 2.0
        )
    else:
        t_opt = k_opt * param_count / opt_divisor
        t_oo = t_opt

    return t_bwd_total, t_opt, t_cc, t_oo, t_cc + t_oo + k_const


def compute_breakdown(
    model: ModelSpec,
    plan: ExecutionPlan,
    shape: ResourceShape,
    env: Interconnect,
    params: PerfParams,
    t_fwd_ref: float,
    global_batch: int,
    effects: Effects = IDEAL_EFFECTS,
) -> IterBreakdown:
    """Assemble ``T_iter`` for (model, plan, shape) under ``params``.

    The caller guarantees the plan matches the shape (``plan.num_gpus ==
    shape.gpus``); memory feasibility is checked elsewhere (`repro.plans.memory`).
    """
    terms = breakdown_terms(
        model, plan, shape, env, t_fwd_ref, global_batch, effects
    )
    t_bwd, t_opt, t_cc, t_oo, t_iter = combine_terms(
        terms, params.k_bwd, params.k_sync, params.k_opt, params.k_opt_off,
        params.k_off, params.k_swap, params.k_const, effects,
    )
    return IterBreakdown(
        t_fwd=terms.t_fwd_total,
        t_bwd=t_bwd,
        t_comm_dp=terms.t_comm_dp,
        t_comm_tp=terms.t_comm_tp,
        t_comm_pp=terms.t_comm_pp,
        t_opt=t_opt,
        t_off=terms.t_off,
        t_cc=t_cc,
        t_oo=t_oo,
        t_iter=t_iter,
    )
