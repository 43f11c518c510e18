#!/usr/bin/env python3
"""Quickstart: profile a model, fit Rubick's performance model, predict plans.

Walks the paper's phase ① for GPT-2: collect 7+ profiled samples on the
synthetic testbed, fit the seven parameters, then predict throughput for
several execution plans and print the GPU sensitivity curve (Fig. 6).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    GPT2,
    PAPER_CLUSTER,
    PerfModelStore,
    PlanEvalEngine,
    ResourceShape,
    SyntheticTestbed,
    build_perf_model,
)
from repro.analysis import format_table
from repro.plans import ExecutionPlan, ZeroStage


def main() -> None:
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=42)
    batch = GPT2.global_batch_size

    print(f"Profiling {GPT2.display_name} (global batch {batch}) ...")
    perf, report = build_perf_model(testbed, GPT2, batch)
    print(
        f"  fitted on {report.num_samples} samples "
        f"({report.num_offload_samples} ZeRO-Offload), "
        f"RMSLE {report.rmsle:.3f}, avg in-sample error {report.avg_error:.1%}"
    )

    plans = [
        ExecutionPlan(dp=8, ga_steps=2),
        ExecutionPlan(dp=8, zero=ZeroStage.ZERO_DP, ga_steps=2),
        ExecutionPlan(dp=8, gc=True, ga_steps=2),
        ExecutionPlan(dp=4, zero=ZeroStage.OFFLOAD, ga_steps=4),
        ExecutionPlan(dp=1, pp=8, micro_batches=16),
    ]
    rows = []
    for plan in plans:
        shape = ResourceShape.packed(plan.num_gpus, cpus=32)
        pred = perf.throughput(plan, shape, batch)
        true = testbed.true_throughput(GPT2, plan, shape, batch)
        rows.append(
            (plan.describe(), plan.num_gpus, f"{pred:.1f}", f"{true:.1f}",
             f"{abs(pred - true) / true:.1%}")
        )
    print()
    print(
        format_table(
            ["plan", "GPUs", "predicted ex/s", "true ex/s", "error"],
            rows,
            title="Predicted vs ground-truth throughput",
        )
    )

    store = PerfModelStore()
    store.add(perf)
    engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=store)
    curve = engine.curve(GPT2, batch, max_gpus=8)
    print("\nGPU sensitivity curve (best plan per GPU count):")
    for gpus in range(1, 9):
        cfg = curve.config_at(gpus)
        desc = cfg.plan.describe() if cfg else "-"
        print(f"  {gpus} GPUs: {curve.throughput_at(gpus):7.1f} ex/s  via {desc}")


if __name__ == "__main__":
    main()
