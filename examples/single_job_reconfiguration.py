#!/usr/bin/env python3
"""Fig. 7 scenario: one LLaMA-2-7B job adapting to shrinking resources.

Rubick re-picks the execution plan as the available resources step down from
4 servers × 8 GPUs to a single GPU, then benefits from extra CPUs via
ZeRO-Offload.

Run:  python examples/single_job_reconfiguration.py
"""

from __future__ import annotations

from repro import (
    LLAMA2_7B,
    PAPER_CLUSTER,
    PerfModelStore,
    PlanEvalEngine,
    ResourceShape,
    SyntheticTestbed,
    build_perf_model,
)
from repro.analysis import format_table

STAGES = [
    ("4 x 8-GPU servers", 32, 4, 128),
    ("4 x 4-GPU servers", 16, 4, 64),
    ("single 4-GPU server", 4, 1, 16),
    ("one GPU", 1, 1, 8),
    ("one GPU, doubled CPUs", 1, 1, 16),
]


def main() -> None:
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=42)
    batch = LLAMA2_7B.global_batch_size
    perf, _ = build_perf_model(testbed, LLAMA2_7B, batch)
    store = PerfModelStore()
    store.add(perf)
    engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=store)

    rows = []
    for label, gpus, nodes, cpus in STAGES:
        shape = ResourceShape(
            gpus=gpus, num_nodes=nodes,
            min_gpus_per_node=gpus // nodes, cpus=cpus,
        )
        best = engine.best(LLAMA2_7B, batch, shape)
        if best is None:
            rows.append((label, "(nothing fits)", "-"))
            continue
        true = testbed.true_throughput(LLAMA2_7B, best.plan, shape, batch)
        rows.append((label, best.plan.describe(), f"{true:.2f}"))
    print(
        format_table(
            ["resource stage", "Rubick's plan choice", "throughput ex/s"],
            rows,
            title="LLaMA-2-7B reconfiguration under shrinking resource limits",
        )
    )


if __name__ == "__main__":
    main()
