#!/usr/bin/env python3
"""Cluster scheduling: replay a synthetic Philly-like trace under three policies.

Generates a 60-job trace for the paper's 64-GPU cluster and compares Rubick
against Synergy (fixed GPUs, CPU tuning) and Sia (DP-scaling goodput).

Run:  python examples/cluster_scheduling.py
"""

from __future__ import annotations

from repro import (
    EngineConfig,
    PAPER_CLUSTER,
    Simulator,
    SyntheticTestbed,
    WorkloadConfig,
    generate_trace,
    rubick,
)
from repro.analysis import format_table
from repro.scheduler.baselines import SiaPolicy, SynergyPolicy

SEED = 7


def main() -> None:
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=SEED)
    trace = generate_trace(
        WorkloadConfig(num_jobs=60, seed=SEED, span=6 * 3600.0), testbed
    )
    print(
        f"Trace: {len(trace)} jobs, {trace.total_gpu_hours:.0f} GPU-hours "
        f"over {trace.span / 3600:.1f} h on {PAPER_CLUSTER.total_gpus} GPUs\n"
    )

    rows = []
    for make in (rubick, SiaPolicy, SynergyPolicy):
        policy = make()
        sim = Simulator(
            PAPER_CLUSTER,
            policy,
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=SEED),
            config=EngineConfig(seed=SEED),
        )
        res = sim.run(trace)
        rows.append(
            (
                policy.name,
                f"{res.avg_jct_hours():.2f}",
                f"{res.p99_jct_hours():.2f}",
                f"{res.makespan_hours:.1f}",
                f"{res.avg_reconfig_count:.1f}",
                len(res.sla_violations()),
            )
        )
    print(
        format_table(
            ["scheduler", "avg JCT h", "p99 JCT h", "makespan h",
             "reconfigs/job", "SLA violations"],
            rows,
            title="64-GPU cluster, 60-job synthetic trace",
        )
    )


if __name__ == "__main__":
    main()
