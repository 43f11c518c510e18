#!/usr/bin/env python3
"""Multi-tenant SLA: guaranteed vs best-effort jobs, Rubick vs AntMan.

Tenant-A owns the whole cluster quota (guaranteed jobs); Tenant-B runs
best-effort jobs on leftovers.  Rubick guarantees *performance* via
reconfiguration; AntMan guarantees *resources*.  The example prints per-class
JCTs and the fraction of guaranteed jobs whose achieved throughput met the
baseline of their requested configuration.

Run:  python examples/multi_tenant_sla.py
"""

from __future__ import annotations

from repro import (
    EngineConfig,
    JobPriority,
    PAPER_CLUSTER,
    Simulator,
    SyntheticTestbed,
    Tenant,
    WorkloadConfig,
    generate_trace,
    rubick,
    to_multi_tenant_trace,
)
from repro.analysis import format_table
from repro.scheduler.baselines import AntManPolicy

SEED = 7


def main() -> None:
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=SEED)
    base = generate_trace(
        WorkloadConfig(num_jobs=60, seed=SEED, span=6 * 3600.0), testbed
    )
    trace = to_multi_tenant_trace(base, seed=SEED)
    tenants = {
        "tenant-a": Tenant(name="tenant-a", gpu_quota=PAPER_CLUSTER.total_gpus),
        "tenant-b": Tenant(name="tenant-b", gpu_quota=0),
    }

    rows = []
    for make in (rubick, AntManPolicy):
        policy = make()
        sim = Simulator(
            PAPER_CLUSTER,
            policy,
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=SEED),
            config=EngineConfig(seed=SEED),
        )
        res = sim.run(trace, tenants=tenants)
        guar = res.by_priority(JobPriority.GUARANTEED)
        be = res.by_priority(JobPriority.BEST_EFFORT)
        met = sum(1 for r in guar if r.sla_ratio >= 0.95)
        rows.append(
            (
                policy.name,
                f"{res.avg_jct_hours():.2f}",
                f"{res.avg_jct_hours(guar):.2f}",
                f"{res.avg_jct_hours(be):.2f}",
                f"{met}/{len(guar)}",
            )
        )
    print(
        format_table(
            ["scheduler", "JCT all h", "JCT guaranteed h",
             "JCT best-effort h", "SLA met (guaranteed)"],
            rows,
            title="Multi-tenant trace: performance vs resource guarantees",
        )
    )


if __name__ == "__main__":
    main()
