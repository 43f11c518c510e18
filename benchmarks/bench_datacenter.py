"""Fleet-scale speed gate: the ``scale_mode`` loop at datacenter size.

Not a paper figure: the paper's cluster has 64 GPUs.  This holds the
simulator's fleet-scale hot loop (DESIGN.md 35-39) to a wall-clock ceiling
per shape: antman's gang-scheduled FIFO, so no per-job plan search inflates
the scheduler term, policy rounds on a 10-minute cadence, a ``flaky``
cluster, Poisson arrivals of 5-min median jobs over 12 h, and bounded
record retention.  Performance models are fitted before the clock starts,
so the ceiling covers ``sim.run`` alone.

Each shape runs once and prints its trace build time, run wall time,
simulated rounds per second, evictions and the process peak RSS.  The
ceilings catch order-of-magnitude regressions only; ``perfbench/``
measures speed.
"""

from __future__ import annotations

import dataclasses
import resource
import time

import pytest
from conftest import BENCH_SEED, run_once

from repro.cluster import PAPER_CLUSTER, resolve_dynamics
from repro.models import all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler import PerfModelStore
from repro.scheduler.registry import make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.units import HOUR, MINUTE
from repro.workloads.arrivals import PoissonArrivals

SPAN = 12 * HOUR


@pytest.mark.parametrize(
    "nodes, jobs, ceiling_seconds",
    [(256, 5_000, 60.0), (1024, 50_000, 120.0)],
    ids=["256n-5k", "1024n-50k"],
)
def test_datacenter(benchmark, nodes, jobs, ceiling_seconds):
    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=nodes)
    testbed = SyntheticTestbed(cluster, seed=BENCH_SEED)
    store = PerfModelStore()
    for model in all_models():
        perf, _ = build_perf_model(
            testbed, model, model.global_batch_size
        )
        store.add(perf)
    build_start = time.perf_counter()
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=jobs,
            span=SPAN,
            seed=BENCH_SEED,
            cluster=cluster,
            duration_median=5 * MINUTE,
            arrival=PoissonArrivals(),
            name="datacenter",
        ),
        testbed,
    )
    trace_build = time.perf_counter() - build_start
    events = resolve_dynamics("flaky").events(
        seed=BENCH_SEED, span=SPAN, cluster=cluster
    )
    sim = Simulator(
        cluster,
        make_policy("antman"),
        config=EngineConfig(
            seed=BENCH_SEED,
            scale_mode=True,
            tick_interval=600.0,
            result_record_limit=1000,
        ),
        testbed=testbed,
        perf_store=store,
    )

    def experiment():
        start = time.perf_counter()
        result = sim.run(trace, cluster_events=events)
        return result, time.perf_counter() - start

    res, run_wall = run_once(benchmark, experiment)
    # ru_maxrss is KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"\ndatacenter antman {nodes} nodes / {jobs} jobs / flaky: "
        f"{trace_build:.2f}s trace build, {run_wall:.2f}s run "
        f"(ceiling {ceiling_seconds:.0f}s), "
        f"{res.sim_rounds / run_wall:.0f} rounds/s, "
        f"{res.evictions} evictions, peak RSS {peak_rss_mb:.0f} MiB"
    )

    assert len(res.records) + res.dropped_records == jobs
    assert run_wall <= ceiling_seconds, (
        f"{nodes}-node / {jobs}-job run took {run_wall:.1f}s "
        f"(> {ceiling_seconds:.0f}s ceiling)"
    )
