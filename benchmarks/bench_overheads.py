"""§7.3 "System overheads" — reconfiguration and profiling cost accounting.

The paper reports: average reconfiguration time per job 78 s, total
reconfiguration ≈ 1% of GPU-hours, and ~210 s of profiling per model type
(7 sampled runs on an 8-GPU server).

The run is also the simulator's headline speed gate: ``sim.run`` on this
100-job trace, model fitting included, must finish within
``WALL_CEILING_SECONDS``.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED, run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.models import GPT2
from repro.oracle import (
    SyntheticTestbed,
    default_profile_configs,
    profiling_cost_seconds,
)
from repro.scheduler import rubick
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace

#: Regression tripwire on ``sim.run``: a healthy run takes about a second
#: on a 2-vCPU host, so only an order-of-magnitude slowdown trips it.
WALL_CEILING_SECONDS = 30.0


def test_overheads(benchmark):
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED)
    trace = generate_trace(
        WorkloadConfig(num_jobs=100, seed=BENCH_SEED, name="overheads"), testbed
    )

    def experiment():
        sim = Simulator(
            PAPER_CLUSTER,
            rubick(),
            testbed=SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED),
            config=EngineConfig(seed=BENCH_SEED),
        )
        start = time.perf_counter()
        result = sim.run(trace)
        return result, time.perf_counter() - start

    res, run_wall = run_once(benchmark, experiment)
    configs = default_profile_configs(testbed, GPT2, 16)
    rows = [
        ("avg reconfiguration seconds / job", f"{res.avg_reconfig_seconds_per_job:.0f}"),
        ("avg reconfigurations / job", f"{res.avg_reconfig_count:.2f}"),
        ("reconfiguration share of GPU-hours", f"{res.reconfig_gpu_hour_fraction:.2%}"),
        ("profiling runs per model type", f"{len(configs)}"),
        ("profiling seconds per model type", f"{profiling_cost_seconds(len(configs)):.0f}"),
        ("scheduler wall-clock per invocation (ms)",
         f"{1000 * res.policy_wall_seconds / max(res.policy_invocations, 1):.0f}"),
        ("sim.run wall-clock seconds (fits included)", f"{run_wall:.2f}"),
    ]
    print()
    print(format_table(["overhead", "value"], rows, title="§7.3 system overheads"))

    # Paper band: reconfiguration stays a small fraction of GPU time, and
    # profiling stays within a few minutes per model type.
    assert res.reconfig_gpu_hour_fraction < 0.05
    assert profiling_cost_seconds(len(configs)) <= 330
    assert run_wall <= WALL_CEILING_SECONDS, (
        f"100-job rubick run took {run_wall:.1f}s "
        f"(> {WALL_CEILING_SECONDS}s ceiling)"
    )
