"""Workload scenario matrix — trace shape and generation cost per scenario.

Not a paper figure: the scenario registry generalizes the paper's single
§7.3 trace shape, and this benchmark documents what each registered
scenario actually produces (arrival spread, GPU-hour load, large-model
share) plus what generating it costs.  Regenerating a scenario must be
deterministic — the table is built from two generations per scenario and
asserts they are identical.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED, run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.models import LARGE_MODEL_NAMES
from repro.oracle import SyntheticTestbed
from repro.sim.serialization import trace_to_dict
from repro.units import HOUR
from repro.workloads import SCENARIOS, scenario_trace

NUM_JOBS = 40


def test_scenario_matrix_generation(benchmark, testbed):
    scenarios = [s for _, s in SCENARIOS.items() if not s.is_replay]

    def experiment():
        out = []
        for scenario in scenarios:
            start = time.perf_counter()
            trace = scenario_trace(
                scenario,
                seed=BENCH_SEED,
                cluster=PAPER_CLUSTER,
                num_jobs=NUM_JOBS,
                testbed=testbed,
            )
            elapsed = time.perf_counter() - start
            again = scenario_trace(
                scenario,
                seed=BENCH_SEED,
                cluster=PAPER_CLUSTER,
                num_jobs=NUM_JOBS,
                testbed=SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED),
            )
            out.append((scenario, trace, again, elapsed))
        return out

    results = run_once(benchmark, experiment)
    rows = []
    for scenario, trace, again, elapsed in results:
        # Regeneration from a fresh testbed is bit-identical: the trace is
        # a pure function of (scenario, seed, cluster, num_jobs).
        assert trace_to_dict(trace) == trace_to_dict(again), scenario.name
        large = sum(1 for j in trace if j.model_name in LARGE_MODEL_NAMES)
        tenants = len({j.tenant for j in trace})
        rows.append(
            (
                scenario.name,
                len(trace),
                f"{trace.span / HOUR:.1f}",
                f"{trace.total_gpu_hours:.0f}",
                f"{large}/{len(trace)}",
                tenants,
                f"{1000 * elapsed:.0f}",
            )
        )
    print()
    print(
        format_table(
            ["scenario", "jobs", "span h", "GPU-h", "large jobs", "tenants",
             "gen ms"],
            rows,
            title=f"workload scenario matrix ({NUM_JOBS} jobs, 64 GPUs)",
        )
    )
    by_name = {s.name: (t, a, e) for s, t, a, e in results}
    # The scenario axes actually move the workload: diurnal-3d stretches
    # the window, largemodel-heavy shifts the mix.
    assert by_name["diurnal-3d"][0].span > 2 * by_name["paper-12h"][0].span
    heavy = sum(
        1 for j in by_name["largemodel-heavy"][0]
        if j.model_name in LARGE_MODEL_NAMES
    )
    base = sum(
        1 for j in by_name["paper-12h"][0]
        if j.model_name in LARGE_MODEL_NAMES
    )
    assert heavy > base
