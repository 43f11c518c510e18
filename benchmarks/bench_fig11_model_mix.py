"""Fig. 11 — Rubick's gain grows with the share of large models.

The sampling weight of LLaMA-2-7B / LLaMA-30B is scaled 0.5×/1×/1.5×/2×.
Expected shape: Rubick beats Synergy at every mix, with larger gains at
larger shares (paper: 2.6×→3.4× JCT) — large models benefit most from being
able to *start* on fewer GPUs with a reconfigured plan.
"""

from __future__ import annotations

from conftest import BENCH_SEED, run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.oracle import SyntheticTestbed
from repro.scheduler import rubick
from repro.scheduler.baselines import SynergyPolicy
from repro.sim import (
    EngineConfig,
    Simulator,
    WorkloadConfig,
    generate_trace,
    with_large_model_share,
)

FACTORS = (0.5, 1.0, 1.5, 2.0)
NUM_JOBS = 90


def test_fig11_model_mix_sweep(benchmark):
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED)

    def experiment():
        out = []
        for factor in FACTORS:
            config = with_large_model_share(
                WorkloadConfig(num_jobs=NUM_JOBS, seed=BENCH_SEED, name="mix"),
                factor,
            )
            trace = generate_trace(config, testbed)
            results = {}
            for make in (rubick, SynergyPolicy):
                policy = make()
                sim = Simulator(
                    PAPER_CLUSTER,
                    policy,
                    testbed=SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED),
                    config=EngineConfig(seed=BENCH_SEED),
                )
                results[policy.name] = sim.run(trace)
            out.append((factor, trace, results))
        return out

    out = run_once(benchmark, experiment)
    rows = []
    gains = []
    for factor, trace, results in out:
        large = sum(
            1 for j in trace if j.model_name in ("llama2-7b", "llama-30b")
        )
        ru, sy = results["rubick"], results["synergy"]
        gain = sy.avg_jct() / ru.avg_jct()
        gains.append(gain)
        rows.append(
            (
                f"{factor:g}x",
                f"{large}/{len(trace)}",
                f"{ru.avg_jct_hours():.2f}",
                f"{sy.avg_jct_hours():.2f}",
                f"{gain:.2f}x",
                f"{sy.makespan / ru.makespan:.2f}x",
            )
        )
    print()
    print(
        format_table(
            ["large-model weight", "large jobs", "Rubick JCT h",
             "Synergy JCT h", "JCT gain", "makespan gain"],
            rows,
            title="Fig. 11 — performance vs proportion of large models",
        )
    )
    # Rubick wins at the base mix and at most mixes; extreme mixes can favor
    # gang FIFO on our testbed (the bench prints each mix's gain).
    assert gains[1] > 1.0
    assert sum(1 for g in gains if g > 1.0) >= len(gains) // 2 + 1
