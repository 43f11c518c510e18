"""Ablations of the reproduction's design choices (DESIGN.md items 14/16).

Not a paper artifact — this sweeps the policy knobs DESIGN.md documents so
their effect is measurable rather than asserted:

* ``growth_mode``: whether running jobs may grow into free resources;
* ``replan_improvement_threshold``: the anti-churn margin on voluntary
  reconfigurations;
* the checkpoint-resume cost ``δ`` (the paper measures 78 s).
"""

from __future__ import annotations

from conftest import BENCH_SEED, run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.oracle import SyntheticTestbed
from repro.scheduler.rubick import RubickPolicy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace

NUM_JOBS = 100


def _trace():
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED)
    return generate_trace(
        WorkloadConfig(num_jobs=NUM_JOBS, seed=BENCH_SEED, name="ablation"),
        testbed,
    )


def _run(policy, trace, delta=78.0):
    sim = Simulator(
        PAPER_CLUSTER,
        policy,
        testbed=SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED),
        config=EngineConfig(seed=BENCH_SEED, reconfig_delta=delta),
    )
    return sim.run(trace)


def test_ablation_growth_and_margin(benchmark):
    trace = _trace()

    def experiment():
        out = []
        for growth in ("never", "always"):
            for margin in (0.0, 0.15, 0.5):
                policy = RubickPolicy(
                    growth_mode=growth, replan_improvement_threshold=margin
                )
                policy.name = f"growth={growth},margin={margin:g}"
                out.append((policy.name, _run(policy, trace)))
        return out

    out = run_once(benchmark, experiment)
    rows = [
        (name, f"{res.avg_jct_hours():.2f}", f"{res.makespan_hours:.1f}",
         f"{res.avg_reconfig_count:.2f}")
        for name, res in out
    ]
    print()
    print(
        format_table(
            ["config", "avg JCT h", "makespan h", "reconfigs/job"],
            rows,
            title="Ablation — growth mode × improvement margin",
        )
    )
    results = dict(out)
    # Growth into free resources must not hurt makespan: the tail jobs are
    # exactly the ones that benefit from absorbing drained capacity.
    assert (
        results["growth=always,margin=0.15"].makespan
        <= results["growth=never,margin=0.15"].makespan * 1.05
    )
    # All configurations complete the full trace.
    assert all(len(res.records) == NUM_JOBS for res in results.values())


def test_ablation_reconfig_delta(benchmark):
    trace = _trace()

    def experiment():
        out = []
        for delta in (0.0, 78.0, 300.0):
            policy = RubickPolicy()
            policy.name = f"delta={delta:g}s"
            out.append((delta, _run(policy, trace, delta=delta)))
        return out

    out = run_once(benchmark, experiment)
    rows = [
        (f"{delta:g} s", f"{res.avg_jct_hours():.2f}",
         f"{res.reconfig_gpu_hour_fraction:.2%}")
        for delta, res in out
    ]
    print()
    print(
        format_table(
            ["checkpoint-resume cost", "avg JCT h", "reconfig GPU-h share"],
            rows,
            title="Ablation — reconfiguration penalty δ",
        )
    )
    by_delta = {delta: res for delta, res in out}
    # Costlier restarts can only lengthen JCTs (modulo small scheduling
    # noise) and consume a larger share of GPU time.
    assert by_delta[300.0].avg_jct() >= by_delta[0.0].avg_jct() * 0.95
    assert (
        by_delta[300.0].reconfig_gpu_hour_fraction
        >= by_delta[0.0].reconfig_gpu_hour_fraction
    )
