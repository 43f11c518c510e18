"""Table 4 — end-to-end 64-GPU cluster experiments.

Three trace variants on the paper cluster:

* **Base** — random feasible initial plans; Rubick vs Sia, Synergy, and the
  Rubick-E/R/N ablations.  Paper: Rubick 1×, Sia 2.6×, Synergy 3.23×,
  Rubick-E 2.5×, Rubick-R 1.67×, Rubick-N 3.23× (avg JCT).
* **BP** — best initial plans; Rubick still wins (paper: 1.88×/2.37× over
  Sia/Synergy).
* **MT** — two tenants (guaranteed vs best-effort); Rubick vs AntMan
  (paper: 1.6× all-jobs JCT, 1.28× makespan).

The trace is down-scaled (160 jobs vs the paper's 406) to keep the benchmark
runnable in seconds; EXPERIMENTS.md records the shape comparison.

All runs execute through the experiments sweep subsystem
(`repro.experiments`): each cell is a declarative :class:`RunSpec`, the MT
tenant setup is the runner's variant default, and the per-process trace memo
replaces the old module-scoped trace fixture.
"""

from __future__ import annotations

from conftest import BENCH_SEED, run_once

from repro.analysis import format_table
from repro.experiments import RunSpec, run_sweep
from repro.scheduler import JobPriority

NUM_JOBS = 160


def _runs(policy_names, variant):
    return [
        RunSpec(
            policy=name, variant=variant, seed=BENCH_SEED, num_jobs=NUM_JOBS
        )
        for name in policy_names
    ]


def _print_rows(title, results):
    reference = results[0]
    rows = []
    for res in results:
        rows.append(
            (
                res.policy_name,
                f"{res.avg_jct_hours():.2f} ({res.avg_jct() / reference.avg_jct():.2f}x)",
                f"{res.p99_jct_hours():.2f} ({res.p99_jct() / reference.p99_jct():.2f}x)",
                f"{res.makespan_hours:.1f} ({res.makespan / reference.makespan:.2f}x)",
            )
        )
    print()
    print(format_table(["scheduler", "avg JCT h", "p99 JCT h", "makespan h"],
                       rows, title=title))


def test_table4_base_trace(benchmark):
    policies = ["rubick", "sia", "synergy", "rubick-e", "rubick-r", "rubick-n"]

    def experiment():
        outcome = run_sweep(_runs(policies, "base"))
        return [result for _, result in outcome.pairs()]

    results = run_once(benchmark, experiment)
    _print_rows("Table 4 (Base trace)", results)
    ref = results[0]
    by_name = {r.policy_name: r for r in results}
    # Rubick achieves the best average JCT and ties-or-beats on makespan.
    for name, res in by_name.items():
        assert ref.avg_jct() <= res.avg_jct() * 1.001, name
    # Reconfigurability-agnostic systems trail substantially.
    assert by_name["synergy"].avg_jct() > ref.avg_jct() * 1.3
    assert by_name["rubick-n"].avg_jct() > ref.avg_jct() * 1.2
    # SLA: full Rubick keeps performance guarantees for almost all jobs.
    assert len(ref.sla_violations()) <= 0.1 * len(ref.records)


def test_table4_best_plan_trace(benchmark):
    def experiment():
        bp = run_sweep(_runs(["rubick", "sia", "synergy"], "bp"))
        base = run_sweep(_runs(["sia", "synergy"], "base"))
        return (
            [result for _, result in bp.pairs()],
            [result for _, result in base.pairs()],
        )

    (results, base_results) = run_once(benchmark, experiment)
    _print_rows("Table 4 (BP trace — best initial plans)", results)
    ref, sia_bp, synergy_bp = results
    sia_base, synergy_base = base_results
    # The paper's core BP observation: the fixed-plan baselines improve
    # substantially when handed best initial plans (their Base-trace deficit
    # came from inheriting bad plans), while Rubick is insensitive to the
    # initial plan.  On our testbed Sia's elastic DP scaling can even edge
    # ahead on avg JCT in this regime (EXPERIMENTS.md).
    assert synergy_bp.avg_jct() < synergy_base.avg_jct()
    assert sia_bp.avg_jct() < sia_base.avg_jct()
    assert ref.avg_jct() <= synergy_bp.avg_jct() * 1.1


def test_table4_multi_tenant_trace(benchmark):
    # Tenant quotas (tenant-a guaranteed at full-cluster quota, tenant-b
    # best-effort at zero) are the runner's MT-variant default.
    def experiment():
        outcome = run_sweep(_runs(["rubick", "antman"], "mt"))
        return [result for _, result in outcome.pairs()]

    results = run_once(benchmark, experiment)
    ref, antman = results
    rows = []
    for res in results:
        guar = res.by_priority(JobPriority.GUARANTEED)
        be = res.by_priority(JobPriority.BEST_EFFORT)
        rows.append(
            (
                res.policy_name,
                f"{res.avg_jct_hours():.2f}",
                f"{res.avg_jct_hours(guar):.2f}",
                f"{res.avg_jct_hours(be):.2f}",
                f"{res.makespan_hours:.1f}",
            )
        )
    print()
    print(
        format_table(
            ["scheduler", "JCT all h", "JCT guaranteed h",
             "JCT best-effort h", "makespan h"],
            rows,
            title="Table 4 (MT trace — Rubick vs AntMan)",
        )
    )
    # Rubick beats AntMan overall and per category (paper: 1.6x/1.65x/1.56x).
    assert ref.avg_jct() < antman.avg_jct()
    ref_guar = ref.avg_jct(ref.by_priority(JobPriority.GUARANTEED))
    ant_guar = antman.avg_jct(antman.by_priority(JobPriority.GUARANTEED))
    assert ref_guar < ant_guar
