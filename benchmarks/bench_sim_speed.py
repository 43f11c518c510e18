"""Simulator speed benchmark — the `BENCH_simspeed.json` perf trajectory.

Measures how fast `Simulator.run` replays the 100-job `bench_overheads`
trace (performance models pre-fitted, so the number isolates the simulation
loop from the one-time performance-model fits):

* **headline** — rubick's min-of-reps wall on the trace (the
  `pre_pr_anchor` block records the interleaved A/B of the event-driven
  loop against the tree before it); a **dynamics** twin replays the same
  trace under the ``flaky`` profile.  Both runs' result documents are
  pinned by the ``*-overheads`` cases of ``tests/data/golden.json``;
* **per_policy** — wall seconds and scheduler split for every registered
  policy, so future PRs are held to the whole table;
* **datacenter** — a 1024-node / 50k-job / flaky-dynamics leg through the
  ``scale_mode`` loop (antman rounds, Poisson arrivals), the fleet-scale
  throughput number this PR series optimizes for.

Runs two ways:

* ``pytest benchmarks/bench_sim_speed.py`` — pytest-benchmark wrapper
  (the datacenter leg is skipped unless ``BENCH_DATACENTER_JOBS`` is set,
  keeping tier-1 collection fast);
* ``PYTHONPATH=src python benchmarks/bench_sim_speed.py`` — script mode,
  used by the CI ``sim-speed`` smoke job: prints the table, writes
  ``BENCH_simspeed.json`` (env ``BENCH_SIMSPEED_OUT`` overrides the path),
  and exits non-zero if the headline run exceeds ``WALL_CEILING_SECONDS``
  or the datacenter leg exceeds its own ceiling (generous regression
  tripwires, not tight bounds).

Env knobs (all optional): ``BENCH_SIMSPEED_REPS`` (headline/dynamics rep
count), ``BENCH_DATACENTER_NODES`` / ``BENCH_DATACENTER_JOBS`` /
``BENCH_DATACENTER_REPS`` / ``BENCH_DATACENTER_CEILING`` (datacenter leg
shape; ``BENCH_DATACENTER_JOBS=0`` skips the leg — the CI ``sim-speed``
job does, and the ``datacenter-smoke`` job runs a 256-node / 5k-job
variant instead).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

try:  # pytest collects with benchmarks/ on sys.path; script mode may not
    from conftest import BENCH_SEED
except ImportError:
    BENCH_SEED = 7

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER, resolve_dynamics
from repro.models import all_models
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler import PerfModelStore
from repro.scheduler.registry import POLICIES, make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.units import HOUR, MINUTE
from repro.workloads.arrivals import PoissonArrivals

NUM_JOBS = 100
REPS = 3
#: Dynamics profile of the dynamics leg (evictions, steady-state
#: invalidation, post-failure rounds).
DYNAMICS_PROFILE = "flaky"
#: CI tripwire: the dev container finishes the headline run in ~0.25 s;
#: anything near this ceiling means the simulation loop regressed by an
#: order of magnitude (or the runner is pathologically overloaded).
WALL_CEILING_SECONDS = 30.0

# ----------------------------------------------------------------------
# Datacenter leg (scale_mode): 1024 nodes, 50k jobs, flaky dynamics.
# ----------------------------------------------------------------------
#: antman: gang-scheduled FIFO with fixed plans — the natural fleet-scale
#: baseline (no per-job plan search inflating the scheduler term).
DATACENTER_POLICY = "antman"
DATACENTER_NODES = 1024
DATACENTER_JOBS = 50_000
#: Each rep is ~7.5 s at full scale; 4 reps keeps the min() robust to
#: transient machine load without dominating script-mode runtime.
DATACENTER_REPS = 4
#: Gavel/Shockwave-style scheduling rounds: at fleet scale the policy runs
#: on a 10-minute cadence, batching all arrivals/completions in between.
DATACENTER_ROUND_INTERVAL = 600.0
#: Retention bound — aggregates stay exact over all 50k completions, but
#: only this many full JobRecord objects are kept.
DATACENTER_RECORD_LIMIT = 1000
#: Generous tripwire (the dev container finishes the leg in ~7.5 s).
DATACENTER_CEILING_SECONDS = 120.0


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _peak_rss_mb() -> float:
    """Process peak-RSS high-water in MiB (``ru_maxrss`` is KiB on Linux).

    Monotone over the process lifetime, so per-leg readings record the
    high-water *after* that leg — the datacenter leg is what moves it.
    """
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )

#: Interleaved A/B against the true pre-PR tree (commit 3f795cd), measured
#: while this PR was developed.  Machine-bound numbers — kept as the
#: trajectory's origin, not recomputed by the emitter.
PRE_PR_ANCHOR = {
    "commit": "3f795cd",
    "min_wall_seconds": 0.793,
    "speedup_vs_pre_pr": 3.7,
    "note": (
        "100-job rubick trace, pre-fitted models, min of 5 reps, "
        "interleaved with the post-PR tree on the same machine"
    ),
}


def _fitted_store(testbed: SyntheticTestbed) -> PerfModelStore:
    store = PerfModelStore()
    for model in all_models():
        perf, _ = build_perf_model(
            testbed, model, model.global_batch_size, seed=BENCH_SEED
        )
        store.add(perf)
    return store


def _one_run(trace, store, policy_name: str, *, events=None):
    sim = Simulator(
        PAPER_CLUSTER,
        make_policy(policy_name),
        config=EngineConfig(seed=BENCH_SEED),
        testbed=SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED),
        perf_store=store,
    )
    start = time.perf_counter()
    result = sim.run(trace, cluster_events=events)
    return time.perf_counter() - start, result


def _measure(trace, store, policy_name: str, *, reps: int, events=None):
    """Min wall over ``reps`` runs and the result of the fastest one."""
    best_wall, best_result = None, None
    for _ in range(reps):
        wall, result = _one_run(trace, store, policy_name, events=events)
        if best_wall is None or wall < best_wall:
            best_wall, best_result = wall, result
    return best_wall, best_result


def _collect_datacenter(*, nodes: int, jobs: int, reps: int) -> dict:
    """The fleet-scale leg: ``scale_mode`` antman rounds under dynamics.

    The leg reports min-of-``reps`` wall plus the invariants the
    scale-mode test suite pins (every job completes, aggregates exact
    under bounded record retention).  Trace generation is timed too: it
    is part of what a user of the leg waits for, so ``events_per_second``
    counts it and ``run_events_per_second`` is the loop alone.
    """
    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=nodes)
    testbed = SyntheticTestbed(cluster, seed=BENCH_SEED)
    store = _fitted_store(testbed)
    build_start = time.perf_counter()
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=jobs,
            span=12 * HOUR,
            seed=BENCH_SEED,
            cluster=cluster,
            duration_median=5 * MINUTE,
            arrival=PoissonArrivals(),
            name="datacenter",
        ),
        testbed,
    )
    trace_build = time.perf_counter() - build_start
    events = resolve_dynamics(DYNAMICS_PROFILE).events(
        seed=BENCH_SEED, span=12 * HOUR, cluster=cluster
    )
    best_wall, best = None, None
    for _ in range(reps):
        sim = Simulator(
            cluster,
            make_policy(DATACENTER_POLICY),
            config=EngineConfig(
                seed=BENCH_SEED,
                scale_mode=True,
                tick_interval=DATACENTER_ROUND_INTERVAL,
                result_record_limit=DATACENTER_RECORD_LIMIT,
            ),
            testbed=testbed,
            perf_store=store,
        )
        start = time.perf_counter()
        res = sim.run(trace, cluster_events=events)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall, best = wall, res
    completed = len(best.records) + best.dropped_records
    assert completed == jobs, (
        f"datacenter leg lost jobs: {completed}/{jobs} completed"
    )
    ceiling = float(
        os.environ.get("BENCH_DATACENTER_CEILING", DATACENTER_CEILING_SECONDS)
    )
    return {
        "policy": DATACENTER_POLICY,
        "nodes": nodes,
        "cluster_gpus": cluster.total_gpus,
        "jobs": jobs,
        "reps": reps,
        "round_interval_seconds": DATACENTER_ROUND_INTERVAL,
        "arrival": "poisson",
        "duration_median_minutes": 5,
        "dynamics_profile": DYNAMICS_PROFILE,
        "record_limit": DATACENTER_RECORD_LIMIT,
        "trace_build_seconds": round(trace_build, 4),
        "wall_seconds": round(best_wall, 4),
        "events_per_second": round(
            best.sim_rounds / (trace_build + best_wall), 1
        ),
        "run_events_per_second": round(best.sim_rounds / best_wall, 1),
        "jobs_per_second": round(jobs / best_wall, 1),
        "sim_rounds": best.sim_rounds,
        "policy_invocations": best.policy_invocations,
        "policy_wall_seconds": round(best.policy_wall_seconds, 4),
        "cluster_events": best.cluster_events,
        "evictions": best.evictions,
        "completed": completed,
        "dropped_records": best.dropped_records,
        "makespan_hours": round(best.makespan / HOUR, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "wall_ceiling_seconds": ceiling,
        "ceiling_ok": best_wall <= ceiling,
    }


def collect(*, datacenter_jobs: int | None = None) -> dict:
    """Run every measurement and assemble the BENCH_simspeed payload.

    ``datacenter_jobs`` sizes the datacenter leg (0 skips it); ``None``
    defers to ``BENCH_DATACENTER_JOBS``, defaulting to the full 50k.
    """
    reps = _env_int("BENCH_SIMSPEED_REPS", REPS)
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=BENCH_SEED)
    trace = generate_trace(
        WorkloadConfig(num_jobs=NUM_JOBS, seed=BENCH_SEED, name="overheads"),
        testbed,
    )
    store = _fitted_store(testbed)

    # One discarded warm-up fills the process-level caches (plan
    # enumerations, `lru_cache`d memory estimates) before anything is timed.
    _one_run(trace, store, "rubick")
    head_wall, head_res = _measure(trace, store, "rubick", reps=reps)

    # Dynamics leg: the same trace under a flaky cluster (evictions,
    # steady-state invalidation, post-failure rounds).
    events = resolve_dynamics(DYNAMICS_PROFILE).events(
        seed=BENCH_SEED, span=12 * HOUR, cluster=PAPER_CLUSTER
    )
    dyn_wall, dyn_res = _measure(
        trace, store, "rubick", reps=reps, events=events
    )
    small_scale_rss = _peak_rss_mb()

    per_policy = {}
    for name in POLICIES:
        wall, res = _measure(trace, store, name, reps=2)
        per_policy[name] = {
            "wall_seconds": round(wall, 4),
            "jobs_per_second": round(NUM_JOBS / wall, 1),
            "policy_wall_seconds": round(res.policy_wall_seconds, 4),
            "policy_invocations": res.policy_invocations,
            "policy_skips": res.policy_skips,
            "sim_rounds": res.sim_rounds,
        }

    if datacenter_jobs is None:
        datacenter_jobs = _env_int("BENCH_DATACENTER_JOBS", DATACENTER_JOBS)
    datacenter = None
    if datacenter_jobs > 0:
        datacenter = _collect_datacenter(
            nodes=_env_int("BENCH_DATACENTER_NODES", DATACENTER_NODES),
            jobs=datacenter_jobs,
            reps=_env_int("BENCH_DATACENTER_REPS", DATACENTER_REPS),
        )

    ceiling_ok = head_wall <= WALL_CEILING_SECONDS and (
        datacenter is None or datacenter["ceiling_ok"]
    )
    return {
        "benchmark": "sim_speed",
        "format_version": 3,
        "config": {
            "cluster_gpus": PAPER_CLUSTER.total_gpus,
            "num_jobs": NUM_JOBS,
            "seed": BENCH_SEED,
            "trace": "overheads",
            "reps": reps,
            "prefitted_models": True,
            #: ru_maxrss high-water after the small-scale legs; monotone,
            #: so the datacenter block's reading is the process peak.
            "small_scale_peak_rss_mb": small_scale_rss,
        },
        "headline": {
            "policy": "rubick",
            "wall_seconds": round(head_wall, 4),
            "jobs_per_second": round(NUM_JOBS / head_wall, 1),
            "events_per_second": round(head_res.events_per_second, 1),
            "policy_wall_seconds": round(head_res.policy_wall_seconds, 4),
            "policy_ms_per_invocation": round(
                head_res.policy_ms_per_invocation, 3
            ),
            "policy_invocations": head_res.policy_invocations,
            "policy_skips": head_res.policy_skips,
            "sim_rounds": head_res.sim_rounds,
            "calendar_fast_rounds": head_res.calendar_fast_rounds,
            "calendar_exact_scans": head_res.calendar_exact_scans,
        },
        "dynamics": {
            "policy": "rubick",
            "profile": DYNAMICS_PROFILE,
            "cluster_events": dyn_res.cluster_events,
            "evictions": dyn_res.evictions,
            "wall_seconds": round(dyn_wall, 4),
            "policy_skips": dyn_res.policy_skips,
            "sim_rounds": dyn_res.sim_rounds,
            "lost_gpu_hours": round(dyn_res.lost_gpu_hours, 3),
        },
        "per_policy": per_policy,
        "datacenter": datacenter,
        "pre_pr_anchor": PRE_PR_ANCHOR,
        "wall_ceiling_seconds": WALL_CEILING_SECONDS,
        "ceiling_ok": ceiling_ok,
    }


def render(payload: dict) -> str:
    head = payload["headline"]
    rows = [
        (
            name,
            f"{row['wall_seconds']:.3f}",
            f"{row['jobs_per_second']:.0f}",
            f"{row['policy_wall_seconds']:.3f}",
            row["policy_invocations"],
            row["policy_skips"],
        )
        for name, row in payload["per_policy"].items()
    ]
    table = format_table(
        ["policy", "wall s", "jobs/s", "sched s", "invocations", "skips"],
        rows,
        title=f"simulator speed — {payload['config']['num_jobs']}-job trace, "
        f"seed {payload['config']['seed']}, models pre-fitted",
    )
    dyn = payload["dynamics"]
    out = (
        f"{table}\n"
        f"headline rubick: {head['wall_seconds']:.3f}s "
        f"({payload['pre_pr_anchor']['speedup_vs_pre_pr']}x vs pre-PR tree "
        f"{payload['pre_pr_anchor']['commit']}), "
        f"{head['events_per_second']:.0f} events/s, "
        f"{head['policy_skips']} rounds short-circuited, "
        f"calendar early-out on "
        f"{head['calendar_fast_rounds']}/"
        f"{head['calendar_fast_rounds'] + head['calendar_exact_scans']} rounds\n"
        f"dynamics ({dyn['profile']}): {dyn['wall_seconds']:.3f}s, "
        f"{dyn['cluster_events']} events, {dyn['evictions']} evictions, "
        f"{dyn['policy_skips']} rounds short-circuited"
    )
    dc = payload.get("datacenter")
    if dc is not None:
        out += (
            f"\ndatacenter ({dc['policy']}, {dc['nodes']} nodes / "
            f"{dc['jobs']} jobs / {dc['dynamics_profile']}): "
            f"{dc['trace_build_seconds']:.3f}s trace build + "
            f"{dc['wall_seconds']:.3f}s wall (min of {dc['reps']}), "
            f"{dc['events_per_second']:.0f} events/s with the build "
            f"({dc['run_events_per_second']:.0f} run only), "
            f"{dc['policy_invocations']} scheduling rounds, "
            f"{dc['evictions']} evictions, "
            f"peak RSS {dc['peak_rss_mb']:.0f} MiB"
        )
    return out


def emit(payload: dict, path: str | os.PathLike | None = None) -> Path:
    """Write the machine-readable trajectory file."""
    if path is None:
        path = os.environ.get(
            "BENCH_SIMSPEED_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_simspeed.json",
        )
    out = Path(path)
    out.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    return out


def test_sim_speed(benchmark, tmp_path):
    # conftest.run_once inlined: `import conftest` is ambiguous when tests/
    # and benchmarks/ are collected together.
    # Pytest runs default the datacenter leg OFF (tier-1 stays fast);
    # exporting BENCH_DATACENTER_JOBS opts in — the CI datacenter-smoke
    # job instead runs script mode with a downsized leg.
    payload = benchmark.pedantic(
        collect,
        kwargs={"datacenter_jobs": _env_int("BENCH_DATACENTER_JOBS", 0)},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(render(payload))
    # pytest runs write a throwaway copy: the committed repo-root snapshot
    # is only refreshed deliberately (script mode / CI artifact).
    out = emit(payload, tmp_path / "BENCH_simspeed.json")
    print(f"wrote {out}")
    assert payload["ceiling_ok"], (
        f"100-job rubick run took {payload['headline']['wall_seconds']}s "
        f"(> {WALL_CEILING_SECONDS}s ceiling)"
    )


if __name__ == "__main__":
    bench_payload = collect()
    print(render(bench_payload))
    print(f"wrote {emit(bench_payload)}")
    if not bench_payload["ceiling_ok"]:
        dc_block = bench_payload.get("datacenter")
        parts = [
            f"headline wall {bench_payload['headline']['wall_seconds']}s "
            f"(ceiling {WALL_CEILING_SECONDS}s)"
        ]
        if dc_block is not None:
            parts.append(
                f"datacenter wall {dc_block['wall_seconds']}s "
                f"(ceiling {dc_block['wall_ceiling_seconds']}s)"
            )
        sys.exit("sim-speed regression: " + ", ".join(parts))
