"""One fleet-scale Simulator session: the program of the fleet-rubick workload.

    PYTHONPATH=src python3 perfbench/fleet.py --seed 0

Builds a 6 h Poisson trace of 1000 jobs (5 min median duration) on 128
8-GPU nodes with ``flaky`` cluster dynamics, opens a Rubick ``scale_mode``
session (600 s policy rounds, 1000 retained records) and prints
``ready``.  It then steps the session one 600 s slice at a time up to the
last arrival, runs the rest to completion in one final step, and prints
one JSON line: the wall time of each slice and the facts the benchmark
checks (completions, evictions, GPU time).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

from repro.cluster import PAPER_CLUSTER, resolve_dynamics
from repro.oracle import SyntheticTestbed
from repro.scheduler.registry import make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.units import HOUR, MINUTE
from repro.workloads.arrivals import PoissonArrivals

POLICY = "rubick"
NODES = 128
JOBS = 1000
SPAN = 6 * HOUR
ROUND = 600.0
RECORD_LIMIT = 1000


def session(seed: int):
    """(simulator with its session started, last arrival time)."""
    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=NODES)
    testbed = SyntheticTestbed(cluster, seed=seed)
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=JOBS,
            span=SPAN,
            seed=seed,
            cluster=cluster,
            duration_median=5 * MINUTE,
            arrival=PoissonArrivals(),
            name="fleet",
        ),
        testbed,
    )
    events = resolve_dynamics("flaky").events(
        seed=seed, span=SPAN, cluster=cluster
    )
    sim = Simulator(
        cluster,
        make_policy(POLICY),
        testbed=testbed,
        config=EngineConfig(
            seed=seed,
            scale_mode=True,
            tick_interval=ROUND,
            result_record_limit=RECORD_LIMIT,
        ),
    )
    sim.start(trace, cluster_events=events)
    return sim, max(tj.submit_time for tj in trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sim, last_arrival = session(args.seed)
    print("ready", flush=True)
    slices = []
    until = ROUND
    while until < last_arrival + ROUND:
        start = time.perf_counter()
        sim.step(until=until)
        slices.append(time.perf_counter() - start)
        until += ROUND
    sim.step(until=math.inf)
    result = sim.result()

    facts = {
        "jobs": JOBS,
        "completed": len(result.records) + result.dropped_records,
        "evictions": result.evictions,
        "restarts": result.total_restarts,
        "total_gpu_h": result.total_gpu_hours,
        "lost_gpu_h": result.lost_gpu_hours,
        "goodput_gpu_h": result.goodput_gpu_hours,
        "avg_jct_h": result.avg_jct_hours(),
        "makespan_h": result.makespan_hours,
        "sim_rounds": result.sim_rounds,
        "policy_invocations": result.policy_invocations,
    }
    digest = hashlib.sha256(
        json.dumps(facts, sort_keys=True).encode()
    ).hexdigest()
    print(json.dumps({**facts, "digest": digest, "slice_s": slices}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
