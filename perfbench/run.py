"""Repo benchmark: one workload, one seed, every metric, output checks.

    python3 perfbench/run.py --workload fleet-rubick --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload (each
repetition a fresh child process, each preceded by one run of
``perfbench/reference.py``) in whole cycles over its inputs, as many cycles
as fit in ``--seconds`` and at least one, and reports the end-to-end
metrics over the repetitions, the times scaled to a host of nominal speed.
``--trace 1`` runs untraced/traced pairs instead and reports the per-layer
metrics of the traced runs.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, percentile  # noqa: E402
from workloads import ROOT, WORKLOADS, Rep, reference_s  # noqa: E402

#: Launch-to-exit time of perfbench/reference.py on the nominal host: the
#: end-to-end times are what the workload would take on a host that runs
#: the reference in this time.
NOMINAL_REFERENCE_S = 0.8

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "op.p50_ms": "ms",
    "op.tail_ms": "ms",
    "import.s": "s",
    "trace.build_s": "s",
    "trace.jobs": "count",
    "fit.s": "s",
    "fit.calls": "count",
    "policy.s": "s",
    "policy.calls": "count",
    "policy.round_p50_ms": "ms",
    "policy.round_p99_ms": "ms",
    "policy.skips": "count",
    "planeval.s": "s",
    "planeval.calls": "count",
    "planeval.hit_rate": "frac",
    "sim.loop_self_s": "s",
    "sim.rounds": "count",
    "sim.events_per_s": "1/s",
    "sim.calendar_fast_frac": "frac",
    "serialize.s": "s",
    "serialize.bytes": "bytes",
    "store.s": "s",
    "store.save_s": "s",
    "store.saves": "count",
    "service.s": "s",
    "service.step_s": "s",
    "service.overhead_ms_per_frame": "ms",
    "service.frames": "count",
    "service.drain_s": "s",
    "unwrapped.s": "s",
    "traced.wall_s": "s",
    "trace.overhead_frac": "frac",
    "quality.avg_jct_h": "h",
    "quality.makespan_h": "h",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile, up to p99, with at
    least ten samples beyond it; the median when there are 20 or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    q = min(99.0, 100.0 * (n - 10) / n)
    return percentile(ordered, q), q


def _outcome(workload, seed: int, reps: list[Rep]) -> tuple[bool, int, int]:
    problems = [p for rep in reps for p in rep.problems]
    problems += workload.final_checks(seed, reps)
    for seed_ in {rep.seed for rep in reps}:
        if len({rep.digest for rep in reps if rep.seed == seed_}) > 1:
            problems.append(f"outputs differ between repetitions of input "
                            f"seed {seed_}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"checks: {len(problems)} failed; {failed}/{attempted} units failed")
    return not problems and failed == 0, attempted, failed


def _result(correct, attempted, failed, values: dict, units: dict) -> dict:
    # A failed repetition can leave a metric undefined (NaN); such a run is
    # already reported incorrect, and JSON has no NaN.
    finite = all(math.isfinite(v) for v in values.values())
    return {
        "correct": correct and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": values[name] if math.isfinite(values[name]) else 0.0,
                "unit": unit,
            }
            for name, unit in units.items()
        },
    }


def op_latency(reps: list[Rep]) -> tuple[float, float, str]:
    """(p50, tail) of the op latencies pooled over ``reps``, and a note
    saying which percentile the tail is and how many samples there are."""
    ops = [op for rep in reps for op in rep.ops_ms]
    if not ops:
        return 0.0, 0.0, "no op samples"
    value, q = tail(ops)
    return statistics.median(ops), value, f"tail = p{q:.2f} of {len(ops)} ops"


def cycles(workload, seed: int, seconds: float, run) -> None:
    """Call ``run(input_seed, k)`` for whole cycles over the workload's
    inputs, ``k`` counting repetitions, while one more cycle, as long as
    the average one so far, still ends within ``seconds`` (at least one)."""
    start = time.perf_counter()
    done = 0
    while True:
        for i in range(workload.inputs):
            run(workload.input_seed(seed, i), done * workload.inputs + i)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def measure(workload, seed: int, seconds: float) -> dict:
    reps: list[Rep] = []
    references: list[float] = []

    def rep(input_seed: int, k: int) -> None:
        references.append(reference_s())
        reps.append(workload.rep(input_seed, k, "plain"))

    cycles(workload, seed, seconds, rep)
    # The host's speed drifts by up to 1.9x within minutes; the reference
    # program, run beside every repetition, slows down with it.
    reference = statistics.fmean(references)
    speed = NOMINAL_REFERENCE_S / reference
    wall = statistics.fmean(r.wall_s for r in reps)
    values = {
        "wall_s": wall * speed,
        "setup_s": statistics.median(r.setup_s for r in reps) * speed,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    print(f"{workload.name} seed {seed}: {len(reps)} repetitions; mean "
          f"unscaled wall {wall:.4f} s; mean reference {reference:.4f} s, "
          f"so host speed {speed:.4f}")
    for name, value in values.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]}")
    # Printed, not reported: across seeds their spread is wider than any
    # bound (README), so they are per-layer metrics of the traced run.
    p50, tail_ms, note = op_latency(reps)
    print(f"  op p50 {p50:.4f} ms, op {note}: {tail_ms:.4f} ms")
    correct, attempted, failed = _outcome(workload, seed, reps)
    return _result(correct, attempted, failed, values, END_TO_END_UNITS)


def trace(workload, seed: int, seconds: float) -> dict:
    plain: list[Rep] = []
    traced: list[Rep] = []

    def pair(input_seed: int, k: int) -> None:
        plain.append(workload.rep(input_seed, 2 * k, "serial"))
        traced.append(workload.rep(input_seed, 2 * k + 1, "traced"))

    cycles(workload, seed, seconds, pair)
    layers = [layer_metrics(rep.spans, rep.wall_s) for rep in traced]
    values = {
        name: statistics.median(row[name] for row in layers)
        for name in layers[0]
    }
    values["op.p50_ms"], values["op.tail_ms"], note = op_latency(traced)
    print(f"op {note}")
    frames = values["service.frames"]
    values["service.overhead_ms_per_frame"] = (
        1000.0 * statistics.median(
            (rep.frame_rtt_s - row["service.step_s"]) for rep, row in
            zip(traced, layers)
        ) / frames if frames else 0.0
    )
    values["service.drain_s"] = statistics.median(r.drain_s for r in traced)
    untraced_wall = statistics.median(rep.wall_s for rep in plain)
    traced_wall = statistics.median(rep.wall_s for rep in traced)
    values["traced.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["quality.avg_jct_h"] = statistics.median(r.avg_jct_h for r in traced)
    values["quality.makespan_h"] = statistics.median(
        r.makespan_h for r in traced
    )
    print(f"{workload.name} seed {seed}: {len(traced)} traced + "
          f"{len(plain)} untraced repetitions")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<30} {values[name]:14.4f} {unit}")
    correct, attempted, failed = _outcome(workload, seed, plain + traced)
    return _result(correct, attempted, failed, values, PER_LAYER_UNITS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
