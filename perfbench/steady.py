"""Steadiness check: run workloads over several seeds and compare the
spread of each end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload fleet-rubick ...]

Run from the repository root.  For every workload it runs
``perfbench/run.py --trace 0`` once per seed (0, 1, ... ``--runs``-1) and
prints, per metric, the median, the quartiles and the spread (interquartile
range over the median, as ``statistics.quantiles(n=4)`` gives them) beside
the metric's bound and a third of it.  Exits 1 if any spread exceeds its
bound or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.runs):
            result = run_once(spec, workload, seed)
            ok &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = ("" if spread <= bound / 3 else
                       " within bound" if spread <= bound else " OVER")
            ok &= spread <= bound
            print(f"  {name:<12} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:8.4f} {bound:6.3f} {bound / 3:8.4f}{verdict}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
