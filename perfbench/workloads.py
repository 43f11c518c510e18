"""The workloads: how one repetition runs, what it measures, and the
output checks.

Every repetition launches the system under test as a fresh child process
from the checkout root (``PYTHONPATH=src``) and times it from this process:
launch to exit (``wall_s``), launch to the first line that says set-up is
over (``setup_s``), and the child's peak RSS from ``wait4`` (the largest
process of its tree, since ``wait4`` folds in waited-for descendants).  A
traced repetition runs the same program under ``perfbench/tracer.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
TMP = ROOT / ".bench_tmp"
HERE = Path(__file__).resolve().parent


@dataclass
class Rep:
    """What one repetition measured and found."""

    seed: int
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    ops_ms: list[float]
    attempted: int
    failed: int
    digest: str
    avg_jct_h: float
    makespan_h: float
    problems: list[str] = field(default_factory=list)
    #: Traced repetitions only: the spans file's contents.
    spans: dict | None = None
    #: serve-replay only: summed client round trips of the SUBMIT and
    #: CLUSTER_EVENT frames, and the DRAIN-to-DRAINED time.
    frame_rtt_s: float = 0.0
    drain_s: float = 0.0


@dataclass
class Child:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    code: int
    lines: list[tuple[float, str]]


def launch(argv: list[str], *, ready=None, during=None) -> Child:
    """Run ``argv`` to exit, timestamping each output line.

    ``ready(line)`` marks the end of set-up (the first matching line);
    ``during()`` runs once set-up is over, while the child keeps running.
    """
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    lines: list[tuple[float, str]] = []
    setup = None
    try:
        for line in proc.stdout:
            lines.append((time.perf_counter() - start, line.rstrip("\n")))
            if setup is None and (ready is None or ready(line)):
                setup = lines[-1][0]
                if during is not None:
                    during()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Child(
        wall_s=wall,
        setup_s=wall if setup is None else setup,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        lines=lines,
    )


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _traced(spans: Path, target: str, *args: str) -> list[str]:
    return _python(str(HERE / "tracer.py"), str(spans), target, *args)


def _fresh(path: Path) -> Path:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_spans(path: Path) -> dict:
    doc = json.loads(path.read_text())
    path.unlink()
    return doc


def _tail(child: Child, n: int = 20) -> str:
    return "\n".join(line for _, line in child.lines[-n:])


def reference_s() -> float:
    """Launch-to-exit time of one run of ``perfbench/reference.py``."""
    child = launch(_python(str(HERE / "reference.py")))
    if child.code != 0:
        raise RuntimeError(f"reference.py exited {child.code}:\n{_tail(child)}")
    return child.wall_s


class Workload:
    name = ""
    #: Distinct inputs per run.  A run repeats whole cycles of them, so
    #: which inputs it measures does not depend on how fast it goes.
    inputs = 1

    def input_seed(self, seed: int, k: int) -> int:
        """Seed of input ``k`` (``0 <= k < inputs``) of a run with ``seed``."""
        return seed

    def rep(self, seed: int, index: int, mode: str) -> Rep:
        """Run one repetition on the inputs of ``seed``.  ``mode``:
        ``plain``, ``serial`` (untraced twin of a traced run) or
        ``traced``."""
        raise NotImplementedError

    def final_checks(self, seed: int, reps: list[Rep]) -> list[str]:
        return []


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------
class SweepGrid(Workload):
    name = "sweep-grid"

    def rep(self, seed: int, index: int, mode: str) -> Rep:
        from repro.errors import CorruptRunRecordError
        from repro.experiments.store import RunStore
        from repro.scheduler.registry import POLICIES
        from repro.sim.serialization import result_from_dict

        out = _fresh(TMP / f"sweep-{seed}-{index}")
        # The traced run and its untraced twin are serial: spawned workers
        # would not inherit the tracer's wrappers.
        workers = 1 if mode != "plain" else max(1, min(2, os.cpu_count() or 1))
        args = ["sweep", "--policy", ",".join(sorted(POLICIES)),
                "--seeds", str(seed), "--jobs", "80", "--scenario", "paper-12h",
                "--workers", str(workers), "--out", str(out)]
        spans = TMP / f"spans-sweep-{seed}-{index}.json"
        argv = (_traced(spans, "cli", *args) if mode == "traced"
                else _python("-m", "repro", *args))
        child = launch(argv, ready=lambda line: line.startswith("sweep:"))

        expected = len(POLICIES)
        problems = []
        if child.code != 0:
            problems.append(f"repro sweep exited {child.code}:\n{_tail(child)}")
        store = RunStore(out)
        quarantined = len(store.failed_keys())
        digest = hashlib.sha256()
        loaded = 0
        jct, makespan = [], []
        for key in sorted(store.completed_keys()):
            try:
                record = store.load_record(key)
                result = result_from_dict(record["result"])
            except (CorruptRunRecordError, KeyError, ValueError) as exc:
                problems.append(f"run record {key} does not load: {exc}")
                continue
            loaded += 1
            digest.update(store.path_for(key).read_bytes())
            if record["run"]["policy"] == "rubick":
                jct.append(result.avg_jct_hours())
                makespan.append(result.makespan_hours)
        if quarantined:
            problems.append(f"{quarantined} run(s) quarantined")
        if loaded != expected:
            problems.append(f"{loaded}/{expected} run records load")
        ops = []
        meta = out / "sweep-meta.jsonl"
        if meta.exists():
            last = json.loads(meta.read_text().splitlines()[-1])
            ops = [s * 1000.0 for s in last["run_wall_seconds"].values()]
        shutil.rmtree(out)
        return Rep(
            seed=seed,
            wall_s=child.wall_s,
            setup_s=child.setup_s,
            peak_rss_mb=child.peak_rss_mb,
            ops_ms=ops,
            attempted=expected,
            failed=expected - loaded + quarantined,
            digest=digest.hexdigest(),
            avg_jct_h=sum(jct) / len(jct) if jct else math.nan,
            makespan_h=sum(makespan) / len(makespan) if makespan else math.nan,
            problems=problems,
            spans=_load_spans(spans) if mode == "traced" else None,
        )


# ----------------------------------------------------------------------
# fleet-rubick
# ----------------------------------------------------------------------
class FleetRubick(Workload):
    """One ``perfbench/fleet.py`` session per repetition."""

    name = "fleet-rubick"

    def rep(self, seed: int, index: int, mode: str) -> Rep:
        from fleet import JOBS

        args = ["--seed", str(seed)]
        spans = _fresh(TMP / f"spans-fleet-{seed}-{index}.json")
        argv = (_traced(spans, "fleet", *args) if mode == "traced"
                else _python(str(HERE / "fleet.py"), *args))
        child = launch(argv, ready=lambda line: line.strip() == "ready")
        problems = []
        try:
            facts = json.loads(child.lines[-1][1])
        except (IndexError, json.JSONDecodeError):
            facts = None
        if child.code != 0 or facts is None:
            problems.append(
                f"fleet session exited {child.code}:\n{_tail(child)}"
            )
            return Rep(seed, child.wall_s, child.setup_s, child.peak_rss_mb,
                       [], JOBS, JOBS, "", math.nan, math.nan,
                       problems)
        if facts["evictions"] != facts["restarts"]:
            problems.append(
                f"{facts['evictions']} evictions but "
                f"{facts['restarts']} restarts"
            )
        total = facts["total_gpu_h"]
        if not (0.0 <= facts["lost_gpu_h"] <= total and math.isclose(
                facts["goodput_gpu_h"] + facts["lost_gpu_h"], total,
                rel_tol=1e-9)):
            problems.append(
                f"goodput {facts['goodput_gpu_h']} + lost "
                f"{facts['lost_gpu_h']} != total {total} GPU-h"
            )
        missing = facts["jobs"] - facts["completed"]
        if missing:
            problems.append(f"{missing} of {facts['jobs']} jobs not completed")
        return Rep(
            seed=seed,
            wall_s=child.wall_s,
            setup_s=child.setup_s,
            peak_rss_mb=child.peak_rss_mb,
            ops_ms=[s * 1000.0 for s in facts["slice_s"]],
            attempted=facts["jobs"],
            failed=missing,
            digest=facts["digest"],
            avg_jct_h=facts["avg_jct_h"],
            makespan_h=facts["makespan_h"],
            problems=problems,
            spans=_load_spans(spans) if mode == "traced" else None,
        )


# ----------------------------------------------------------------------
# serve-replay
# ----------------------------------------------------------------------
class ServeReplay(Workload):
    name = "serve-replay"
    jobs = 120
    # Rubick's cost per SUBMIT follows the trace's load, so one trace per
    # run would make the run's mean that trace's; a run replays several.
    inputs = 8

    def input_seed(self, seed: int, k: int) -> int:
        return 1000 * seed + k

    def spec_args(self, seed: int) -> list[str]:
        return ["--policy", "rubick", "--scenario", "poisson-12h",
                "--dynamics", "flaky", "--jobs", str(self.jobs),
                "--seed", str(seed)]

    def rep(self, seed: int, index: int, mode: str) -> Rep:
        from repro.errors import ProtocolError
        from repro.experiments import RunSpec, build_trace, run_cluster_events
        from repro.service import ServiceClient
        from repro.service.client import merged_frames
        from repro.sim.serialization import result_from_dict, save_result
        from repro.sim.trace import TraceJob

        run = RunSpec(policy="rubick", seed=seed, num_jobs=self.jobs,
                      scenario="poisson-12h", dynamics="flaky")
        trace = build_trace(run)
        frames = merged_frames(trace, run_cluster_events(run))

        port_file = _fresh(TMP / f"port-{seed}-{index}")
        served = _fresh(TMP / f"served-{seed}-{index}.json")
        received = _fresh(TMP / f"received-{seed}-{index}.json")
        spans = _fresh(TMP / f"spans-serve-{seed}-{index}.json")
        args = ["serve", "--virtual-clock", "--port-file", str(port_file),
                "--output", str(served), *self.spec_args(seed)]
        argv = (_traced(spans, "cli", *args) if mode == "traced"
                else _python("-m", "repro", *args))
        rtts: list[float] = []
        errors: list[str] = []
        drained: dict = {}

        def stream() -> None:
            port = int(port_file.read_text().split()[0])
            with ServiceClient(port=port, timeout=60.0) as client:
                for _, item in frames:
                    start = time.perf_counter()
                    try:
                        if isinstance(item, TraceJob):
                            client.submit_job(item)
                        else:
                            client.post_event(item)
                    except ProtocolError as exc:
                        errors.append(str(exc))
                    rtts.append(time.perf_counter() - start)
                start = time.perf_counter()
                drained.update(client.drain(trace.name))
                drained["drain_s"] = time.perf_counter() - start

        child = launch(argv, ready=lambda line: line.startswith("serving"),
                       during=stream)
        problems = [f"ERROR frame: {e}" for e in errors[:5]]
        doc = drained.get("result")
        completed = len(doc["records"]) if doc else 0
        if child.code != 0 or doc is None:
            problems.append(f"repro serve exited {child.code}:\n{_tail(child)}")
        digest = ""
        if doc is not None:
            save_result(result_from_dict(doc), received)
            data = received.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if not served.exists() or served.read_bytes() != data:
                problems.append("DRAINED document differs from the master's "
                                "--output file")
            summary = doc["summary"]
        missing = len(trace) - completed
        if missing:
            problems.append(f"{missing} of {len(trace)} jobs not completed")
        for path in (port_file, served, received):
            path.unlink(missing_ok=True)
        return Rep(
            seed=seed,
            wall_s=child.wall_s,
            setup_s=child.setup_s,
            peak_rss_mb=child.peak_rss_mb,
            ops_ms=[s * 1000.0 for s in rtts],
            attempted=len(frames) + 1,
            failed=len(errors) + (doc is None) + missing,
            digest=digest,
            avg_jct_h=summary["avg_jct_h"] if doc else math.nan,
            makespan_h=summary["makespan_h"] if doc else math.nan,
            problems=problems,
            spans=_load_spans(spans) if mode == "traced" else None,
            frame_rtt_s=sum(rtts),
            drain_s=drained.get("drain_s", 0.0),
        )

    def final_checks(self, seed: int, reps: list[Rep]) -> list[str]:
        """The first repetition's streamed document must be byte-identical
        to what ``repro simulate --output`` writes for the same spec."""
        seed = reps[0].seed
        reference = _fresh(TMP / f"simulate-{seed}.json")
        child = launch(_python("-m", "repro", "simulate", *self.spec_args(seed),
                               "--output", str(reference)))
        if child.code != 0 or not reference.exists():
            return [f"repro simulate exited {child.code}:\n{_tail(child)}"]
        digest = hashlib.sha256(reference.read_bytes()).hexdigest()
        reference.unlink()
        if any(rep.digest != digest for rep in reps if rep.seed == seed):
            return ["served result differs from repro simulate --output"]
        return []


WORKLOADS = {w.name: w for w in (SweepGrid(), FleetRubick(), ServeReplay())}
