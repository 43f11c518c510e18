"""Process-parallel sweep execution.

The executor fans :class:`RunSpec` grids out across worker processes with a
``spawn`` multiprocessing context.  Spawn-safety is by construction: only
the frozen RunSpec crosses the process boundary — each worker rebuilds its
own ``SyntheticTestbed``/``Simulator`` from the spec and writes its result
straight to the :class:`RunStore`, so nothing stateful is ever pickled.

Determinism: a run's result depends only on its RunSpec (trace generation,
the testbed, and the simulator are all seeded from it), so a ``--workers N``
sweep produces byte-identical run files to a serial one — enforced by
``tests/test_experiments.py``.

Robustness: each run executes under a guard (``_guarded_run``) that adds a
per-run wall-clock timeout, bounded deterministic retries with a recorded
attempt history, and poison-run quarantine — a run that exhausts its
retries becomes a persisted failure record under ``failures/`` instead of
aborting the sweep.  Run-key leases make a re-dispatched run exactly-once,
and stale atomic-publish temp files are collected at sweep start/end.
Fault plans (``repro.faults``) thread a per-run injector through every
layer; the empty plan takes the pre-harness code path bit for bit.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.cluster.dynamics import resolve_dynamics
from repro.errors import CorruptRunRecordError, RunTimeoutError
from repro.experiments.spec import RunSpec, SweepSpec
from repro.experiments.store import RunStore, build_failure_doc
from repro.faults import FaultPlan, incident_payload
from repro.oracle.testbed import SyntheticTestbed
from repro.scheduler.interfaces import SchedulerPolicy, Tenant
from repro.scheduler.registry import make_policy
from repro.sim.engine import EngineConfig, SharedMemo, Simulator
from repro.sim.metrics import SimulationResult
from repro.sim.serialization import (
    incident_to_dict,
    load_trace,
    result_from_dict,
    result_to_dict,
)
from repro.sim.trace import Trace
from repro.sim.workload import (
    generate_trace,
    to_best_plan_trace,
    to_multi_tenant_trace,
)
from repro.workloads.registry import resolve_scenario, scenario_trace

#: Per-process memo of *unscaled* traces: runs differing only in policy or
#: load factor share one (moderately expensive) trace construction; the
#: cheap ``scaled_load`` view is applied per run.
_TRACE_CACHE: dict[str, Trace] = {}


def _base_run(run: RunSpec) -> RunSpec:
    """The unscaled run whose trace this run derives from.

    ``dynamics`` is normalized away like ``load_factor``: traces are
    byte-identical across dynamics profiles by design (events never touch
    the generator), so a ``--dynamics none,flaky`` sweep shares one trace
    construction per (scenario, variant, seed) group.
    """
    if run.load_factor == 1.0 and not run.dynamics:
        return run
    return replace(run, load_factor=1.0, dynamics="")


def _trace_memo_key(run: RunSpec) -> str:
    """Memo key of the unscaled trace a run derives from."""
    return _base_run(run).trace_fingerprint


def build_trace(run: RunSpec) -> Trace:
    """Construct (or load) the trace a run replays, deterministically.

    Resolution order: an explicit ``trace_path`` wins; a replay scenario
    ingests its external source through the adapters; otherwise the
    scenario's generator config is expanded (with the scenario's own
    tenant split applied at build time).  Variant and load transforms
    apply on top in every case.
    """
    base_run = _base_run(run)
    key = base_run.trace_fingerprint
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        scenario = resolve_scenario(base_run.scenario)
        if base_run.trace_path is not None:
            trace = load_trace(base_run.trace_path)
        elif scenario.is_replay:
            trace = scenario_trace(
                scenario,
                seed=base_run.seed,
                cluster=base_run.cluster,
                plan_assignment=base_run.plan_assignment,
            )
        else:
            testbed = SyntheticTestbed(base_run.cluster, seed=base_run.seed)
            trace = generate_trace(base_run.workload_config(), testbed)
            # The scenario's own tenant split applies once: when the run
            # *also* asks for the mt variant, the variant's split below
            # honors the scenario's fraction instead of re-splitting.
            if (
                scenario.guaranteed_fraction is not None
                and base_run.variant != "mt"
            ):
                trace = to_multi_tenant_trace(
                    trace,
                    seed=base_run.seed,
                    guaranteed_fraction=scenario.guaranteed_fraction,
                    name=trace.name,
                )
        if base_run.variant == "bp":
            testbed = SyntheticTestbed(base_run.cluster, seed=base_run.seed)
            trace = to_best_plan_trace(trace, testbed, name="bp")
        elif base_run.variant == "mt":
            fraction = scenario.guaranteed_fraction
            trace = to_multi_tenant_trace(
                trace,
                seed=base_run.seed,
                guaranteed_fraction=0.5 if fraction is None else fraction,
                name="mt",
            )
        _TRACE_CACHE[key] = trace
    if run.load_factor != 1.0:
        trace = trace.scaled_load(run.load_factor)
    return trace


def run_cluster_events(run: RunSpec):
    """Expand a run's effective dynamics profile into its event stream.

    The stream is a pure function of (profile, seed, window, cluster) —
    *not* of the realized trace — so every policy in a sweep cell faces
    the identical failure history.  The window is the scenario's span
    override when it has one (``diurnal-3d`` is three days regardless of
    the sweep default), else the run's span.
    """
    dynamics = resolve_dynamics(run.effective_dynamics)
    scenario = resolve_scenario(run.scenario)
    span = scenario.span if scenario.span is not None else run.span
    return dynamics.events(seed=run.seed, span=span, cluster=run.cluster)


def default_tenants(run: RunSpec) -> dict[str, Tenant] | None:
    """Tenant setup implied by the trace variant or scenario split.

    The MT variant (and any scenario with a ``guaranteed_fraction``)
    reproduces the paper's two-tenant experiment: tenant-a holds the
    whole-cluster guaranteed quota, tenant-b runs best-effort.
    """
    scenario = resolve_scenario(run.scenario)
    if run.variant != "mt" and scenario.guaranteed_fraction is None:
        return None
    return {
        "tenant-a": Tenant(name="tenant-a", gpu_quota=run.cluster.total_gpus),
        "tenant-b": Tenant(name="tenant-b", gpu_quota=0),
    }


@dataclass
class RunExecution:
    """An in-process run with its live objects (for CLI stats printing)."""

    run: RunSpec
    result: SimulationResult
    policy: SchedulerPolicy
    sim: Simulator
    trace: Trace
    wall_seconds: float


#: The shared plan-evaluation memo of the last testbed a run used, keyed
#: by ``testbed.key``.  One entry suffices: a sweep's policy loop is
#: innermost and the pool path sorts by trace fingerprint, so a worker's
#: runs of one testbed are contiguous (DESIGN.md 56).
_SHARED_MEMO: dict[tuple, SharedMemo] = {}


def _shared_memo(testbed: SyntheticTestbed) -> SharedMemo:
    memo = _SHARED_MEMO.get(testbed.key)
    if memo is None:
        _SHARED_MEMO.clear()
        memo = _SHARED_MEMO[testbed.key] = SharedMemo(testbed)
    return memo


def simulator_for_run(run: RunSpec, *, injector=None) -> Simulator:
    """The exact engine a batch execution of this spec builds.

    The scheduling service (``repro serve``) constructs its session
    through this same function, which is what makes a streamed replay of
    a run spec byte-identical to ``execute_run`` of the same spec.  Runs
    of one testbed share its plan-evaluation memo; every entry is a pure
    function of its key, so sharing moves no decision.
    """
    cluster = run.cluster
    testbed = SyntheticTestbed(cluster, seed=run.seed)
    return Simulator(
        cluster,
        make_policy(run.policy),
        testbed=testbed,
        config=EngineConfig(seed=run.seed),
        injector=injector,
        memo=_shared_memo(testbed),
    )


def execute_run(run: RunSpec, *, injector=None) -> RunExecution:
    """Build everything from the spec and replay the trace once.

    ``injector`` (a per-run :class:`~repro.faults.FaultInjector`) arms the
    worker-level seams: ``worker-hang``/``worker-crash`` model a sweep
    worker dying or stalling mid-run, ``trace-build`` a trace-adapter
    failure.  ``None`` (the default) is the zero-fault fast path.
    """
    start = time.perf_counter()
    if injector is not None:
        injector.check("worker-hang")
        injector.check("trace-build")
    trace = build_trace(run)
    sim = simulator_for_run(run, injector=injector)
    policy = sim.policy
    if injector is not None:
        injector.check("worker-crash")
    result = sim.run(
        trace,
        tenants=default_tenants(run),
        cluster_events=run_cluster_events(run),
    )
    return RunExecution(
        run=run,
        result=result,
        policy=policy,
        sim=sim,
        trace=trace,
        wall_seconds=time.perf_counter() - start,
    )


def run_perf(execution: RunExecution) -> dict[str, float]:
    """Wall-clock/speed facts of one executed run (in-memory only).

    Persisted result documents are deterministic by contract, so timing
    travels on this side channel: the sweep runner collects one perf row per
    run *executed in this invocation* (resumed runs have none) and the
    report layer renders them as the sweep-table footer.
    """
    result = execution.result
    return {
        "wall_seconds": execution.wall_seconds,
        "policy_wall_seconds": result.policy_wall_seconds,
        "policy_invocations": result.policy_invocations,
        "policy_skips": result.policy_skips,
        "sim_rounds": result.sim_rounds,
        "sim_wall_seconds": result.sim_wall_seconds,
        "fit_wall_seconds": result.fit_wall_seconds,
    }


@contextmanager
def _alarm(seconds: float | None):
    """Bound a block's wall clock with SIGALRM (no-op where unavailable).

    Falls back to unbounded execution when no budget is set, on platforms
    without ``SIGALRM``, or off the main thread (signal handlers can only
    be installed there).
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeoutError(
            f"run exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _guarded_run(
    run: RunSpec,
    store: RunStore | None,
    plan: FaultPlan | None,
    max_attempts: int,
    run_timeout: float | None,
):
    """Execute one run with timeout, bounded retries, and quarantine.

    Returns ``(status, execution, failure_doc)`` where status is one of
    ``"ok"`` (executed and persisted), ``"failed"`` (retries exhausted —
    ``failure_doc`` is the quarantine record), or ``"leased"`` (a live
    other process holds the run's lease; nothing was executed).

    The injector is created once per *run*, not per attempt: seam
    occurrence counts accumulate across retries, so a transient rule
    (``times=(1,)``) fires once and the retry recovers.
    """
    if store is not None and not store.acquire_lease(run.run_key):
        return "leased", None, None
    try:
        injector = plan.injector(run.run_key) if plan is not None else None
        attempts: list[dict] = []
        for attempt in range(1, max(1, max_attempts) + 1):
            try:
                with _alarm(run_timeout):
                    execution = execute_run(run, injector=injector)
                if store is not None:
                    store.save(run, execution.result, injector=injector)
                    if injector is not None:
                        # Read-back verification: a torn write (the
                        # store-record seam, or a real partial write)
                        # surfaces here as a failed attempt, not later as
                        # a poisoned --resume.
                        store.load_record(run.run_key)
                    store.clear_failure(run.run_key)
                return "ok", execution, None
            except Exception as exc:
                entry = {"attempt": attempt, **incident_payload(exc)}
                if getattr(exc, "incidents", ()):
                    # A hard simulation failure carries the contained
                    # incidents that preceded it — quarantine keeps them.
                    entry["incidents"] = [
                        incident_to_dict(i) for i in exc.incidents
                    ]
                attempts.append(entry)
                if store is not None and isinstance(
                    exc, CorruptRunRecordError
                ):
                    store.quarantine_record(run.run_key)
        if store is not None:
            doc = store.save_failure(run, attempts)
        else:
            doc = build_failure_doc(run, attempts)
        return "failed", None, doc
    finally:
        if store is not None:
            store.release_lease(run.run_key)


def _run_row(run, store, plan, max_attempts, run_timeout):
    """One run's ``(key, status, perf, result, failure)``, as
    :func:`run_sweep` tallies it."""
    status, execution, failure = _guarded_run(
        run, store, plan, max_attempts, run_timeout
    )
    if status != "ok":
        return run.run_key, status, None, None, failure
    return run.run_key, status, run_perf(execution), execution.result, None


def _pool_run(args):
    """Top-level worker body (must be importable under spawn): the run's
    row, its result shipped as a document unless the store keeps it."""
    run, out_dir, plan, max_attempts, run_timeout = args
    store = RunStore(out_dir) if out_dir is not None else None
    key, status, perf, result, failure = _run_row(
        run, store, plan, max_attempts, run_timeout
    )
    payload = (
        None if result is None or store is not None
        else result_to_dict(result)
    )
    return key, status, perf, payload, failure


def _pool_rows(todo, out_dir, plan, max_attempts, run_timeout, workers):
    """:func:`_run_row` of every run, from a spawn pool, as they finish."""
    ctx = mp.get_context("spawn")
    # Group same-trace runs into contiguous chunks so each worker's
    # per-process trace memo gets hits (results are independent of
    # execution order, so this only affects wall clock).  Chunks never
    # exceed a fingerprint group: larger chunks would trade load balance
    # for no extra memo hits.
    ordered = sorted(todo, key=_trace_memo_key)
    processes = min(workers, len(todo))
    group = min(Counter(map(_trace_memo_key, ordered)).values())
    chunk = max(1, min(-(-len(ordered) // processes), group))
    jobs = [(run, out_dir, plan, max_attempts, run_timeout) for run in ordered]
    with ctx.Pool(processes=processes) as pool:
        for key, status, perf, payload, failure in pool.imap_unordered(
            _pool_run, jobs, chunksize=chunk
        ):
            result = None if payload is None else result_from_dict(payload)
            yield key, status, perf, result, failure


@dataclass
class SweepOutcome:
    """Everything a sweep invocation produced (plus resumed prior results)."""

    runs: tuple[RunSpec, ...]
    results: dict[str, SimulationResult] = field(default_factory=dict)
    #: Per-run perf rows (see :func:`run_perf`), runs *executed in this
    #: invocation* only.
    perf: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Run keys skipped because ``--resume`` found them already on disk.
    skipped: tuple[str, ...] = ()
    #: Quarantine records of runs that exhausted their retries, by key.
    failures: dict[str, dict] = field(default_factory=dict)
    total_wall: float = 0.0
    workers: int = 1

    def pairs(self) -> list[tuple[RunSpec, SimulationResult]]:
        """(run, result) in grid order for every run with a result."""
        return [
            (run, self.results[run.run_key])
            for run in self.runs
            if run.run_key in self.results
        ]

    def select(self, **fields) -> list[tuple[RunSpec, SimulationResult]]:
        """Pairs whose RunSpec matches every given field, in grid order."""
        return [
            (run, result)
            for run, result in self.pairs()
            if all(getattr(run, k) == v for k, v in fields.items())
        ]

    def one(self, **fields) -> SimulationResult:
        """The single result matching ``fields`` (raises otherwise)."""
        matches = self.select(**fields)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one run matching {fields}, "
                f"found {len(matches)}"
            )
        return matches[0][1]


def run_sweep(
    spec: SweepSpec | tuple[RunSpec, ...] | list[RunSpec],
    *,
    out_dir: str | None = None,
    workers: int = 1,
    resume: bool = False,
    log=None,
    fault_plan: FaultPlan | None = None,
    max_attempts: int = 2,
    run_timeout: float | None = None,
) -> SweepOutcome:
    """Execute a sweep grid, optionally in parallel and/or persisted.

    * ``out_dir`` — when set, every run is persisted through the
      :class:`RunStore` as it completes (crash-safe); when ``None`` the
      sweep is in-memory only (benchmarks).
    * ``workers`` — number of spawn-context worker processes; ``1`` runs
      in-process (and is what ``workers > 1`` must be byte-identical to).
    * ``resume`` — skip runs whose key already has a *loadable* result on
      disk; an unreadable record is quarantined to a ``.corrupt`` sidecar
      and the run re-executes.
    * ``fault_plan`` — a :class:`~repro.faults.FaultPlan` arming the
      injection seams (``None``/empty = zero faults, the fast path).
    * ``max_attempts`` — per-run attempt budget; a run that fails every
      attempt is quarantined under ``failures/`` instead of aborting the
      sweep.
    * ``run_timeout`` — per-run wall-clock budget in seconds (classified
      and retried like any other failure).
    """
    started = time.perf_counter()
    if isinstance(spec, SweepSpec):
        runs = spec.expand()
    else:
        runs = tuple(spec)
    keys = [run.run_key for run in runs]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep grid contains duplicate run keys")
    if fault_plan is not None and not fault_plan.rules:
        fault_plan = None

    store = RunStore(out_dir) if out_dir is not None else None
    if store is not None and isinstance(spec, SweepSpec):
        store.write_spec(spec)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    if store is not None:
        removed = store.gc_stale_tmp()
        if removed:
            say(f"gc: removed {len(removed)} stale temp file(s)")

    already_done: set[str] = set()
    if store is not None and resume:
        # Trust nothing: every present record must load before its run is
        # skipped.  A truncated/corrupt one moves aside and re-executes.
        for key in sorted(store.completed_keys() & set(keys)):
            try:
                store.load_record(key)
            except CorruptRunRecordError as exc:
                store.quarantine_record(key)
                say(f"resume: quarantined corrupt record ({exc})")
                continue
            already_done.add(key)
    todo = [run for run in runs if run.run_key not in already_done]

    outcome = SweepOutcome(
        runs=runs, skipped=tuple(k for k in keys if k in already_done),
        workers=max(workers, 1),
    )
    if outcome.skipped:
        say(f"resume: {len(outcome.skipped)}/{len(runs)} runs already on disk")

    if workers <= 1 or len(todo) <= 1:
        rows = (
            _run_row(run, store, fault_plan, max_attempts, run_timeout)
            for run in todo
        )
    else:
        rows = _pool_rows(
            todo, out_dir, fault_plan, max_attempts, run_timeout, workers
        )
    leased: set[str] = set()
    for key, status, perf, result, failure in rows:
        if status == "leased":
            leased.add(key)
            say(f"leased elsewhere, skipping {key}")
            continue
        if status == "failed":
            outcome.failures[key] = failure
            say(
                f"quarantined {key} after "
                f"{len(failure['attempts'])} attempt(s): {failure['error']}"
            )
            continue
        outcome.perf[key] = perf
        if result is not None:
            outcome.results[key] = result
        say(f"done {key} ({perf['wall_seconds']:.1f}s)")
    if store is not None:
        # Pool workers leave their results in the store.
        for run in todo:
            key = run.run_key
            if (
                key not in outcome.results
                and key not in outcome.failures
                and key not in leased
            ):
                outcome.results[key] = store.load_result(key)

    # Resumed runs still participate in aggregation: load them back.
    if store is not None:
        for key in outcome.skipped:
            outcome.results[key] = store.load_result(key)
        store.gc_stale_tmp()

    outcome.total_wall = time.perf_counter() - started
    if store is not None:
        meta = {
            "workers": outcome.workers,
            "requested_runs": len(runs),
            "executed_runs": len(todo),
            "skipped_runs": len(outcome.skipped),
            "total_wall_seconds": round(outcome.total_wall, 3),
            "run_wall_seconds": {
                k: round(row["wall_seconds"], 3)
                for k, row in sorted(outcome.perf.items())
            },
            "run_perf": {
                k: {m: round(v, 4) for m, v in row.items()}
                for k, row in sorted(outcome.perf.items())
            },
        }
        if outcome.failures:
            meta["failed_runs"] = len(outcome.failures)
        if fault_plan is not None:
            meta["fault_plan"] = fault_plan.name
            meta["fault_plan_digest"] = fault_plan.digest
        store.append_meta(meta)
    return outcome
