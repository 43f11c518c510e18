"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``       — replay a trace (file or generated) under a scheduler.
* ``compare``        — run several schedulers on the same trace, print a
                       Table-4-style comparison.
* ``sweep``          — fan a (policy × scenario × variant × seed) grid out
                       across worker processes with persisted, resumable
                       results.
* ``serve``          — run a live scheduling-service master accepting
                       streamed submissions (``repro.service``).
* ``submit``         — stream a scenario's jobs/events into a running
                       master (the load-generator client).
* ``workload``       — list, inspect and materialize named workload
                       scenarios (``repro.workloads``).
* ``profile``        — fit and print a performance model for one catalog model.

``simulate``, ``compare``, ``sweep`` and ``serve`` all execute through the
experiments runner (`repro.experiments`), so a CLI run, a sweep worker and
a served session are the same code path.  The shared flag vocabulary
(``--policy``, ``--scenario``, ``--dynamics``, ``--faults``) is defined
once in the ``_*_parent`` argparse parents below: every command spells,
defaults and documents these flags identically; the grid commands
(``compare``, ``sweep``) read them as comma-separated lists.  Every name
they carry is checked in one place, ``_bad_names``, against the registries
of ``repro.names``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import format_table
from repro.cluster import (
    DYNAMICS,
    PAPER_CLUSTER,
    ClusterSpec,
    NodeSpec,
    resolve_dynamics,
)
from repro.experiments import (
    RunSpec,
    SweepSpec,
    aggregate,
    build_trace,
    default_tenants,
    execute_run,
    format_failure_table,
    format_sweep_table,
    run_cluster_events,
    run_sweep,
    simulator_for_run,
)
from repro.errors import (
    FaultPlanError,
    InjectedFault,
    ProtocolError,
    SimulationError,
    WorkloadError,
)
from repro.experiments.spec import VARIANTS
from repro.faults import (
    FAULT_PLANS,
    NO_FAULTS_NAME,
    incident_payload,
    resolve_fault_plan,
)
from repro.models import get_model
from repro.names import NameRegistry
from repro.oracle import SyntheticTestbed, build_perf_model
from repro.scheduler.registry import POLICIES
from repro.service import (
    RealTimeClock,
    ServiceClient,
    VirtualClock,
    replay,
    serve,
)
from repro.sim.serialization import result_from_dict, save_result, save_trace
from repro.units import HOUR
from repro.workloads import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    arrival_to_dict,
    resolve_scenario,
    scenario_trace,
)


def _cluster_from_args(args) -> ClusterSpec:
    if args.nodes == 8 and args.gpus_per_node == 8:
        return PAPER_CLUSTER
    return ClusterSpec(
        num_nodes=args.nodes, node=NodeSpec(num_gpus=args.gpus_per_node)
    )


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--gpus-per-node", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)


# ----------------------------------------------------------------------
# Shared flag vocabulary (argparse parents)
# ----------------------------------------------------------------------
# One definition per flag family; every command that takes the flag gets
# it from here, so spelling, defaults and help text cannot drift apart.
# ``multi=True`` commands (compare, sweep) interpret the value as a
# comma-separated list.
def _policy_parent(*, multi: bool = False) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    known = ", ".join(sorted(POLICIES))
    if multi:
        parent.add_argument(
            "--policy", metavar="POLICY",
            default="rubick,sia,synergy",
            help=f"comma-separated scheduling policies (known: {known})",
        )
    else:
        parent.add_argument(
            "--policy", metavar="POLICY",
            default="rubick", choices=sorted(POLICIES),
            help=f"scheduling policy (known: {known})",
        )
    return parent


def _workload_parent(*, multi: bool = False) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    noun = "comma-separated workload scenarios" if multi else \
        "workload scenario"
    parent.add_argument(
        "--scenario", metavar="SCENARIO",
        default=DEFAULT_SCENARIO,
        help=f"{noun}: registered name or replay:<path> "
             "(see `repro workload list`)",
    )
    profiles = "comma-separated cluster-dynamics profiles" if multi else \
        "cluster-dynamics profile"
    parent.add_argument(
        "--dynamics", default="", metavar="PROFILE",
        help=f"{profiles} (e.g. flaky, scaleout-midday, "
             "file:<events.json>); default: the scenario's own dynamics",
    )
    return parent


def _faults_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--faults", default=NO_FAULTS_NAME, metavar="PLAN",
        help="fault plan to inject (name or file:<plan.json>; "
             "see `repro faults list`)",
    )
    return parent


def _endpoint_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--host", default="127.0.0.1",
                        help="service address")
    parent.add_argument("--port", type=int, default=0,
                        help="service TCP port (serve: 0 picks an "
                             "ephemeral port; submit: required unless "
                             "--port-file is given)")
    parent.add_argument("--port-file", metavar="PATH",
                        help="port-discovery file: serve writes its bound "
                             "port there, submit reads it")
    return parent


def _clock_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--virtual-clock", action="store_true",
        help="deterministic virtual time: simulated time advances only "
             "on frames, so a streamed replay is byte-identical to the "
             "batch `repro simulate` of the same spec (CI mode)",
    )
    parent.add_argument(
        "--speed", type=float, default=1.0, metavar="X",
        help="real-time mode: simulated seconds per wall second "
             "(ignored under --virtual-clock)",
    )
    return parent


def _add_stats_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--planeval-stats",
        action="store_true",
        help="print plan-evaluation cache statistics after the run",
    )


def _unusable(registry: NameRegistry, names) -> list[str]:
    """The names ``registry`` cannot resolve, a prefixed one with why.

    A replay scenario must also name an existing file: a path typo should
    fail the invocation up front, not crash mid-sweep after other runs
    already burned wall clock.
    """
    bad = []
    for name in names:
        try:
            entry = registry.resolve(name)
        except registry.error as exc:
            prefixed = name.startswith(registry.prefix)
            bad.append(f"{name} ({exc})" if prefixed else name)
            continue
        if registry is SCENARIOS and entry.is_replay and \
                not Path(entry.source).exists():
            bad.append(f"{name} (no such file)")
    return bad


def _bad_names(*, policies=(), variants=(), scenarios=(), dynamics=(),
               faults=NO_FAULTS_NAME) -> bool:
    """Print the first kind of name the invocation cannot use, if any.

    True means the caller exits 2.  An empty dynamics name means the
    scenario's own profile.
    """
    def listing(registry: NameRegistry) -> str:
        return ", ".join(registry.names()) + f", or {registry.prefix}<path>"

    for kind, bad, known in (
        ("policies", [n for n in policies if n not in POLICIES],
         ", ".join(sorted(POLICIES))),
        ("variants", [v for v in variants if v not in VARIANTS],
         ", ".join(VARIANTS)),
        ("scenarios", _unusable(SCENARIOS, scenarios), listing(SCENARIOS)),
        ("dynamics", _unusable(DYNAMICS, [d for d in dynamics if d]),
         listing(DYNAMICS)),
        ("fault plans", _unusable(FAULT_PLANS, [faults]),
         listing(FAULT_PLANS)),
    ):
        if bad:
            print(f"unknown {kind}: {bad}; known: {known}")
            return True
    return False


def _runs(args, policies) -> list | None:
    """One (RunSpec, fault injector) per policy: the shared prologue of
    simulate, compare, serve and submit.

    ``None`` after printing why the arguments make no valid run (the
    caller exits 2).  Only spec construction is guarded: a failure once a
    run has started is a real error and propagates.
    """
    faults = getattr(args, "faults", NO_FAULTS_NAME)
    if _bad_names(policies=policies, scenarios=[args.scenario],
                  dynamics=[args.dynamics], faults=faults):
        return None
    if args.trace is not None and not Path(args.trace).is_file():
        print(f"no such trace file: {args.trace}")
        return None
    try:
        runs = [
            RunSpec(
                policy=name,
                seed=args.seed,
                num_jobs=args.jobs,
                nodes=args.nodes,
                gpus_per_node=args.gpus_per_node,
                trace_path=args.trace,
                scenario=args.scenario,
                dynamics=args.dynamics,
            )
            for name in policies
        ]
    except ValueError as exc:
        print(f"invalid run: {exc}")
        return None
    plan = resolve_fault_plan(faults)
    return [(run, plan.injector(run.run_key)) for run in runs]


def _print_planeval_stats(policy_name: str, policy, sim) -> None:
    """Cache counters of the policy's and the simulator's plan engines."""
    engines = [
        (f"{policy_name} (fitted models)", getattr(policy, "engine", None)),
        ("simulator (ground truth)", sim.plan_engine),
    ]
    rows = []
    for label, engine in engines:
        if engine is None:
            rows.append((label, "-", "-", "-", "-", "-"))
            continue
        s = engine.stats()
        rows.append(
            (
                label,
                s.hits,
                s.misses,
                s.evals,
                s.invalidations,
                f"{s.hit_rate:.1%}",
            )
        )
    print(
        format_table(
            ["plan-eval engine", "hits", "misses", "plan evals",
             "invalidations", "hit rate"],
            rows,
            title="plan-evaluation cache statistics",
        )
    )


def _contained_execute(run, injector):
    """Execute one run, containing armed injected faults.

    A fault that escapes the runner's own retry/quarantine path must not
    surface as a raw traceback: the incident record *is* the contract.
    Returns the execution, or ``None`` after printing the incident record
    (the caller exits 3 — distinct from usage errors so chaos sweeps can
    tell "fault fired" from "bad invocation").  Without an injector the
    exception propagates unchanged: a real simulation bug is not an
    incident to swallow.
    """
    try:
        return execute_run(run, injector=injector)
    except (SimulationError, InjectedFault) as exc:
        if injector is None:
            raise
        print("run terminated by injected fault; incident record:")
        print(
            json.dumps(
                incident_payload(exc), indent=1, sort_keys=True,
                allow_nan=False,
            )
        )
        return None


def cmd_simulate(args) -> int:
    runs = _runs(args, [args.policy])
    if runs is None:
        return 2
    execution = _contained_execute(*runs[0])
    if execution is None:
        return 3
    result, trace = execution.result, execution.trace
    summary = result.summary()
    print(
        format_table(
            ["metric", "value"],
            [(k, f"{v:.3f}") for k, v in summary.items()],
            title=f"{args.policy} on {trace.name} ({len(trace)} jobs)",
        )
    )
    if args.planeval_stats:
        _print_planeval_stats(args.policy, execution.policy, execution.sim)
    if args.output:
        save_result(result, args.output)
        print(f"wrote result to {args.output}")
    return 0


def cmd_compare(args) -> int:
    names = args.policy.split(",")
    runs = _runs(args, names)
    if runs is None:
        return 2
    executions = []
    for run, injector in runs:
        execution = _contained_execute(run, injector)
        if execution is None:
            return 3
        executions.append(execution)
    results = [e.result for e in executions]
    trace = executions[0].trace
    ref = results[0]
    # Dynamics columns appear only when cluster events actually fired, so
    # static comparisons render exactly as before the subsystem existed.
    dynamic = any(res.cluster_events > 0 for res in results)
    rows = [
        (
            res.policy_name,
            f"{res.avg_jct_hours():.2f} ({res.avg_jct() / ref.avg_jct():.2f}x)",
            f"{res.p99_jct_hours():.2f}",
            f"{res.makespan_hours:.1f}",
            f"{res.avg_reconfig_count:.1f}",
            len(res.sla_violations()),
            *(
                (f"{res.lost_gpu_hours:.2f}", res.evictions)
                if dynamic
                else ()
            ),
        )
        for res in results
    ]
    headers = ["scheduler", "avg JCT h", "p99 JCT h", "makespan h",
               "reconfigs/job", "SLA violations"]
    if dynamic:
        headers += ["lost GPU-h", "evictions"]
    print(
        format_table(
            headers,
            rows,
            title=f"{trace.name}: {len(trace)} jobs on "
            f"{runs[0][0].cluster.total_gpus} GPUs",
        )
    )
    if args.planeval_stats:
        for execution, name in zip(executions, names):
            _print_planeval_stats(name, execution.policy, execution.sim)
    return 0


def _csv(text: str, convert=str) -> tuple:
    return tuple(convert(part) for part in text.split(",") if part)


def cmd_sweep(args) -> int:
    policies = _csv(args.policy)
    variants = _csv(args.variants)
    scenarios = _csv(args.scenario)
    dynamics = _csv(args.dynamics) or ("",)
    if _bad_names(policies=policies, variants=variants, scenarios=scenarios,
                  dynamics=dynamics, faults=args.faults):
        return 2
    fault_plan = resolve_fault_plan(args.faults)
    try:
        spec = SweepSpec(
            policies=policies,
            seeds=_csv(args.seeds, int),
            variants=variants,
            scenarios=scenarios,
            dynamics=dynamics,
            num_jobs=args.jobs,
            span=args.span_hours * 3600.0,
            nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            load_factors=_csv(args.loads, float),
            large_model_factors=_csv(args.large_model_factors, float),
        )
        runs = spec.expand()
    except ValueError as exc:
        # Malformed numbers (--seeds a), duplicate grid entries (--seeds
        # 0,0), or out-of-range run values (--loads 0).
        print(f"invalid sweep grid: {exc}")
        return 2
    dyn_axis = (
        f"{len(spec.dynamics)} dynamics x " if len(spec.dynamics) > 1 else ""
    )
    print(
        f"sweep: {len(runs)} runs "
        f"({len(spec.policies)} policies x {len(spec.scenarios)} scenarios x "
        f"{dyn_axis}{len(spec.variants)} variants x "
        f"{len(spec.seeds)} seeds x {len(spec.load_factors)} loads x "
        f"{len(spec.large_model_factors)} model mixes), "
        f"workers={args.workers}, out={args.out}"
    )
    if fault_plan.rules:
        print(
            f"fault plan: {fault_plan.name} (digest {fault_plan.digest}) — "
            f"{fault_plan.describe()}"
        )
    outcome = run_sweep(
        spec,
        out_dir=args.out,
        workers=args.workers,
        resume=args.resume,
        log=print,
        fault_plan=fault_plan,
        max_attempts=args.max_attempts,
        run_timeout=args.run_timeout,
    )
    print()
    print(
        format_sweep_table(
            aggregate(outcome.pairs()),
            title=f"sweep on {spec.nodes * spec.gpus_per_node} GPUs "
            f"({args.jobs} jobs/trace)",
            perf=list(outcome.perf.values()),
        )
    )
    executed = len(outcome.perf)
    # Sum in sorted-key order: dict insertion order follows worker
    # completion order, which varies run to run.
    run_time = sum(
        outcome.perf[k]["wall_seconds"] for k in sorted(outcome.perf)
    )
    print(
        f"\nexecuted {executed} runs ({len(outcome.skipped)} resumed) in "
        f"{outcome.total_wall:.1f}s wall "
        f"({run_time:.1f}s of simulation across {outcome.workers} workers)"
    )
    if outcome.failures:
        # Degraded completion: the grid finished, but some runs exhausted
        # their retries and were quarantined.  Exit 3 distinguishes this
        # from success (0), usage errors (2), and hard failures (raised
        # exceptions) so CI chaos jobs can assert the exact outcome.
        print()
        print(format_failure_table(outcome.failures))
        print(
            f"\n{len(outcome.failures)} run(s) quarantined under "
            f"{args.out}/failures/ (re-run with --resume to retry them)"
        )
        return 3
    return 0


def _print_result_summary(result, title: str) -> None:
    print(
        format_table(
            ["metric", "value"],
            [(k, f"{v:.3f}") for k, v in result.summary().items()],
            title=title,
        )
    )


def cmd_serve(args) -> int:
    runs = _runs(args, [args.policy])
    if runs is None:
        return 2
    run, injector = runs[0]
    sim = simulator_for_run(run, injector=injector)
    clock = (
        VirtualClock() if args.virtual_clock
        else RealTimeClock(speed=args.speed)
    )
    try:
        result = serve(
            sim,
            host=args.host,
            port=args.port,
            clock=clock,
            tenants=default_tenants(run),
            port_file=args.port_file,
            log=print,
        )
    except SimulationError as exc:
        print(f"simulation failed: {exc}")
        return 1
    if result is None:
        print("master exited without a completed drain")
        return 1
    _print_result_summary(
        result,
        f"{args.policy} served session "
        f"({len(result.records) + result.dropped_records} jobs)",
    )
    if args.output:
        save_result(result, args.output)
        print(f"wrote result to {args.output}")
    return 0


def _connect_with_retry(args) -> ServiceClient:
    """Connect to the master at --port, or at the port in --port-file.

    ``repro serve --port-file X &`` then ``repro submit --port-file X`` is
    the scripted/CI startup shape: the file appears only once the master
    has bound, so the client polls for the file and then the socket,
    within one --connect-timeout budget, instead of racing.
    """
    if not (args.port or args.port_file):
        raise ProtocolError("submit needs --port or --port-file")
    deadline = time.monotonic() + args.connect_timeout
    path = Path(args.port_file) if args.port_file else None
    while True:
        port = args.port
        if not port and path.exists():
            text = path.read_text().strip()
            port = int(text.split()[0]) if text else None
        cause = None
        if port:
            try:
                return ServiceClient(host=args.host, port=port).connect()
            except OSError as exc:
                cause = exc
                error = f"cannot reach master at {args.host}:{port}: {exc}"
        else:
            error = (
                f"no master port appeared in {args.port_file} within "
                f"{args.connect_timeout:.0f}s"
            )
        if time.monotonic() > deadline:
            raise ProtocolError(error) from cause
        time.sleep(0.05)


def cmd_submit(args) -> int:
    # The load generator replays a *run spec*: same trace builder and
    # dynamics expansion as `repro simulate`, so a virtual-clock session
    # reproduces the batch result byte for byte.  The policy axis lives on
    # the serve side; the spec's policy field does not influence the trace.
    runs = _runs(args, ["rubick"])
    if runs is None:
        return 2
    run, _ = runs[0]
    trace = build_trace(run)
    events = run_cluster_events(run)
    try:
        client = _connect_with_retry(args)
    except ProtocolError as exc:
        print(str(exc))
        return 2
    try:
        with client:
            report = replay(
                trace,
                client,
                events=events,
                speed=None if args.virtual_clock else args.speed,
                log=print,
            )
    except ProtocolError as exc:
        print(f"replay failed: {exc}")
        return 1
    doc = report.result
    if doc is None:
        print("master drained without a result document")
        return 1
    summary = doc.get("summary", {})
    print(
        format_table(
            ["metric", "value"],
            [
                (k, "-" if v is None else f"{v:.3f}")
                for k, v in summary.items()
            ],
            title=f"{doc.get('policy_name')} on {doc.get('trace_name')} "
            f"({report.jobs} jobs, {report.events} cluster events)",
        )
    )
    if args.output:
        # Round-trip the wire document through the result model before
        # writing: the file comes out byte-identical to what
        # `repro simulate --output` writes for the same spec (the wire
        # frame is compact/sorted JSON; persisted documents are not).
        save_result(result_from_dict(doc), args.output)
        print(f"wrote result to {args.output}")
    return 0


def cmd_faults_list(args) -> int:
    rows = [
        (name, len(plan.rules), plan.digest, plan.description)
        for name, plan in FAULT_PLANS.items()
    ]
    print(
        format_table(
            ["plan", "rules", "digest", "description"],
            rows,
            title="registered fault plans (plus file:<plan.json>)",
        )
    )
    return 0


def cmd_faults_show(args) -> int:
    try:
        plan = resolve_fault_plan(args.name)
    except FaultPlanError as exc:
        print(str(exc))
        return 2
    rows = [
        ("name", plan.name),
        ("description", plan.description or "-"),
        ("digest", plan.digest),
    ]
    for i, rule in enumerate(plan.rules):
        rows.append((f"rule[{i}]", rule.describe()))
    print(format_table(["field", "value"], rows,
                       title=f"fault plan {plan.name}"))
    return 0


def cmd_workload_list(args) -> int:
    rows = []
    for _, scenario in SCENARIOS.items():
        arrival = scenario.arrival.kind if scenario.arrival else "replay"
        span = "run's" if scenario.span is None else f"{scenario.span / HOUR:g}h"
        tenants = (
            "-" if scenario.guaranteed_fraction is None
            else f"{scenario.guaranteed_fraction:.0%} guaranteed"
        )
        rows.append((scenario.name, arrival, span, tenants,
                     scenario.dynamics or "-", scenario.description))
    print(
        format_table(
            ["scenario", "arrivals", "span", "tenants", "dynamics",
             "description"],
            rows,
            title="registered workload scenarios (plus replay:<path>)",
        )
    )
    print(
        "cluster-dynamics profiles (--dynamics): "
        + ", ".join(DYNAMICS.names())
        + ", or file:<events.json>"
    )
    return 0


def cmd_workload_show(args) -> int:
    try:
        scenario = resolve_scenario(args.name)
    except WorkloadError as exc:
        print(str(exc))
        return 2
    rows = [("name", scenario.name), ("description", scenario.description)]
    if scenario.is_replay:
        rows.append(("source", scenario.source))
    else:
        for key, value in arrival_to_dict(scenario.arrival).items():
            rows.append((f"arrival.{key}", value))
        mix = scenario.mix
        rows.extend(
            [
                ("mix.gpu_mix", " ".join(
                    f"{g}:{w:g}" for g, w in mix.gpu_mix)),
                ("mix.duration_median_min", f"{mix.duration_median / 60:g}"),
                ("mix.duration_sigma", f"{mix.duration_sigma:g}"),
                ("mix.large_model_factor", f"{mix.large_model_factor:g}"),
            ]
        )
        if mix.model_weights:
            rows.append(("mix.model_weights", " ".join(
                f"{n}:{w:g}" for n, w in mix.model_weights)))
    if scenario.span is not None:
        rows.append(("span_hours", f"{scenario.span / HOUR:g}"))
    if scenario.num_jobs is not None:
        rows.append(("num_jobs", scenario.num_jobs))
    if scenario.guaranteed_fraction is not None:
        rows.append(
            ("guaranteed_fraction", f"{scenario.guaranteed_fraction:g}")
        )
    if scenario.dynamics is not None:
        rows.append(("dynamics", scenario.dynamics))
        rows.append(
            ("dynamics.profile", resolve_dynamics(scenario.dynamics).describe())
        )
    print(format_table(["field", "value"], rows,
                       title=f"scenario {scenario.name}"))
    return 0


def cmd_workload_generate(args) -> int:
    try:
        scenario = resolve_scenario(args.name)
    except WorkloadError as exc:
        print(str(exc))
        return 2
    cluster = _cluster_from_args(args)
    try:
        trace = scenario_trace(
            scenario,
            seed=args.seed,
            cluster=cluster,
            num_jobs=args.jobs,
            span=args.span_hours * HOUR,
            plan_assignment=args.plans,
        )
    except WorkloadError as exc:
        print(str(exc))
        return 2
    save_trace(trace, args.output)
    print(
        f"wrote {len(trace)} jobs ({trace.total_gpu_hours:.0f} GPU-h, "
        f"span {trace.span / HOUR:.1f}h) from scenario {scenario.name} "
        f"to {args.output}"
    )
    return 0


def cmd_profile(args) -> int:
    try:
        cluster = _cluster_from_args(args)
        model = get_model(args.model)
    except (ValueError, KeyError) as exc:
        print(exc.args[0])
        return 2
    testbed = SyntheticTestbed(cluster, seed=args.seed)
    perf, report = build_perf_model(testbed, model, model.global_batch_size)
    rows = [(name, f"{value:.4g}") for name, value in zip(
        type(perf.params).names(), perf.params.as_vector()
    )]
    rows.append(("t_fwd_ref (s/sample)", f"{perf.t_fwd_ref:.4g}"))
    rows.append(("fit RMSLE", f"{report.rmsle:.4f}"))
    rows.append(("samples", f"{report.num_samples}"))
    print(format_table(["parameter", "value"], rows,
                       title=f"Fitted performance model: {model.display_name}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Rubick reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="replay a trace under one scheduler",
        parents=[_policy_parent(), _workload_parent(), _faults_parent()],
    )
    _add_cluster_args(p)
    p.add_argument("--trace", help="trace JSON (generated if omitted)")
    p.add_argument("--jobs", type=int, default=80)
    p.add_argument("--output", help="write the result JSON here")
    _add_stats_arg(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "compare",
        help="run several schedulers on one trace",
        parents=[
            _policy_parent(multi=True),
            _workload_parent(),
            _faults_parent(),
        ],
    )
    _add_cluster_args(p)
    p.add_argument("--trace", help="trace JSON (generated if omitted)")
    p.add_argument("--jobs", type=int, default=80)
    _add_stats_arg(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="run a (policy x scenario x variant x seed) grid across "
             "worker processes",
        parents=[
            _policy_parent(multi=True),
            _workload_parent(multi=True),
            _faults_parent(),
        ],
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--gpus-per-node", type=int, default=8)
    p.add_argument("--seeds", default="0",
                   help="comma-separated seed list (e.g. 0,1,2)")
    p.add_argument("--variants", default="base",
                   help=f"comma-separated subset of {','.join(VARIANTS)}")
    p.add_argument("--loads", default="1.0",
                   help="comma-separated arrival-rate factors (Fig. 10)")
    p.add_argument("--large-model-factors", default="1.0",
                   help="comma-separated large-model-mix factors (Fig. 11)")
    p.add_argument("--jobs", type=int, default=80)
    p.add_argument("--span-hours", type=float, default=12.0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--out", required=True,
                   help="results directory (JSONL per run)")
    p.add_argument("--resume", action="store_true",
                   help="skip runs whose result is already on disk")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="per-run attempt budget before quarantine")
    p.add_argument("--run-timeout", type=float, default=None,
                   help="per-run wall-clock budget in seconds "
                        "(default: unlimited)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run a live scheduling-service master (streamed submissions)",
        parents=[
            _policy_parent(),
            _workload_parent(),
            _faults_parent(),
            _endpoint_parent(),
            _clock_parent(),
        ],
    )
    _add_cluster_args(p)
    p.add_argument("--jobs", type=int, default=80,
                   help="run-spec jobs axis (tenant split only; the "
                        "actual jobs arrive as SUBMIT frames)")
    p.add_argument("--trace", help=argparse.SUPPRESS)
    p.add_argument("--output", help="write the drained result JSON here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="stream a scenario into a running master (load generator)",
        parents=[
            _workload_parent(),
            _endpoint_parent(),
            _clock_parent(),
        ],
    )
    _add_cluster_args(p)
    p.add_argument("--trace", help="trace JSON (generated if omitted)")
    p.add_argument("--jobs", type=int, default=80)
    p.add_argument("--connect-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="how long to wait for the master's port "
                        "file/socket to come up")
    p.add_argument("--output", help="write the drained result JSON here "
                                    "(byte-identical to `repro simulate "
                                    "--output` of the same spec under "
                                    "--virtual-clock)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "faults", help="list and inspect fault-injection plans"
    )
    fsub = p.add_subparsers(dest="faults_command", required=True)

    f = fsub.add_parser("list", help="table of registered fault plans")
    f.set_defaults(func=cmd_faults_list)

    f = fsub.add_parser("show", help="rules of one fault plan")
    f.add_argument("name", help="plan name or file:<plan.json>")
    f.set_defaults(func=cmd_faults_show)

    p = sub.add_parser(
        "workload", help="list, inspect and materialize workload scenarios"
    )
    wsub = p.add_subparsers(dest="workload_command", required=True)

    w = wsub.add_parser("list", help="table of registered scenarios")
    w.set_defaults(func=cmd_workload_list)

    w = wsub.add_parser("show", help="arrival/mix details of one scenario")
    w.add_argument("name")
    w.set_defaults(func=cmd_workload_show)

    w = wsub.add_parser(
        "generate",
        help="build a scenario's trace and save it as native JSON "
             "(also converts replay:<csv/jsonl> logs)",
    )
    w.add_argument("name")
    _add_cluster_args(w)
    w.add_argument("--jobs", type=int, default=80)
    w.add_argument("--span-hours", type=float, default=12.0,
                   help="window length (scenario overrides win, "
                        "e.g. diurnal-3d spans 3 days)")
    w.add_argument("--plans", choices=["random", "best"], default="random")
    w.add_argument("--output", required=True)
    w.set_defaults(func=cmd_workload_generate)

    p = sub.add_parser("profile", help="fit a performance model for a model")
    _add_cluster_args(p)
    p.add_argument("--model", default="gpt2-1.5b")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
