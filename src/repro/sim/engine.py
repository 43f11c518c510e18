"""Discrete-time cluster simulator (paper §7.4).

The simulator replays a trace against a scheduling policy.  Ground-truth job
progress comes from the synthetic testbed; the policy sees only fitted
performance models — the same information asymmetry the real system has.

Mechanics:

* **Event-driven core** — the clock jumps to the next of {job arrival,
  predicted completion, cluster event, periodic tick}, read from an
  incremental :class:`~repro.sim.events.EventCalendar`.  Job progress is
  accrued lazily from per-job anchors (:meth:`Simulator._materialize`),
  completions pop from the calendar's hint heap, and ``_apply`` touches
  only the jobs whose placement or plan changed.  The policy runs at
  every event or, under ``EngineConfig.scale_mode``, at most once per
  ``tick_interval``; either way a round whose previous decision is still
  provably the fixed point skips it (see
  :meth:`~repro.scheduler.interfaces.SchedulerPolicy.steady_state` —
  DESIGN.md items 26–28, 37).  Results are pinned absolutely by the
  digests in ``tests/data/golden.json``.
* **Reconfiguration cost** — whenever a running job's GPU placement or plan
  changes (including preemption + later restart), the job pauses for the
  checkpoint-resume delta (default 78 s, the paper's measured mean).
  CPU/host-memory-only changes are free (cgroup updates, no restart).
* **SLA accounting** — each guaranteed job's achieved execution throughput is
  compared against the ground-truth throughput of its requested resources +
  initial plan.
* **Cluster dynamics** — an optional :class:`~repro.cluster.dynamics`
  event stream (node failures/recoveries, capacity scaling) drains through
  the same calendar.  A failure evicts every job on the node: progress
  since the last checkpoint is destroyed (charged to ``lost_gpu_seconds``),
  the victim re-queues through ``_requeue`` and pays the reconfiguration
  delta plus a one-shot ``restart_penalty`` when it restarts.  A dynamics
  round never takes the steady-state short-circuit.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.cluster.dynamics import (
    NODE_FAIL,
    NODE_RECOVER,
    SCALE_UP,
    SCALE_DOWN,
    ClusterEvent,
)
from repro.cluster.placement import Placement
from repro.cluster.resources import ResourceVector
from repro.cluster.state import Cluster
from repro.cluster.topology import ClusterSpec
from repro.errors import (
    ClusterDynamicsError,
    FittingError,
    InjectedFault,
    OutOfMemoryError,
    SimulationError,
)
from repro.faults.injector import incident_payload
from repro.oracle.profiler import build_perf_model, profiling_cost_seconds
from repro.oracle.testbed import SyntheticTestbed
from repro.perfmodel.shape import ResourceShape
from repro.planeval import (
    DEFAULT_CPUS_PER_GPU,
    PlanEvalEngine,
    PlanMemo,
    TestbedScorer,
)
from repro.plans.memory import estimate_memory
from repro.scheduler.interfaces import (
    Allocation,
    PerfModelStore,
    SchedulerPolicy,
    SchedulingContext,
    Tenant,
)
from repro.scheduler.job import Job, JobSpec, JobStatus
from repro.sim.events import EventCalendar
from repro.sim.metrics import Incident, JobRecord, SimulationResult
from repro.sim.trace import Trace

_EPS = 1e-6

#: Internal `_step` outcomes.  ``_CONTINUE`` — the step budget (`until` /
#: one round) ran out with events still pending; ``_IDLE`` — a live session
#: drained every queued event and is waiting for submissions; ``_DONE`` —
#: the run terminated (stream closed, nothing active, nothing pending).
_CONTINUE = "continue"
_IDLE = "idle"
_DONE = "done"


#: Simulated-time budget (s); a run past it raises ``SimulationError``.
MAX_SIM_TIME = 120 * 3600.0
#: Periodic checkpoint cadence (run-seconds).  Checkpoints bound the
#: progress a node failure can destroy: an eviction rolls the job back
#: to its last checkpoint, and the GPU-seconds that produced the
#: destroyed progress are accounted as lost.
CHECKPOINT_INTERVAL = 1800.0
#: A policy exception mid-round is *contained*: placements hold for the
#: round and a structured :class:`Incident` lands on the result.  After
#: this many CONSECUTIVE policy failures the run escalates to a hard
#: :class:`SimulationError` (carrying the incident stream) — a policy
#: that never recovers must not spin forever.
MAX_POLICY_INCIDENTS = 3
#: Consecutive stuck policy rounds (nothing running, nothing arriving, no
#: cluster event pending) the deadlock guard tolerates before failing.
DEADLOCK_PATIENCE = 3


@dataclass(frozen=True)
class EngineConfig:
    """Frozen simulator knobs: everything that is plain data, not a live
    collaborator (testbeds, perf stores, refitters and injectors stay
    constructor arguments).  The engine reads them as ``self.config``; each
    field's semantics are documented on it below."""

    seed: int = 0
    #: Checkpoint-resume pause (s) a job pays whenever its GPU placement or
    #: plan changes; the paper's measured mean.
    reconfig_delta: float = 78.0
    #: Periodic tick (s) between events; in ``scale_mode`` also the round
    #: cadence of the policy.
    tick_interval: float = 300.0
    #: Extra pause an *evicted* job pays on top of the reconfiguration
    #: delta when it restarts (checkpoint refetch + re-scheduling a
    #: failure costs more than a planned checkpoint-resume).  Only
    #: cluster-dynamics evictions charge it; preemptions do not.
    restart_penalty: float = 300.0
    #: Policy cadence, and nothing else: both cadences share one loop (lazy
    #: accrual, heap-driven completions, the steady-state short-circuit).
    #: ``False`` lets the policy run at every event.  ``True`` runs it in
    #: Gavel/Shockwave-style *rounds* — at most once per ``tick_interval``,
    #: batching every arrival, completion and eviction since the last
    #: round — so a job can queue up to a round longer and results are NOT
    #: byte-identical to the default cadence.  Correctness is asserted via
    #: invariants and uncontended-trace equivalence
    #: (``tests/test_scale_mode.py``), per the large-scale testing policy
    #: in DESIGN.md.
    scale_mode: bool = False
    #: Retention bound forwarded to ``SimulationResult.max_records`` (None
    #: keeps every record — the default).  Large runs set it so a 100k-job
    #: result is a bounded sample plus exact streamed aggregates rather
    #: than 100k live record objects.
    result_record_limit: int | None = None


def _accrue_pause(job: Job, held_gpus: int, t_from: float, t: float) -> float:
    """Accrue a PAUSED job's pause over ``[t_from, t]``; returns the
    seconds of that window it spends running after the pause ends.

    The checkpoint-resume part of the pause is reconfiguration overhead;
    the restart-penalty tail (evictions only — ``penalty_pause_from`` is
    +inf otherwise) is dynamics waste and accrues to lost GPU-seconds
    instead.  Overhead accounting is in *held* GPU-seconds: Rubick's whole
    point is that held != requested (§7.3).  The job resumes (RUNNING)
    once the window reaches the pause end.
    """
    pause_end = min(job.pause_until, t)
    paused_dt = max(pause_end - t_from, 0.0)
    reconfig_dt = max(min(pause_end, job.penalty_pause_from) - t_from, 0.0)
    job.reconfig_seconds += reconfig_dt
    job.reconfig_gpu_seconds += held_gpus * reconfig_dt
    penalty_dt = paused_dt - reconfig_dt
    if penalty_dt > 0.0:
        job.lost_gpu_seconds += held_gpus * penalty_dt
    if t + _EPS >= job.pause_until:
        job.status = JobStatus.RUNNING
    return max(t - max(t_from, job.pause_until), 0.0)


def _wall_clock() -> float:
    """Host seconds for the engine's wall-clock perf fields (never persisted)."""
    return _time.perf_counter()


@dataclass
class StepReport:
    """What one :meth:`Simulator.step` slice did.

    ``wall_seconds`` is a wall-clock perf channel for live observability
    (the service's stdout log); like the result's run-level twins it is
    never persisted and never enters METRICS payloads (DESIGN.md item 28).
    """

    now: float
    rounds: int
    admitted: int
    completed: int
    incidents: int
    done: bool
    idle: bool
    wall_seconds: float


@dataclass
class _LiveRun:
    """Mutable state of one simulation session (between ``step()`` calls).

    The step functions load these into locals on entry and store them back
    on exit (``run()`` makes exactly one ``step`` call, so the hot loop
    keeps its local-variable speed).
    """

    result: SimulationResult
    cluster: Cluster
    calendar: EventCalendar
    active: dict[str, Job]
    gpu_seconds: dict[str, float]
    ctx: SchedulingContext
    #: True while the session accepts live submissions: the run pauses
    #: (status "idle") instead of terminating when the queue drains.
    stream_open: bool = False
    now: float = 0.0
    seq: int = 0
    started: bool = False
    finished: bool = False
    #: Job ids pushed but not yet admitted (duplicate-submission guard —
    #: admitted ids are tracked by ``gpu_seconds``).
    pending_ids: set[str] = field(default_factory=set)
    #: Consecutive contained policy failures (escalation counter).
    policy_failures: int = 0
    #: Consecutive stuck rounds (deadlock guard).
    idle_rounds: int = 0
    #: Earliest time the cadence lets the policy run again.
    next_policy_at: float = 0.0
    #: A policy round is pending: something changed since the last round,
    #: or the last round was not steady (the short-circuit is disarmed).
    pending: bool = True


class SharedMemo:
    """Plan-evaluation memos the simulations of one testbed may share.

    Everything here is a pure function of ``key`` (the testbed's identity,
    which fixes the cluster spec too): the memoized ground-truth scorer,
    the per-request intrinsics, and one :class:`~repro.planeval.PlanMemo`
    behind both the ground-truth engine and the policies' fitted-model
    engines.  A :class:`Simulator` built without one makes a private memo;
    :func:`repro.experiments.runner.simulator_for_run` hands every run of
    one testbed the same memo (DESIGN.md 56).
    """

    def __init__(self, testbed: SyntheticTestbed) -> None:
        self.key = testbed.key
        #: Memoized ground-truth scorer (its ``true_throughput`` memo also
        #: serves the per-round re-scoring in :meth:`Simulator._apply`).
        self.scorer = TestbedScorer(testbed)
        self.plans = PlanMemo()
        #: ``(model, batch, gpus, cpus, plan) -> (baseline, best, host_mem)``
        #: for :meth:`Simulator._intrinsics`.
        self.intrinsics: dict[tuple, tuple[float, float, int]] = {}


class Simulator:
    """Replays a trace under one scheduling policy."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        policy: SchedulerPolicy,
        *,
        config: EngineConfig | None = None,
        testbed: SyntheticTestbed | None = None,
        perf_store: PerfModelStore | None = None,
        online_refitter=None,
        injector=None,
        memo: SharedMemo | None = None,
    ):
        config = config or EngineConfig()
        #: The frozen knob set this simulator was built with.
        self.config = config
        self.cluster_spec = cluster_spec
        self.policy = policy
        self.testbed = testbed or SyntheticTestbed(cluster_spec, seed=config.seed)
        self.perf_store = perf_store or PerfModelStore()
        #: Optional :class:`repro.perfmodel.online.OnlineRefitter` — when
        #: set, every realized-throughput observation can trigger a refit
        #: (paper §4.3 continuous model fitting).
        self.online_refitter = online_refitter
        #: Optional :class:`repro.faults.FaultInjector` arming the
        #: simulator-level seams (``policy-round``, ``perfmodel-fit``).
        #: ``None`` — the default — is the zero-fault path.
        self.injector = injector
        if memo is None:
            memo = SharedMemo(self.testbed)
        elif memo.key != self.testbed.key:
            raise ValueError("a shared memo serves only its own testbed")
        #: Ground-truth memos (private unless ``memo`` was passed); ground
        #: truth never refits, so their entries never go stale.
        self.memo = memo
        self.scorer = memo.scorer
        #: Ground-truth plan evaluation (intrinsic-work accounting): the
        #: same memoized engine the policies use, but scored against the
        #: testbed instead of fitted models.
        self.plan_engine = PlanEvalEngine(
            cluster_spec, scorer=self.scorer, memo=memo.plans
        )
        self._intrinsics_cache = memo.intrinsics
        #: Current session (:meth:`start` / :meth:`step`); ``run`` is a
        #: start + one full step, so batch and live share one state machine.
        self._live: _LiveRun | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _record_incident(
        self,
        result: SimulationResult,
        kind: str,
        now: float,
        *,
        job_ids: tuple[str, ...] = (),
        exc: BaseException | None = None,
        message: str = "",
    ) -> None:
        """Append one structured, deterministic incident to the result."""
        payload = incident_payload(exc) if exc is not None else {}
        result.incidents.append(
            Incident(
                kind=kind,
                round=result.sim_rounds,
                time=now,
                job_ids=job_ids,
                error=payload.get("error", ""),
                message=message or payload.get("message", ""),
                traceback_digest=payload.get("traceback_digest", ""),
            )
        )

    def _fit_model(self, tj):
        """One model fit, with the ``perfmodel-fit`` seam armed."""
        if self.injector is not None:
            self.injector.check("perfmodel-fit")
        perf, _ = build_perf_model(
            self.testbed, tj.model, tj.model.global_batch_size
        )
        return perf

    def _profile_models(self, trace: Trace, result: SimulationResult) -> float:
        """Fit a performance model per model type (paper phase ①).

        A fit failure (a real :class:`FittingError` or the injected
        ``perfmodel-fit`` seam) is retried once with an incident recorded;
        a second failure for the same model escalates to a hard
        :class:`SimulationError` carrying the incident stream.
        """
        count = 0
        for tj in trace:
            count += self._ensure_model(tj, result)
        return count * profiling_cost_seconds()

    def _ensure_model(self, tj, result: SimulationResult) -> int:
        """Fit the job's model unless already fitted; returns fits done (0/1).

        Shared by batch profiling (phase ①, every model up front) and live
        submission (:meth:`submit` fits on first sight of a model).  The
        testbed derives a fresh RNG stream per measurement from the seed, so
        *when* a model is fitted cannot change the fit — only first-sight
        order matters, and a streamed trace preserves it.  The wall time of
        a fit lands on ``result.fit_wall_seconds``.
        """
        if self.perf_store.has(tj.model):
            return 0
        fit_start = _wall_clock()
        try:
            perf = self._fit_model(tj)
        except (FittingError, InjectedFault) as exc:
            self._record_incident(result, "perfmodel-fit-error", 0.0, exc=exc)
            try:
                perf = self._fit_model(tj)
            except (FittingError, InjectedFault) as exc2:
                raise SimulationError(
                    f"performance-model fitting failed twice for "
                    f"model {tj.model.name!r}: {exc2}",
                    incidents=tuple(result.incidents),
                ) from exc2
        self.perf_store.add(perf)
        if self.online_refitter is not None:
            from repro.oracle.profiler import (
                collect_samples,
                default_profile_configs,
            )

            configs = default_profile_configs(
                self.testbed, tj.model, tj.model.global_batch_size
            )
            self.online_refitter.register_profiling_samples(
                tj.model,
                collect_samples(
                    self.testbed, tj.model,
                    tj.model.global_batch_size, configs,
                ),
            )
        result.fit_wall_seconds += _wall_clock() - fit_start
        return 1

    def _best_throughput(self, model, gpus: int, global_batch: int) -> float:
        """Ground-truth best-plan throughput at a packed allocation (memoized).

        The duration→samples translation uses the *model's* throughput at
        the requested GPU count (paper §7.3) — i.e. the best feasible plan —
        so a job's work is intrinsic, independent of how (un)lucky its
        randomly assigned initial plan is.  The testbed-backed plan engine
        owns enumeration, feasibility filtering, and memoization; its
        scorer's is_feasible check covers GPU *and* host memory, so the
        engine-level host filter is off.
        """
        shape = ResourceShape.packed(
            gpus,
            node_size=self.cluster_spec.node.num_gpus,
            cpus=gpus * DEFAULT_CPUS_PER_GPU,
        )
        best = self.plan_engine.best(
            model, global_batch, shape, check_host_mem=False
        )
        return best.throughput if best is not None else 0.0

    def _intrinsics(self, tj) -> tuple[int, float, float, float]:
        """``(cpus, baseline, best_thr, host_mem)`` of one job request.

        The derived intrinsics (SLA baseline, best-plan throughput, host
        memory demand) are pure functions of the request key: they are
        scored against ground truth, which never refits.  Traces draw
        from a small set of model/batch/plan/gpu combinations, so at
        datacenter scale (50k arrivals) almost every job is a memo hit.
        Raises the testbed's feasibility error (e.g.
        :class:`OutOfMemoryError`) for a request the cluster cannot launch.
        """
        model = tj.model
        cpus = tj.requested_cpus or tj.requested_gpus * DEFAULT_CPUS_PER_GPU
        key = (model.name, tj.global_batch, tj.requested_gpus, cpus, tj.initial_plan)
        hit = self._intrinsics_cache.get(key)
        if hit is not None:
            baseline, best_thr, host_mem = hit
        else:
            shape = ResourceShape.packed(
                tj.requested_gpus,
                node_size=self.cluster_spec.node.num_gpus,
                cpus=cpus,
            )
            # SLA baseline: what the user's own configuration would achieve.
            baseline = self.scorer.true_throughput(
                model, tj.initial_plan, shape, tj.global_batch
            )
            best_thr = self._best_throughput(
                model, tj.requested_gpus, tj.global_batch
            )
            host_mem = math.ceil(estimate_memory(
                model, tj.initial_plan, tj.global_batch
            ).host_total)
            self._intrinsics_cache[key] = (baseline, best_thr, host_mem)
        return cpus, baseline, best_thr, host_mem

    def _make_job(self, tj) -> Job:
        model = tj.model
        cpus, baseline, best_thr, host_mem = self._intrinsics(tj)
        spec = JobSpec(
            job_id=tj.job_id,
            model=model,
            global_batch=tj.global_batch,
            requested=ResourceVector(
                gpus=tj.requested_gpus, cpus=cpus, host_mem=host_mem
            ),
            initial_plan=tj.initial_plan,
            total_samples=tj.duration * max(best_thr, baseline),
            submit_time=tj.submit_time,
            priority=tj.priority,
            tenant=tj.tenant,
        )
        job = Job(spec=spec)
        job.baseline_throughput = baseline
        job.last_queue_enter = tj.submit_time
        return job

    # ------------------------------------------------------------------
    # Session lifecycle: start / step / submit / drain — run() is the
    # batch wrapper (start + one unbounded step)
    # ------------------------------------------------------------------
    def start(
        self,
        trace: Trace | None = None,
        *,
        tenants: dict[str, Tenant] | None = None,
        cluster_events: Sequence[ClusterEvent] | None = None,
        stream: bool = False,
    ) -> None:
        """Open a simulation session.

        ``stream=True`` keeps the submission stream open: the session
        pauses (``StepReport.idle``) instead of terminating when the queue
        drains, and accepts :meth:`submit` / :meth:`post_cluster_event`
        between :meth:`step` slices until :meth:`drain` closes the stream.
        ``run()`` is exactly ``start(trace)`` + ``step(until=inf)``.
        """
        wall_start = _wall_clock()
        if trace is None:
            trace = Trace(jobs=(), name="live")
        # The result exists before profiling so fit failures can land
        # incidents on it (and escalation can carry them).
        result = SimulationResult(
            policy_name=self.policy.name,
            trace_name=trace.name,
            max_records=self.config.result_record_limit,
        )
        result.profiling_seconds = self._profile_models(trace, result)
        self._live = _LiveRun(
            result=result,
            cluster=Cluster(self.cluster_spec),
            calendar=EventCalendar(
                trace.jobs, self.config.tick_interval,
                cluster_events=tuple(cluster_events or ()),
            ),
            # Insertion order is arrival order: the policy sees jobs in
            # admission order.
            active={},
            gpu_seconds={},
            ctx=SchedulingContext(
                cluster_spec=self.cluster_spec,
                perf_store=self.perf_store,
                tenants=tenants or {},
                reconfig_delta=self.config.reconfig_delta,
                plan_memo=self.memo.plans,
            ),
            stream_open=stream,
        )
        # Fitting is reported on its own (fit_wall_seconds, counted inside
        # _ensure_model); the simulator's own setup stays here.
        result.sim_wall_seconds += (
            _wall_clock() - wall_start - result.fit_wall_seconds
        )

    def _require_live(self) -> _LiveRun:
        if self._live is None:
            raise SimulationError("no open session: call start() or run() first")
        return self._live

    def result(self) -> SimulationResult:
        """The open session's (possibly still-accumulating) result."""
        return self._require_live().result

    def _stream_stamp(
        self, what: str, t: float, clamp: bool
    ) -> tuple[_LiveRun, bool]:
        """The streaming session, and whether an item stamped ``t`` is late.

        Shared by :meth:`submit` and :meth:`post_cluster_event`: the
        stream must be open, and an item behind the session clock is an
        error unless ``clamp`` asks to re-stamp it to "now" (returned
        ``True``; the caller re-stamps).
        """
        st = self._require_live()
        if not st.stream_open:
            raise SimulationError(
                "submission stream is closed; open the session with "
                "start(stream=True)"
            )
        late = st.started and t < st.now - _EPS
        if late and not clamp:
            raise ValueError(
                f"{what} {t:.3f} is behind the session clock {st.now:.3f} "
                "(pass clamp=True to admit it now)"
            )
        return st, late

    def submit(self, tj, *, clamp: bool = False):
        """Stream one :class:`~repro.sim.trace.TraceJob` into the session.

        Deterministic contract (virtual-clock service mode): submissions
        must not be behind the session clock — a frame that arrives late is
        an error, because admitting it would depend on delivery timing.
        Real-time mode passes ``clamp=True`` instead, re-stamping the job
        to "now" (wall-clock arrival order *is* the semantics there).
        Returns the (possibly re-stamped) trace job.  A request the cluster
        cannot launch, or whose work is not finite, raises here, before
        anything is queued: the job is derived exactly as admission will
        derive it, through the same memoized scoring.
        """
        st, late = self._stream_stamp(
            f"job {tj.job_id!r} submit_time", tj.submit_time, clamp
        )
        if tj.job_id in st.pending_ids or tj.job_id in st.gpu_seconds:
            raise ValueError(f"duplicate job id {tj.job_id!r}")
        if tj.submit_time > MAX_SIM_TIME:
            # Its arrival would end the session (see ``_stop``).
            raise ValueError(
                f"job {tj.job_id!r} submit_time {tj.submit_time:g} is past "
                f"max_sim_time={MAX_SIM_TIME:g}"
            )
        if tj.requested_gpus > self.cluster_spec.total_gpus:
            raise ValueError(
                f"job {tj.job_id!r} requests {tj.requested_gpus} GPUs but "
                f"the cluster has {self.cluster_spec.total_gpus}"
            )
        self._make_job(tj)
        if late:
            tj = replace(tj, submit_time=st.now)
        st.result.profiling_seconds += (
            self._ensure_model(tj, st.result) * profiling_cost_seconds()
        )
        st.pending_ids.add(tj.job_id)
        st.calendar.push_arrival(tj)
        return tj

    def post_cluster_event(
        self, event: ClusterEvent, *, clamp: bool = False
    ) -> ClusterEvent:
        """Stream one cluster-dynamics event into the session."""
        st, late = self._stream_stamp("cluster event time", event.time, clamp)
        if late:
            event = replace(event, time=st.now)
        st.calendar.push_cluster_event(event)
        return event

    def drain(self, trace_name: str | None = None) -> None:
        """Close the submission stream: the next unbounded step terminates.

        ``trace_name`` lets a service client stamp the result with the name
        of the trace it replayed (matching what a batch run would record).
        """
        st = self._require_live()
        st.stream_open = False
        if trace_name is not None:
            st.result.trace_name = trace_name

    def status(self) -> dict:
        """Cheap structured snapshot of the session (service STATUS frame)."""
        st = self._live
        if st is None:
            return {"state": "no-session"}
        result = st.result
        running = sum(1 for j in st.active.values() if j.is_running)
        if st.finished:
            state = "finished"
        elif st.stream_open:
            state = "streaming"
        else:
            state = "draining"
        return {
            "state": state,
            "now": st.now,
            "active": len(st.active),
            "running": running,
            "queued": len(st.active) - running,
            "admitted": st.seq,
            "completed": len(result.records) + result.dropped_records,
            "rounds": result.sim_rounds,
            "policy": result.policy_name,
        }

    def step(self, until: float | None = None) -> StepReport:
        """Advance the session and report what the slice did.

        ``until=None`` executes exactly one event round; a finite ``until``
        keeps processing rounds while ``now < until`` (the clock only stops
        on event boundaries, and an event pushed at exactly ``until`` is
        processed by the *next* slice — which is what makes
        push-then-``step(until=t)`` replay byte-identical to a batch run);
        ``float("inf")`` runs to completion (or to idle, while the stream
        is open).
        """
        st = self._require_live()
        wall_start = _wall_clock()
        result = st.result
        if st.finished:
            return StepReport(
                now=st.now, rounds=0, admitted=0, completed=0, incidents=0,
                done=True, idle=False, wall_seconds=0.0,
            )
        rounds0 = result.sim_rounds
        admitted0 = st.seq
        completed0 = len(result.records) + result.dropped_records
        incidents0 = len(result.incidents)
        if not st.started:
            if (
                st.stream_open
                and not st.active
                and not st.calendar.has_arrivals
            ):
                # Nothing submitted yet: keep the clock unstarted so the
                # first real submission fast-forwards to its arrival time
                # exactly like a batch run fast-forwards to the trace head.
                return StepReport(
                    now=st.now, rounds=0, admitted=0, completed=0,
                    incidents=0, done=False, idle=True,
                    wall_seconds=_wall_clock() - wall_start,
                )
            st.now = st.calendar.first_arrival_time(default=st.now)
            st.started = True
        outcome = self._step(st, until)
        if outcome is _DONE:
            self._finalize(st)
        wall = _wall_clock() - wall_start
        result.sim_wall_seconds += wall
        return StepReport(
            now=st.now,
            rounds=result.sim_rounds - rounds0,
            admitted=st.seq - admitted0,
            completed=len(result.records) + result.dropped_records - completed0,
            incidents=len(result.incidents) - incidents0,
            done=st.finished,
            idle=outcome is _IDLE,
            wall_seconds=wall,
        )

    def _finalize(self, st: _LiveRun) -> None:
        result = st.result
        bounds = result.span_bounds()
        result.makespan = bounds[1] - bounds[0] if bounds else 0.0
        result.calendar_fast_rounds = st.calendar.fast_rounds
        st.finished = True

    def run(
        self,
        trace: Trace,
        *,
        tenants: dict[str, Tenant] | None = None,
        cluster_events: Sequence[ClusterEvent] | None = None,
    ) -> SimulationResult:
        """Replay a whole trace to completion.

        A thin wrapper over the incremental core: opens a session with the
        stream already closed and takes one unbounded step.
        """
        self.start(trace, tenants=tenants, cluster_events=cluster_events)
        self.step(until=float("inf"))
        return self._live.result

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def _complete(self, st: _LiveRun, job: Job, now: float) -> None:
        """FINISHED transition: release, invalidate, record."""
        job_id = job.spec.job_id
        job.status = JobStatus.FINISHED
        job.finish_time = now
        job.throughput = 0.0
        st.cluster.release(job_id)
        st.calendar.invalidate(job_id)
        del st.active[job_id]
        st.result.add_record(JobRecord.from_job(job, st.gpu_seconds[job_id]))

    def _apply_cluster_events(self, st: _LiveRun, now: float) -> bool:
        """Apply every cluster event due at ``now``; True if any applied.

        Runs after completions (a job finishing exactly at a failure
        instant keeps its completion) and before the policy: victims are
        already re-queued with cleared placements when the scheduler next
        runs — which it must, so a dynamics round counts as a change, like
        an arrival.  An event that cannot apply at its time (a node id beyond
        the cluster, failing a down node, recovering an up node) is skipped
        with a ``cluster-event-error`` incident and not counted.
        """
        result = st.result
        applied = False
        for event in st.calendar.pop_cluster_events(now + _EPS):
            try:
                self._apply_cluster_event(
                    event, st.cluster, st.active, now, st.calendar, result,
                    st.gpu_seconds,
                )
            except ClusterDynamicsError as exc:
                self._record_incident(
                    result, "cluster-event-error", now, exc=exc
                )
                continue
            result.cluster_events += 1
            applied = True
        return applied

    def _stop(self, st: _LiveRun, now: float) -> str | None:
        """``_IDLE``/``_DONE`` once nothing is active or arriving, else None.

        A run still going past ``MAX_SIM_TIME`` raises instead.
        """
        if not st.active and not st.calendar.has_arrivals:
            return _IDLE if st.stream_open else _DONE
        if now > MAX_SIM_TIME:
            raise SimulationError(
                f"simulation exceeded max_sim_time={MAX_SIM_TIME}; "
                f"{len(st.active)} jobs still active"
            )
        return None

    def _check_deadlock(
        self, st: _LiveRun, active_list: list[Job], now: float
    ) -> None:
        """Deadlock guard: nothing running, nothing arriving, queue stuck.

        Pending cluster events disarm it: a recovery or scale-up may be
        exactly what unblocks the queue.  The run fails after more than
        ``DEADLOCK_PATIENCE`` consecutive stuck rounds, reporting through
        the same incident stream as contained faults before escalating.
        """
        calendar = st.calendar
        if (
            any(j.is_running for j in active_list)
            or calendar.has_arrivals
            or calendar.has_cluster_events
        ):
            st.idle_rounds = 0
            return
        st.idle_rounds += 1
        if st.idle_rounds <= DEADLOCK_PATIENCE:
            return
        stuck = tuple(j.job_id for j in active_list[:5])
        message = (
            f"policy {self.policy.name!r} cannot place "
            f"remaining jobs ({', '.join(stuck)} ...) on an empty cluster"
        )
        self._record_incident(
            st.result, "deadlock", now, job_ids=stuck, message=message
        )
        raise SimulationError(message, incidents=tuple(st.result.incidents))

    # ------------------------------------------------------------------
    # The event loop (one until-bounded slice per call)
    # ------------------------------------------------------------------
    def _step(self, st: _LiveRun, until: float | None) -> str:
        """The event loop, sliced (mechanics in the module docstring).

        Work per event is O(events due), plus one pass over the placed jobs
        in each round the cadence allows the policy to run in: they are
        materialized before it, whether the policy runs or the round is a
        steady-state skip, so a skip accrues exactly like a run.  Session
        state is loaded into locals on entry and stored back in the
        ``finally`` so the hot loop keeps its local-variable speed
        (``run()`` makes exactly one call here).
        """
        result = st.result
        cluster = st.cluster
        calendar = st.calendar
        active = st.active
        gpu_seconds = st.gpu_seconds
        now = st.now
        next_policy_at = st.next_policy_at
        pending = st.pending
        seq = st.seq
        round_interval = (
            self.config.tick_interval if self.config.scale_mode else 0.0
        )
        # Bound-method/attribute hoists: the loop below runs once per event
        # (~100k rounds on the datacenter leg), so repeated lookups are
        # measurable wall time.
        _make_job = self._make_job
        _materialize = self._materialize
        pop_arrivals = calendar.pop_arrivals
        pop_due_completions = calendar.pop_due_completions
        active_get = active.get
        _RUNNING = JobStatus.RUNNING
        _PAUSED = JobStatus.PAUSED
        outcome = _CONTINUE
        try:
            while until is None or now < until:
                cutoff = now + _EPS
                # --- admit arrivals at `now` -------------------------------
                for tj in pop_arrivals(cutoff):
                    job = _make_job(tj)
                    job.seq = seq
                    seq += 1
                    active[tj.job_id] = job
                    gpu_seconds[tj.job_id] = 0.0
                    pending = True

                # --- detect completions (heap-driven) -----------------------
                finished_now: list[Job] = []
                for job_id in pop_due_completions(cutoff):
                    job = active_get(job_id)
                    if job is None or (
                        job.status is not _RUNNING and job.status is not _PAUSED
                    ):
                        continue  # stale hint raced a same-round transition
                    _materialize(job, now, gpu_seconds)
                    if job.remaining_samples <= _EPS:
                        finished_now.append(job)
                    else:
                        # Ulp-level residue after many re-anchorings: push a
                        # fresh hint for the (tiny) remainder.
                        calendar.track(job, now)
                if finished_now:
                    for job in sorted(finished_now, key=lambda j: j.seq):
                        self._complete(st, job, now)
                    pending = True

                if self._apply_cluster_events(st, now):
                    pending = True

                stop = self._stop(st, now)
                if stop is not None:
                    # A live session pauses before the round is counted.
                    # The slice that resumes after the next submission
                    # re-runs this round, still pending from the
                    # completions that emptied the queue, so the policy
                    # observes the arrivals exactly as a batch round would.
                    outcome = stop
                    break

                result.sim_rounds += 1
                # --- policy round (when the cadence allows one) -------------
                if now + _EPS >= next_policy_at:
                    # Materialize every placed job before the policy observes
                    # or changes it: accrual up to `now` must use the
                    # pre-round configuration.
                    for job_id in cluster.all_job_ids():
                        _materialize(active[job_id], now, gpu_seconds)
                    if pending:
                        pending = self._policy_round(st, now)
                        # The round clock advances even when the round was
                        # contained, so a repeatedly failing policy cannot
                        # pin the event loop to one timestamp.
                        next_policy_at = now + round_interval
                    else:
                        # Steady-state short-circuit: nothing the policy's
                        # decision depends on has changed since it last
                        # ran, so invoking it would reproduce the current
                        # allocation verbatim.
                        result.policy_skips += 1
                        st.idle_rounds = 0  # steady state implies running jobs

                # --- choose the next event time ------------------------------
                now = calendar.next_event_time(
                    now, policy_at=next_policy_at if pending else None
                )
                if until is None:
                    break
        finally:
            # Stored back even when a SimulationError propagates: the
            # session then reflects the state at escalation (the service
            # layer reports it from here).
            st.now = now
            st.next_policy_at = next_policy_at
            st.pending = pending
            st.seq = seq
        return outcome

    def _policy_round(self, st: _LiveRun, now: float) -> bool:
        """Run and apply the policy; True if a round is still pending.

        Containment: a policy exception leaves current placements holding
        for the round, lands a ``policy-error`` incident on the result and
        keeps the round pending for a retry; only ``MAX_POLICY_INCIDENTS``
        consecutive failures escalate to a hard :class:`SimulationError`.

        The next rounds may skip the policy only if: models cannot refit
        (refit observations happen in `_apply`, so skipping would starve
        the refitter); this round was a no-op fixed point; no job is
        mid-pause (the resume is a time-driven status flip the policy
        observes); and the policy declares itself time-insensitive in this
        state (`steady_state` — e.g. Rubick keeps running while a queued
        best-effort job could cross the starvation threshold or a
        reconfiguration gate is still closed).
        """
        result = st.result
        ctx = st.ctx
        ctx.now = now
        active_list = list(st.active.values())
        wall = _wall_clock()
        try:
            if self.injector is not None:
                self.injector.check("policy-round")
            allocations = self.policy.schedule(active_list, st.cluster, ctx)
        except Exception as exc:
            st.policy_failures += 1
            self._record_incident(
                result, "policy-error", now,
                job_ids=tuple(j.job_id for j in active_list[:5]),
                exc=exc,
            )
            if st.policy_failures >= MAX_POLICY_INCIDENTS:
                raise SimulationError(
                    f"policy {self.policy.name!r} failed "
                    f"{st.policy_failures} consecutive rounds",
                    incidents=tuple(result.incidents),
                ) from exc
            return True
        finally:
            result.policy_wall_seconds += _wall_clock() - wall
            result.policy_invocations += 1
        st.policy_failures = 0
        changed = self._apply(
            allocations, active_list, st.cluster, now, st.calendar, result
        )
        self._check_deadlock(st, active_list, now)
        return not (
            self.online_refitter is None
            and not changed
            and any(j.is_running for j in active_list)
            and all(j.status != JobStatus.PAUSED for j in active_list)
            and self.policy.steady_state(active_list, ctx)
        )

    def _materialize(
        self, job: Job, t: float, gpu_seconds: dict[str, float]
    ) -> None:
        """Bring a lazily-advanced job's state forward to time ``t``.

        Accrues held GPU-seconds, the pause split (:func:`_accrue_pause`)
        and progress over ``[anchor, t]``, then re-anchors at ``t``.
        Periodic checkpoints land on their exact run-time boundaries
        (several may have passed since anything touched the job), which is
        well-defined because throughput is constant since the last
        configuration change.
        """
        t_from = job.anchor_time
        dt = t - t_from
        if dt <= 0:
            return
        job.anchor_time = t
        status = job.status
        if status is JobStatus.QUEUED:
            return
        held_gpus = job.placement.total.gpus
        gpu_seconds[job.spec.job_id] += held_gpus * dt
        if status is JobStatus.PAUSED:
            active_dt = _accrue_pause(job, held_gpus, t_from, t)
        else:
            active_dt = dt
        thr = job.throughput
        if active_dt > 0 and thr > 0:
            job.samples_done += thr * active_dt
            job.run_seconds += active_dt
            while (
                job.run_seconds - job.run_seconds_at_checkpoint
                >= CHECKPOINT_INTERVAL
            ):
                ckpt_run = (
                    job.run_seconds_at_checkpoint + CHECKPOINT_INTERVAL
                )
                job.samples_at_checkpoint = (
                    job.samples_done
                    - thr * (job.run_seconds - ckpt_run)
                )
                job.run_seconds_at_checkpoint = ckpt_run

    # ------------------------------------------------------------------
    # Applying policy decisions
    # ------------------------------------------------------------------
    def _apply(
        self,
        allocations: dict[str, Allocation],
        active: list[Job],
        cluster: Cluster,
        now: float,
        calendar: EventCalendar,
        result: SimulationResult,
    ) -> bool:
        """Reconcile the policy's allocation map with the cluster.

        Jobs whose placement *and* plan are unchanged are skipped entirely:
        no cluster release/re-apply churn, no ground-truth re-query (their
        throughput is a pure function of the unchanged configuration), no
        feasibility re-check.  Only the changed subset is released (all of it
        first, then applied in order, so moves between jobs never
        transiently over-commit a node).

        Returns True if any job's state changed (placement, plan, status or
        throughput) — the fixed-point signal the steady-state short-circuit
        keys on.
        """
        job_changed: dict[str, bool] = {}
        previous: dict[str, tuple] = {}
        for job in active:
            job_id = job.spec.job_id
            alloc = allocations.get(job_id)
            running = job.is_running
            if alloc is None and not running:
                # Idle queued job the policy passed over: it holds no
                # cluster resources (requeue/evict/finish all release),
                # so the release below would be a no-op and the second
                # pass would skip it — elide both.  At datacenter scale
                # the pending queue dwarfs the placed set, making this
                # the common case.
                continue
            unchanged = (
                alloc is not None
                and running
                and alloc.plan == job.plan
                and alloc.placement.shares == job.placement.shares
            )
            if unchanged:
                job_changed[job_id] = False
                continue
            previous[job_id] = (job.placement, job.plan)
            cluster.release(job_id)
            job_changed[job_id] = True

        changed_any = False
        for job in active:
            job_id = job.spec.job_id
            changed = job_changed.get(job_id)
            if changed is None:  # elided above: idle queued, nothing to do
                continue
            if not changed:
                # Unchanged running job: the refitter still observes its
                # realized throughput each round (the value comes from the
                # memo, not a re-derivation).
                if self.online_refitter is not None:
                    self._observe(
                        job,
                        job.plan,
                        ResourceShape.from_placement(job.placement),
                        job.throughput,
                    )
                continue
            alloc = allocations.get(job_id)
            prev_placement, prev_plan = previous[job_id]
            if alloc is None or alloc.placement.is_empty:
                if job.is_running:  # preemption
                    self._requeue(job, now, calendar)
                    changed_any = True
                continue
            changed_any = True
            try:
                cluster.apply(job_id, alloc.placement)
            except Exception as exc:
                # Policy produced an over-committed placement; treat as a
                # failed launch, leave the job queued, and surface the
                # containment on the incident stream.
                self._record_incident(
                    result, "apply-error", now, job_ids=(job_id,), exc=exc
                )
                cluster.release(job_id)
                if job.is_running:
                    self._requeue(job, now, calendar)
                continue
            shape = ResourceShape.from_placement(alloc.placement)
            try:
                thr = self.scorer.true_throughput(
                    job.model, alloc.plan, shape, job.spec.global_batch
                )
            except OutOfMemoryError:
                cluster.release(job_id)
                if job.is_running:
                    self._requeue(job, now, calendar)
                continue

            if self.online_refitter is not None:
                self._observe(job, alloc.plan, shape, thr)

            gpus_changed = self._gpu_shares(alloc.placement) != self._gpu_shares(
                prev_placement
            )
            plan_changed = alloc.plan != prev_plan
            was_queued = job.status == JobStatus.QUEUED
            job.placement = alloc.placement
            job.plan = alloc.plan
            job.throughput = thr
            if was_queued:
                job.queue_seconds += now - job.last_queue_enter
                job.anchor_time = now  # a queued job accrues nothing
                if job.start_time is None:
                    job.start_time = now
                    job.status = JobStatus.RUNNING
                else:
                    # Restart from checkpoint after preemption/eviction; an
                    # evicted job additionally pays the one-shot restart
                    # penalty (zero outside cluster dynamics).  The penalty
                    # tail of the pause is charged to lost GPU-seconds, not
                    # the reconfiguration metrics — a policy that merely
                    # suffered more evictions must not read as
                    # reconfiguring more aggressively.
                    job.status = JobStatus.PAUSED
                    job.pause_until = (
                        now + self.config.reconfig_delta + job.pending_restart_penalty
                    )
                    job.penalty_pause_from = (
                        now + self.config.reconfig_delta
                        if job.pending_restart_penalty > 0
                        else float("inf")
                    )
                    job.pending_restart_penalty = 0.0
                    job.reconfig_count += 1
            elif gpus_changed or plan_changed:
                job.status = JobStatus.PAUSED
                job.pause_until = now + self.config.reconfig_delta
                job.penalty_pause_from = float("inf")
                job.reconfig_count += 1
            # CPU/host-only changes keep the job running untouched.
            if was_queued or gpus_changed or plan_changed:
                # Configuration changes go through checkpoint-resume: the
                # progress saved here is what a later eviction falls back to.
                job.samples_at_checkpoint = job.samples_done
                job.run_seconds_at_checkpoint = job.run_seconds
            calendar.track(job, now)
        return changed_any

    # ------------------------------------------------------------------
    # Cluster dynamics
    # ------------------------------------------------------------------
    def _apply_cluster_event(
        self,
        event: ClusterEvent,
        cluster: Cluster,
        active: dict[str, Job],
        now: float,
        calendar: EventCalendar,
        result: SimulationResult,
        gpu_seconds: dict[str, float],
    ) -> None:
        """Apply one failure/recovery/scaling event and evict its victims.

        A cluster transition that cannot apply raises
        :class:`ClusterDynamicsError` before changing any state.
        """
        victims: list[str] = []
        if event.kind == NODE_FAIL:
            victims = cluster.remove_node(event.node_id)
        elif event.kind == NODE_RECOVER:
            cluster.add_node(event.node_id)
        elif event.kind == SCALE_UP:
            for _ in range(event.count):
                cluster.add_node()
        elif event.kind == SCALE_DOWN:
            # Decommission the highest-id up nodes (deterministic choice);
            # removing more nodes than are up drains what exists.
            up_ids = sorted(
                (n.node_id for n in cluster.nodes if n.up), reverse=True
            )
            for node_id in up_ids[: event.count]:
                victims.extend(cluster.remove_node(node_id))
        for job_id in victims:
            job = active.get(job_id)
            if job is not None:
                self._evict(job, now, calendar, result, gpu_seconds)

    def _evict(
        self,
        job: Job,
        now: float,
        calendar: EventCalendar,
        result: SimulationResult,
        gpu_seconds: dict[str, float],
    ) -> None:
        """Eviction: materialize to ``now``, roll back to the last
        checkpoint and re-queue.

        The cluster side has already been released by ``remove_node``.
        Progress since the last checkpoint is destroyed — there was no
        chance to checkpoint before the node vanished — and the held
        GPU-seconds that produced it are charged to ``lost_gpu_seconds``
        (progress and configuration are constant since the checkpoint, so
        ``destroyed / throughput × held`` is exact).  The job restarts
        later through the normal ``_apply`` path, paying the
        reconfiguration delta plus the one-shot restart penalty.
        """
        self._materialize(job, now, gpu_seconds)
        held = job.placement.total.gpus
        if job.throughput > 0:
            destroyed = job.samples_done - job.samples_at_checkpoint
            if destroyed > 0:
                job.lost_gpu_seconds += held * destroyed / job.throughput
                job.samples_done = job.samples_at_checkpoint
        job.restart_count += 1
        job.pending_restart_penalty = self.config.restart_penalty
        result.evictions += 1
        self._requeue(job, now, calendar)

    def _observe(self, job: Job, plan, shape, thr: float) -> None:
        """Feed one realized-throughput observation to the online refitter."""
        perf = self.perf_store.get(job.model)
        updated = self.online_refitter.observe(
            perf, job.model, plan, shape, job.spec.global_batch, thr
        )
        if updated is not perf:
            self.perf_store.add(updated)

    @staticmethod
    def _requeue(job: Job, now: float, calendar: EventCalendar) -> None:
        """Send a running job back to the queue with no residual allocation.

        Used for preemption, failed launches and evictions; the cluster
        side has already been released, so the job must not keep a stale
        placement, and its completion hint is invalidated.
        """
        job.status = JobStatus.QUEUED
        job.placement = Placement.empty()
        job.plan = None
        job.throughput = 0.0
        job.last_queue_enter = now
        calendar.invalidate(job.job_id)

    @staticmethod
    def _gpu_shares(placement) -> dict[int, int]:
        return {
            node_id: share.gpus
            for node_id, share in placement.shares.items()
            if share.gpus > 0
        }
