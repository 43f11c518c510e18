"""Policy interface shared by Rubick, its variants, and the baselines.

A scheduling policy is a pure-ish function from (jobs, cluster state, fitted
performance models) to a full allocation map.  The simulator owns all side
effects: it diffs the returned allocations against the current state, applies
reconfiguration penalties, and advances training progress using the testbed's
ground truth.  Policies must *never* query the testbed directly — they only
see what the real Rubick sees: fitted performance models and framework memory
estimates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.cluster.placement import Placement
from repro.cluster.state import Cluster
from repro.cluster.topology import ClusterSpec
from repro.models.specs import ModelSpec
from repro.perfmodel.model import PerfModel
from repro.planeval import PlanEvalEngine, PlanMemo
from repro.plans.plan import ExecutionPlan
from repro.scheduler.job import Job


@dataclass(frozen=True)
class Allocation:
    """One job's scheduling decision: where it runs and with which plan."""

    placement: Placement
    plan: ExecutionPlan

    @property
    def gpus(self) -> int:
        return self.placement.total.gpus


class PerfModelStore:
    """Fitted performance models keyed by model type (paper §3 reuse).

    ``model_version(name)`` increments each time that model type is
    (re)fitted: the refit generation `repro.planeval.PlanEvalEngine` keys
    its per-model memo slabs on, so refitting one model leaves every other
    model's memoized curves warm.
    """

    def __init__(self) -> None:
        self._models: dict[str, PerfModel] = {}
        self._versions: dict[str, int] = {}

    def add(self, perf: PerfModel) -> None:
        name = perf.model.name
        self._models[name] = perf
        self._versions[name] = self._versions.get(name, 0) + 1

    def model_version(self, name: str) -> int:
        """Refit generation of one model type (0 if never fitted)."""
        return self._versions.get(name, 0)

    def get(self, model: ModelSpec) -> PerfModel:
        try:
            return self._models[model.name]
        except KeyError:
            raise KeyError(
                f"no fitted performance model for {model.name!r}; "
                f"profile it first"
            ) from None

    def has(self, model: ModelSpec) -> bool:
        return model.name in self._models

    def __len__(self) -> int:
        return len(self._models)


@dataclass
class Tenant:
    """A resource tenant with a GPU quota (paper §5.1 multi-tenancy)."""

    name: str
    gpu_quota: int = 0


@dataclass
class SchedulingContext:
    """Everything a policy may consult besides the jobs and cluster state."""

    cluster_spec: ClusterSpec
    perf_store: PerfModelStore
    now: float = 0.0
    tenants: dict[str, Tenant] = field(default_factory=dict)
    #: Checkpoint-resume cost charged per reconfiguration (paper: ~78 s).
    reconfig_delta: float = 78.0
    #: Queueing-delay threshold after which a best-effort job is scheduled
    #: regardless of its slope rank, to prevent starvation (§5.2).
    starvation_threshold: float = 1800.0
    #: Plan-evaluation memo the policy's engine shares with the other
    #: simulations of this testbed (DESIGN.md 56); None keeps it private.
    plan_memo: PlanMemo | None = None

    def tenant_quota(self, name: str) -> int:
        tenant = self.tenants.get(name)
        if tenant is None:
            # Unregistered tenants are unconstrained (single-tenant traces).
            return self.cluster_spec.total_gpus
        return tenant.gpu_quota


class SchedulerPolicy(abc.ABC):
    """Base class of all scheduling policies."""

    #: Human-readable policy name used in result tables.
    name: str = "base"

    #: The policy's plan-evaluation engine, built from the first scheduling
    #: context by :meth:`engine_for` (``None`` until then, and for policies
    #: that never score plans).  ``repro simulate --planeval-stats`` reads
    #: its counters.
    engine: PlanEvalEngine | None = None

    def engine_for(self, ctx: SchedulingContext) -> PlanEvalEngine:
        """The policy's engine, built on first use from ``ctx``.

        One engine per policy instance: its memo spans every round, and the
        policy's plan selector shares it.
        """
        if self.engine is None:
            self.engine = PlanEvalEngine(
                ctx.cluster_spec, perf_store=ctx.perf_store,
                memo=ctx.plan_memo,
            )
        return self.engine

    def steady_state(self, jobs: list[Job], ctx: SchedulingContext) -> bool:
        """May tick-only rounds skip this policy while nothing else changes?

        Called by the simulator right after a decision that turned out to be
        a no-op fixed point, with no job mid-pause (queued and running jobs
        may both be present).  Return True only if the *next* invocation
        under unchanged state is guaranteed to repeat that decision.  A
        *reactive* policy — its decision a pure function of the observable
        job/cluster/model state, independent of the clock (``ctx.now``) and
        of quantities that accrue with simulated time — returns True
        always: tick-only rounds where that state is provably unchanged (no
        arrival, completion, pause resumption, model refit, or allocation
        delta since the last decision) would reproduce the same allocation
        map verbatim.  Policies whose time dependence is monotone — e.g. a
        reconfiguration gate that can only open as training time accrues,
        or a starvation guard armed only while a best-effort job queues —
        return True exactly when no such latent trigger is still pending
        (see :class:`~repro.scheduler.rubick.RubickPolicy`).  The default,
        False, invokes the policy on every round.
        """
        return False

    @abc.abstractmethod
    def schedule(
        self,
        jobs: list[Job],
        cluster: Cluster,
        ctx: SchedulingContext,
    ) -> dict[str, Allocation]:
        """Produce the desired allocation for every job that should run.

        Jobs absent from the returned mapping are left queued (or preempted,
        if currently running).  Implementations must return placements that
        fit within cluster capacity given that *only* the jobs in the
        returned map (plus nothing else) hold resources — the simulator
        releases every active job's resources before applying the new map.
        """
        raise NotImplementedError
