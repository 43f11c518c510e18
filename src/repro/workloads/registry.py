"""Named workload scenarios: the registry every sweep axis resolves against.

A :class:`Scenario` composes the three workload layers — an arrival process
(``repro.workloads.arrivals``), a job mix (``repro.workloads.mix``), and
optionally an external-trace source (``repro.workloads.adapters``) — under
a stable name that ``RunSpec.scenario`` / ``repro sweep --scenario`` /
``repro workload`` address.  ``paper-12h`` is the default and maps
field-for-field onto the pre-subsystem generator config, so its traces are
byte-identical to the pre-registry output (golden-tested).

``replay:<path>`` resolves dynamically to an adapter-backed scenario; every
other name must be registered.  Registration is open: downstream code can
add its own compositions with ``SCENARIOS.register(name, scenario)``.

.. note:: Register custom scenarios at *module import time* (top level of a
   module the run imports), not inside an ``if __name__ == "__main__":``
   guard.  Parallel sweeps spawn fresh worker processes that re-import
   modules but never re-execute the main guard, and resuming or loading a
   persisted ``RunSpec`` in a new process resolves the scenario name again
   — in both cases an unregistered name raises ``unknown scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.dynamics import resolve_dynamics
from repro.errors import ClusterDynamicsError, WorkloadError
from repro.names import NameRegistry
from repro.units import DAY
from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MarkovModulatedArrivals,
    PoissonArrivals,
    UniformPeaksArrivals,
)
from repro.workloads.mix import JobMix

#: The scenario every run uses unless told otherwise (the paper's §7.3
#: down-sampled busiest-12-hours trace shape).
DEFAULT_SCENARIO = "paper-12h"

#: Prefix of dynamically-resolved replay scenarios.
REPLAY_PREFIX = "replay:"


@dataclass(frozen=True)
class Scenario:
    """A named, fully-determined workload composition.

    Exactly one of ``arrival`` (synthesize) or ``source`` (replay an
    external log through an adapter) is set.  ``span``/``num_jobs``
    override the run's window/size when present (e.g. ``diurnal-3d`` spans
    three days regardless of the sweep default); ``guaranteed_fraction``
    applies the paper's two-tenant split at build time.
    """

    name: str
    description: str
    arrival: ArrivalProcess | None = None
    mix: JobMix = field(default_factory=JobMix)
    span: float | None = None
    num_jobs: int | None = None
    guaranteed_fraction: float | None = None
    source: str | None = None
    #: Named cluster-dynamics profile (``repro.cluster.dynamics``) the
    #: scenario runs under; ``None`` means a static cluster.  Runs inherit
    #: it unless ``RunSpec.dynamics`` overrides.
    dynamics: str | None = None

    def __post_init__(self) -> None:
        if (self.arrival is None) == (self.source is None):
            raise WorkloadError(
                f"scenario {self.name!r} must set exactly one of "
                "arrival (synthesize) or source (replay)"
            )
        if self.guaranteed_fraction is not None and not (
            0.0 <= self.guaranteed_fraction <= 1.0
        ):
            raise WorkloadError(
                f"scenario {self.name!r}: guaranteed_fraction must be in "
                f"[0, 1], got {self.guaranteed_fraction}"
            )
        if self.dynamics is not None:
            try:
                resolve_dynamics(self.dynamics)
            except ClusterDynamicsError as exc:
                raise WorkloadError(
                    f"scenario {self.name!r}: {exc}"
                ) from None

    @property
    def is_replay(self) -> bool:
        return self.source is not None


def _replay_scenario(path: str) -> Scenario:
    # A path typo fails here, where the name resolves, so a run spec refuses
    # it before any run of the sweep starts.
    if not Path(path).exists():
        raise WorkloadError(f"no such file: {path}")
    return Scenario(
        name=REPLAY_PREFIX + path,
        description=f"deterministic replay of {path}",
        source=path,
    )


SCENARIOS: NameRegistry[Scenario] = NameRegistry(
    "scenario", WorkloadError, REPLAY_PREFIX, _replay_scenario
)
resolve_scenario = SCENARIOS.resolve


def scenario_workload_config(
    scenario: Scenario,
    *,
    seed: int,
    cluster,
    num_jobs: int,
    span: float,
    plan_assignment: str = "random",
    trace_name: str = "base",
):
    """The generator config a synthesized scenario expands to.

    For :data:`DEFAULT_SCENARIO` the result is field-for-field the
    pre-subsystem ``WorkloadConfig`` (same trace name, so the same RNG
    streams — byte-identical traces).  Other scenarios name their traces
    after themselves, which deliberately derives fresh arrival/mix streams
    per scenario.
    """
    # Imported lazily: repro.sim.workload imports this package's arrivals
    # and mix modules at module level.
    from repro.sim.workload import WorkloadConfig

    if scenario.is_replay:
        raise WorkloadError(
            f"replay scenario {scenario.name!r} has no generator config"
        )
    mix = scenario.mix
    name = trace_name if scenario.name == DEFAULT_SCENARIO else scenario.name
    return WorkloadConfig(
        num_jobs=scenario.num_jobs if scenario.num_jobs is not None else num_jobs,
        span=scenario.span if scenario.span is not None else span,
        seed=seed,
        cluster=cluster,
        gpu_mix=mix.gpu_mix,
        duration_median=mix.duration_median,
        duration_sigma=mix.duration_sigma,
        min_duration=mix.min_duration,
        max_duration=mix.max_duration,
        model_weights=mix.weights_dict(),
        plan_assignment=plan_assignment,
        name=name,
        arrival=scenario.arrival,
    )


def scenario_trace(
    scenario: Scenario,
    *,
    seed: int,
    cluster,
    num_jobs: int = 80,
    span: float = 12 * 3600.0,
    plan_assignment: str = "random",
    trace_name: str = "base",
    testbed=None,
):
    """Build the trace a scenario describes, deterministically in the seed."""
    from repro.oracle.testbed import SyntheticTestbed
    from repro.sim.workload import generate_trace, to_multi_tenant_trace
    from repro.workloads.adapters import load_external_trace

    if scenario.is_replay:
        trace = load_external_trace(
            scenario.source,
            cluster=cluster,
            seed=seed,
            plan_assignment=plan_assignment,
            testbed=testbed,
        )
    else:
        config = scenario_workload_config(
            scenario,
            seed=seed,
            cluster=cluster,
            num_jobs=num_jobs,
            span=span,
            plan_assignment=plan_assignment,
            trace_name=trace_name,
        )
        testbed = testbed or SyntheticTestbed(cluster, seed=seed)
        trace = generate_trace(config, testbed)
    if scenario.guaranteed_fraction is not None:
        trace = to_multi_tenant_trace(
            trace,
            seed=seed,
            guaranteed_fraction=scenario.guaranteed_fraction,
            name=trace.name,
        )
    return trace


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
for _scenario in (
    Scenario(
        name=DEFAULT_SCENARIO,
        description="the paper's §7.3 shape: 12 h, uniform background + two "
                    "submission peaks, Philly GPU-size mix",
        arrival=UniformPeaksArrivals(),
    ),
    Scenario(
        name="poisson-12h",
        description="memoryless Poisson arrivals at the same average rate "
                    "over the 12 h window",
        arrival=PoissonArrivals(),
    ),
    Scenario(
        name="bursty-mmpp",
        description="Markov-modulated bursts: calm/storm flip-flop with an "
                    "8x submission-rate ratio",
        arrival=MarkovModulatedArrivals(),
    ),
    Scenario(
        name="diurnal-3d",
        description="three days of day/night submission rhythm "
                    "(peak 14:00, nights at 15%)",
        arrival=DiurnalArrivals(),
        span=3 * DAY,
    ),
    Scenario(
        name="weekly-diurnal",
        description="a full week of diurnal rhythm with quiet weekends (35%)",
        arrival=DiurnalArrivals(weekend_factor=0.35),
        span=7 * DAY,
    ),
    Scenario(
        name="largemodel-heavy",
        description="paper arrivals with the large models' sampling weight "
                    "scaled 4x (Fig. 11 extreme)",
        arrival=UniformPeaksArrivals(),
        mix=JobMix(large_model_factor=4.0),
    ),
    Scenario(
        name="multitenant-burst",
        description="bursty MMPP arrivals under the paper's two-tenant split "
                    "(50% guaranteed / 50% best-effort)",
        arrival=MarkovModulatedArrivals(),
        guaranteed_fraction=0.5,
    ),
    Scenario(
        name="paper-12h-flaky",
        description="the paper's 12 h shape on a flaky cluster: per-node "
                    "Poisson failures (MTBF 6 h, MTTR ~30 min) evicting and "
                    "restarting the jobs they hit",
        arrival=UniformPeaksArrivals(),
        dynamics="flaky",
    ),
    Scenario(
        name="scaleout-midday",
        description="paper arrivals with two extra nodes commissioned at "
                    "mid-span (operator capacity scale-up)",
        arrival=UniformPeaksArrivals(),
        dynamics="scaleout-midday",
    ),
):
    SCENARIOS.register(_scenario.name, _scenario)
