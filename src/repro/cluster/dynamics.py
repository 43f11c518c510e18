"""Cluster dynamics: node failure/recovery and capacity-scaling events.

Every experiment before this subsystem assumed an immutable cluster.  Real
clusters churn: nodes fail and come back, operators commission and
decommission capacity mid-day.  This module describes that churn as a
deterministic stream of :class:`ClusterEvent` values that the simulator
injects through its event calendar and applies via
:meth:`~repro.cluster.state.Cluster.remove_node` /
:meth:`~repro.cluster.state.Cluster.add_node`:

* ``fail`` / ``recover`` — one node goes down (evicting every job with a
  share on it) and later comes back with the same node id;
* ``scale-up`` / ``scale-down`` — ``count`` whole nodes are commissioned
  (appended with fresh ids) or decommissioned (highest-id up nodes first,
  evicting their jobs).

*How* events are produced is pluggable, mirroring the arrival processes of
``repro.workloads.arrivals``: frozen, serializable process configs with a
single ``events(seed, span, cluster)`` contract —

* :class:`NoDynamics` — the empty stream (the digest-transparent default:
  a run with no events is byte-identical to a pre-subsystem run);
* :class:`FixedDynamics` — deterministic replay of an explicit event list
  (also reachable as ``file:<path>`` for JSON event documents);
* :class:`RandomFailures` — per-node Poisson failures (MTBF/MTTR), each
  node drawing from its own derived RNG stream so profiles compose
  stably under capacity scaling;
* :class:`ScaleSchedule` — capacity deltas at span fractions (e.g. "two
  extra nodes at mid-day").

Named profiles live in a registry (``flaky``, ``scaleout-midday``, …) that
``RunSpec.dynamics`` / ``Scenario.dynamics`` / ``--dynamics`` resolve
against, exactly like workload scenarios.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, ClassVar

from repro.errors import ClusterDynamicsError
from repro.names import NameRegistry
from repro.rng import rng_for
from repro.units import HOUR, MINUTE

#: Event kinds (the strings are the serialization format).
NODE_FAIL = "fail"
NODE_RECOVER = "recover"
SCALE_UP = "scale-up"
SCALE_DOWN = "scale-down"
EVENT_KINDS = (NODE_FAIL, NODE_RECOVER, SCALE_UP, SCALE_DOWN)

#: The profile name meaning "no cluster dynamics" (always registered).
NO_DYNAMICS_NAME = "none"

#: Prefix of dynamically-resolved event-file profiles.
FILE_PREFIX = "file:"

#: Most nodes one scaling event may commission or decommission.  Events
#: arrive from files and service clients, and a scale-up builds one node
#: per count; four times the largest fleet any bench runs is ample.
MAX_SCALE_COUNT = 4096


@dataclass(frozen=True)
class ClusterEvent:
    """One change to cluster capacity at an absolute simulation time.

    ``fail``/``recover`` carry the ``node_id`` they act on;
    ``scale-up``/``scale-down`` carry a node ``count`` instead.
    """

    time: float
    kind: str
    node_id: int | None = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ClusterDynamicsError(
                f"unknown cluster event kind {self.kind!r}; "
                f"known: {EVENT_KINDS}"
            )
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ClusterDynamicsError(
                f"cluster event time must be finite and >= 0, got {self.time}"
            )
        if self.kind in (NODE_FAIL, NODE_RECOVER) and self.node_id is None:
            raise ClusterDynamicsError(
                f"{self.kind} event needs a node_id"
            )
        if self.node_id is not None and self.node_id < 0:
            raise ClusterDynamicsError(
                f"cluster event node_id must be >= 0, got {self.node_id}"
            )
        if self.kind in (SCALE_UP, SCALE_DOWN) and not (
            0 < self.count <= MAX_SCALE_COUNT
        ):
            raise ClusterDynamicsError(
                f"{self.kind} event needs a count in [1, {MAX_SCALE_COUNT}], "
                f"got {self.count}"
            )

    def describe(self) -> str:
        target = (
            f"node {self.node_id}"
            if self.node_id is not None
            else f"{self.count} node(s)"
        )
        return f"t={self.time:.0f}s {self.kind} {target}"


def _sort_events(events) -> tuple[ClusterEvent, ...]:
    """Stable deterministic order: time, then kind, then target."""
    return tuple(
        sorted(
            events,
            key=lambda e: (
                e.time,
                EVENT_KINDS.index(e.kind),
                -1 if e.node_id is None else e.node_id,
                e.count,
            ),
        )
    )


@dataclass(frozen=True)
class ClusterDynamics:
    """Base class: a deterministic producer of cluster events.

    ``events`` must be a pure function of ``(seed, span, cluster)`` — the
    same triple always yields the same stream, bit for bit, so persisted
    sweep results stay reproducible across processes and Python versions.
    """

    #: Registry key of the concrete process (used for (de)serialization).
    kind: ClassVar[str] = "abstract"

    def events(self, *, seed: int, span: float, cluster) -> tuple[ClusterEvent, ...]:
        """Sorted cluster events for a run of ``span`` seconds."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human summary for CLI listings."""
        fields = ", ".join(
            f"{name}={value!r}" for name, value in asdict(self).items()
        )
        return f"{self.kind}({fields})"


@dataclass(frozen=True)
class NoDynamics(ClusterDynamics):
    """The empty event stream — an immutable cluster (the default)."""

    kind: ClassVar[str] = "none"

    def events(self, *, seed: int, span: float, cluster) -> tuple[ClusterEvent, ...]:
        return ()


@dataclass(frozen=True)
class FixedDynamics(ClusterDynamics):
    """Deterministic replay of an explicit event list.

    Times are absolute simulation seconds; the stream ignores the run's
    seed and span, so the same profile replays identically under every
    workload (the replay analogue of ``FixedArrivals``).
    """

    kind: ClassVar[str] = "fixed"

    fixed_events: tuple[ClusterEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fixed_events", _sort_events(self.fixed_events)
        )

    def events(self, *, seed: int, span: float, cluster) -> tuple[ClusterEvent, ...]:
        return self.fixed_events


@dataclass(frozen=True)
class RandomFailures(ClusterDynamics):
    """Per-node Poisson failures with exponential recovery times.

    Each node draws failure/recovery intervals from its *own* RNG stream
    (derived from ``(seed, node_id)``), so scaling the cluster up or down
    never reshuffles another node's failure history.  Failures stop
    arriving after ``span`` but an in-flight recovery may complete later —
    jobs still active past the window need their nodes back.
    """

    kind: ClassVar[str] = "random-failures"

    #: Mean time between failures of one node (seconds).
    mtbf: float = 6 * HOUR
    #: Mean time to recovery after a failure (seconds).
    mttr: float = 30 * MINUTE
    #: Floor on recovery time: a failed node is down at least this long.
    min_downtime: float = 5 * MINUTE

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ClusterDynamicsError(
                f"mtbf and mttr must be positive, got "
                f"mtbf={self.mtbf}, mttr={self.mttr}"
            )
        if self.min_downtime < 0:
            raise ClusterDynamicsError(
                f"min_downtime must be >= 0, got {self.min_downtime}"
            )

    def events(self, *, seed: int, span: float, cluster) -> tuple[ClusterEvent, ...]:
        out: list[ClusterEvent] = []
        for node_id in range(cluster.num_nodes):
            rng = rng_for(seed, "cluster-dynamics", self.kind, node_id)
            t = 0.0
            while True:
                t += float(rng.exponential(self.mtbf))
                if t >= span:
                    break
                down = max(float(rng.exponential(self.mttr)), self.min_downtime)
                out.append(ClusterEvent(time=t, kind=NODE_FAIL, node_id=node_id))
                t += down
                out.append(
                    ClusterEvent(time=t, kind=NODE_RECOVER, node_id=node_id)
                )
        return _sort_events(out)


@dataclass(frozen=True)
class ScaleSchedule(ClusterDynamics):
    """Capacity deltas at span fractions (operator-driven scaling).

    ``steps`` entries are ``(span_fraction, node_delta)``: a positive delta
    commissions that many fresh nodes, a negative one decommissions (and
    evicts) the highest-id up nodes.  The schedule is deterministic — no
    randomness is consumed.
    """

    kind: ClassVar[str] = "scale-schedule"

    steps: tuple[tuple[float, int], ...] = ((0.5, 2),)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps", tuple(tuple(s) for s in self.steps)
        )
        for fraction, delta in self.steps:
            if not 0.0 <= fraction <= 1.0:
                raise ClusterDynamicsError(
                    f"scale step fraction must be in [0, 1], got {fraction}"
                )
            if not 0 < abs(delta) <= MAX_SCALE_COUNT:
                raise ClusterDynamicsError(
                    f"scale step delta must be nonzero and at most "
                    f"{MAX_SCALE_COUNT} nodes, got {delta}"
                )

    def events(self, *, seed: int, span: float, cluster) -> tuple[ClusterEvent, ...]:
        out = []
        for fraction, delta in self.steps:
            kind = SCALE_UP if delta > 0 else SCALE_DOWN
            out.append(
                ClusterEvent(time=fraction * span, kind=kind, count=abs(delta))
            )
        return _sort_events(out)


# ----------------------------------------------------------------------
# (De)serialization
# ----------------------------------------------------------------------
DYNAMICS_KINDS: dict[str, type[ClusterDynamics]] = {
    cls.kind: cls
    for cls in (NoDynamics, FixedDynamics, RandomFailures, ScaleSchedule)
}

EVENTS_FORMAT_VERSION = 1


def event_to_dict(event: ClusterEvent) -> dict[str, Any]:
    data: dict[str, Any] = {"time": event.time, "kind": event.kind}
    if event.node_id is not None:
        data["node_id"] = event.node_id
    if event.kind in (SCALE_UP, SCALE_DOWN):
        data["count"] = event.count
    return data


def event_from_dict(data: dict[str, Any]) -> ClusterEvent:
    try:
        return ClusterEvent(
            time=float(data["time"]),
            kind=str(data["kind"]),
            node_id=(
                int(data["node_id"]) if data.get("node_id") is not None else None
            ),
            count=int(data.get("count", 1)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ClusterDynamicsError(f"malformed cluster event {data!r}: {exc}")


def dynamics_to_dict(dynamics: ClusterDynamics) -> dict[str, Any]:
    data: dict[str, Any] = {"kind": dynamics.kind}
    if isinstance(dynamics, FixedDynamics):
        data["events"] = [event_to_dict(e) for e in dynamics.fixed_events]
    else:
        data.update(asdict(dynamics))
    return data


def dynamics_from_dict(data: dict[str, Any]) -> ClusterDynamics:
    kind = data.get("kind")
    cls = DYNAMICS_KINDS.get(kind)
    if cls is None:
        raise ClusterDynamicsError(
            f"unknown dynamics kind {kind!r}; known: {sorted(DYNAMICS_KINDS)}"
        )
    fields = {k: v for k, v in data.items() if k != "kind"}
    if cls is FixedDynamics:
        return FixedDynamics(
            fixed_events=tuple(
                event_from_dict(e) for e in fields.pop("events", ())
            )
        )
    if cls is ScaleSchedule and "steps" in fields:
        fields["steps"] = tuple(tuple(s) for s in fields["steps"])
    return cls(**fields)


def load_cluster_events(path: str | Path) -> FixedDynamics:
    """Load a ``file:<path>`` JSON event document as a replay profile."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ClusterDynamicsError(f"cannot read event file {path}: {exc}")
    version = data.get("format_version")
    if version != EVENTS_FORMAT_VERSION:
        raise ClusterDynamicsError(
            f"{path}: unsupported event format version {version!r} "
            f"(expected {EVENTS_FORMAT_VERSION})"
        )
    return FixedDynamics(
        fixed_events=tuple(event_from_dict(e) for e in data.get("events", ()))
    )


def save_cluster_events(
    dynamics: FixedDynamics, path: str | Path
) -> None:
    Path(path).write_text(
        json.dumps(
            {
                "format_version": EVENTS_FORMAT_VERSION,
                "events": [event_to_dict(e) for e in dynamics.fixed_events],
            },
            indent=1,
            allow_nan=False,
        )
    )


# ----------------------------------------------------------------------
# Named-profile registry
# ----------------------------------------------------------------------
DYNAMICS: NameRegistry[ClusterDynamics] = NameRegistry(
    "dynamics profile", ClusterDynamicsError, FILE_PREFIX, load_cluster_events
)
resolve_dynamics = DYNAMICS.resolve

#: Built-in profiles.
NO_DYNAMICS = DYNAMICS.register(NO_DYNAMICS_NAME, NoDynamics())
DYNAMICS.register("flaky", RandomFailures())
DYNAMICS.register(
    "flaky-heavy", RandomFailures(mtbf=2 * HOUR, mttr=45 * MINUTE)
)
DYNAMICS.register("scaleout-midday", ScaleSchedule(steps=((0.5, 2),)))
DYNAMICS.register(
    "scale-cycle", ScaleSchedule(steps=((0.25, 2), (0.75, -2)))
)
