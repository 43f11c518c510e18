"""Declarative sweep grids: frozen, individually-addressable run specs.

A :class:`SweepSpec` describes a grid of simulations — policies × workload
scenarios × trace variants × seeds × (cluster, load, model-mix) knobs — and
expands into a deterministic tuple of :class:`RunSpec`, one per simulation.
Every RunSpec is a frozen, JSON-round-trippable value object with a stable
``run_key``: the same spec always produces the same keys, across processes
and Python versions, so sweep results are individually addressable on disk
and a crashed sweep can resume by key.

The ``scenario`` axis names a registered workload composition
(``repro.workloads.registry``) or a ``replay:<path>`` adapter source.  The
default scenario is *omitted from the identity digest*, so every pre-axis
run key is unchanged — old sweep directories keep resuming.

Nothing here touches a simulator: specs are pure data.  Workers rebuild
``Simulator``/``SyntheticTestbed`` objects from the spec (see
``repro.experiments.runner``) — simulator state never crosses a process
boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.cluster.dynamics import NO_DYNAMICS_NAME, resolve_dynamics
from repro.cluster.topology import ClusterSpec, NodeSpec
from repro.errors import ClusterDynamicsError, WorkloadError
from repro.scheduler.registry import POLICIES
from repro.sim.workload import WorkloadConfig, with_large_model_share
from repro.units import HOUR
from repro.workloads.registry import (
    DEFAULT_SCENARIO,
    resolve_scenario,
    scenario_workload_config,
)

#: Trace variants of the paper's evaluation (§7.3).
VARIANTS = ("base", "bp", "mt")

SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation: (policy, trace, seed, cluster).

    ``large_model_factor`` and ``load_factor`` default to the neutral 1.0,
    which means "leave the workload untouched" (applying a factor of 1.0
    would still rename the trace and therefore re-draw its arrival stream).
    """

    policy: str
    variant: str = "base"
    seed: int = 0
    num_jobs: int = 80
    span: float = 12 * HOUR
    nodes: int = 8
    gpus_per_node: int = 8
    #: Arrival-rate compression factor (Fig. 10): jobs arrive this much faster.
    load_factor: float = 1.0
    #: Sampling-weight factor for the large catalog models (Fig. 11).
    large_model_factor: float = 1.0
    plan_assignment: str = "random"
    trace_name: str = "base"
    #: When set, the trace is loaded from this JSON file instead of being
    #: generated (variant/load transforms still apply on top).
    trace_path: str | None = None
    #: Named workload composition (``repro.workloads.registry``) or
    #: ``replay:<path>``.  The default is digest-transparent: pre-axis run
    #: keys are unchanged.
    scenario: str = DEFAULT_SCENARIO
    #: Cluster-dynamics profile (``repro.cluster.dynamics``) or
    #: ``file:<path>``.  The empty default means "inherit the scenario's
    #: dynamics (none if it declares none)" and is digest-transparent, so
    #: pre-axis run keys are unchanged; an explicit ``"none"`` overrides a
    #: dynamic scenario back to a static cluster.
    dynamics: str = ""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {sorted(POLICIES)}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown trace variant {self.variant!r}; known: {VARIANTS}"
            )
        for name in ("span", "load_factor", "large_model_factor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        self.cluster  # ClusterSpec rejects a bad shape here, not mid-run
        try:
            scenario = resolve_scenario(self.scenario)
        except WorkloadError as exc:
            raise ValueError(str(exc)) from None
        if self.dynamics:
            try:
                resolve_dynamics(self.dynamics)
            except ClusterDynamicsError as exc:
                raise ValueError(str(exc)) from None
        if (
            self.num_jobs <= 0
            and self.trace_path is None
            and not scenario.is_replay
        ):
            raise ValueError("num_jobs must be positive")

    # ------------------------------------------------------------------
    # Derived simulation inputs
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> ClusterSpec:
        return ClusterSpec(
            num_nodes=self.nodes, node=NodeSpec(num_gpus=self.gpus_per_node)
        )

    def workload_config(self) -> WorkloadConfig:
        """The generator config this run's trace derives from.

        Raises :class:`~repro.errors.WorkloadError` for replay scenarios,
        which have no generator (the runner ingests their source instead).
        """
        config = scenario_workload_config(
            resolve_scenario(self.scenario),
            seed=self.seed,
            cluster=self.cluster,
            num_jobs=self.num_jobs,
            span=self.span,
            plan_assignment=self.plan_assignment,
            trace_name=self.trace_name,
        )
        if self.large_model_factor != 1.0:
            config = with_large_model_share(config, self.large_model_factor)
        return config

    @property
    def effective_dynamics(self) -> str:
        """The cluster-dynamics profile this run executes under.

        The empty default inherits the scenario's dynamics (``"none"``
        when the scenario declares none); an explicit name — including
        ``"none"`` itself — overrides the scenario.
        """
        if self.dynamics:
            return self.dynamics
        scenario = resolve_scenario(self.scenario)
        return scenario.dynamics or NO_DYNAMICS_NAME

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if not data["dynamics"]:
            # Sparse default: persisted pre-axis run documents stay byte-
            # identical (`from_dict` defaults the missing field back).
            del data["dynamics"]
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunSpec":
        return RunSpec(**data)

    def _digest(self, *, include_policy: bool) -> str:
        payload = self.to_dict()
        if not include_policy:
            payload.pop("policy")
        # Digest-transparent defaults: keys minted before the scenario and
        # dynamics axes existed stay valid (old sweep directories keep
        # resuming).
        if payload.get("scenario") == DEFAULT_SCENARIO:
            payload.pop("scenario")
        if not payload.get("dynamics"):
            payload.pop("dynamics", None)
        canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
        return hashlib.sha256(canonical.encode()).hexdigest()[:8]

    @property
    def run_key(self) -> str:
        """Stable, filesystem-safe identity of this run.

        Human-readable prefix (policy, variant, seed) plus a digest over
        *all* fields, so any knob change produces a fresh key.
        """
        return (
            f"{self.policy}-{self.variant}-s{self.seed}"
            f"-{self._digest(include_policy=True)}"
        )

    @property
    def trace_fingerprint(self) -> str:
        """Identity of the trace alone (everything except the policy).

        Runs sharing a fingerprint replay the exact same trace; the runner
        memoizes trace construction on it.
        """
        return self._digest(include_policy=False)

    @property
    def cell_key(self) -> tuple:
        """Aggregation cell: everything except the seed."""
        no_seed = replace(self, seed=0)
        return (self.policy, no_seed.trace_fingerprint)

    @property
    def trace_label(self) -> str:
        """Short human label of the trace cell (for report tables)."""
        if self.trace_path is not None:
            label = self.trace_path
        elif self.scenario != DEFAULT_SCENARIO:
            label = self.scenario
        else:
            label = self.trace_name
        if self.variant != "base":
            label += f"/{self.variant}"
        if self.load_factor != 1.0:
            label += f"@x{self.load_factor:g}"
        if self.large_model_factor != 1.0:
            label += f" lm*{self.large_model_factor:g}"
        if self.dynamics:
            # Only explicit overrides are labeled; a scenario's own
            # dynamics is already named by the scenario itself.
            label += f" ~{self.dynamics}"
        return label


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of runs (the unit `repro sweep` executes).

    Expansion order is the documented nesting — scenario, dynamics,
    variant, load factor, large-model factor, seed, policy — and is
    deterministic: the same spec always yields the same runs in the same
    order.
    """

    policies: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    variants: tuple[str, ...] = ("base",)
    scenarios: tuple[str, ...] = (DEFAULT_SCENARIO,)
    #: Cluster-dynamics axis; the empty default inherits each scenario's
    #: own dynamics (see :attr:`RunSpec.dynamics`).
    dynamics: tuple[str, ...] = ("",)
    num_jobs: int = 80
    span: float = 12 * HOUR
    nodes: int = 8
    gpus_per_node: int = 8
    load_factors: tuple[float, ...] = (1.0,)
    large_model_factors: tuple[float, ...] = (1.0,)
    plan_assignment: str = "random"
    trace_name: str = "base"

    def __post_init__(self) -> None:
        # Accept lists for convenience; store canonical tuples.
        for name in (
            "policies", "seeds", "variants", "scenarios", "dynamics",
            "load_factors", "large_model_factors",
        ):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for group, values in (
            ("policies", self.policies),
            ("seeds", self.seeds),
            ("variants", self.variants),
            ("scenarios", self.scenarios),
            ("dynamics", self.dynamics),
            ("load_factors", self.load_factors),
            ("large_model_factors", self.large_model_factors),
        ):
            if not values:
                # An empty axis would silently expand to a 0-run sweep.
                raise ValueError(f"{group} must have at least one entry")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate entries in {group}: {values}")

    def expand(self) -> tuple[RunSpec, ...]:
        """The full grid as individually-addressable runs."""
        runs = []
        for scenario in self.scenarios:
            for dyn in self.dynamics:
                for variant in self.variants:
                    for load in self.load_factors:
                        for lm_factor in self.large_model_factors:
                            for seed in self.seeds:
                                for policy in self.policies:
                                    runs.append(
                                        RunSpec(
                                            policy=policy,
                                            variant=variant,
                                            seed=seed,
                                            num_jobs=self.num_jobs,
                                            span=self.span,
                                            nodes=self.nodes,
                                            gpus_per_node=self.gpus_per_node,
                                            load_factor=load,
                                            large_model_factor=lm_factor,
                                            plan_assignment=self.plan_assignment,
                                            trace_name=self.trace_name,
                                            scenario=scenario,
                                            dynamics=dyn,
                                        )
                                    )
        return tuple(runs)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if data["dynamics"] == ("",):
            # Sparse default, mirroring RunSpec.to_dict.
            del data["dynamics"]
        data["format_version"] = SPEC_FORMAT_VERSION
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "SweepSpec":
        data = dict(data)
        data.pop("format_version", None)
        for name in (
            "policies", "seeds", "variants", "scenarios", "dynamics",
            "load_factors", "large_model_factors",
        ):
            if name in data:
                data[name] = tuple(data[name])
        return SweepSpec(**data)
