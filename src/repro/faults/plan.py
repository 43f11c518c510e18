"""Deterministic fault plans: *what* fails, *where*, and *when*.

The robustness harness (DESIGN.md) treats failures as first-class inputs,
the way ``repro.cluster.dynamics`` treats capacity churn: a frozen,
serializable :class:`FaultPlan` lives behind a named registry and is
resolved by ``repro sweep --faults <name>`` (or ``file:<path>`` for a JSON
plan document).  A plan is a set of :class:`FaultRule` values, each naming

* a **seam** — one of the instrumented failure points in :data:`SEAMS`
  (worker crash/hang mid-run, torn or truncated run documents, an
  interrupted store publish, policy exceptions mid-round, perf-model fit
  failure, trace-build failure);
* a **run_key glob** — which runs of the sweep the rule applies to; and
* **occurrence indices** — the 1-based invocation counts of that seam at
  which the fault fires.  Counts accumulate across retry attempts of the
  same run, so a rule with ``times=(1,)`` fails the first attempt and lets
  the retry succeed, while ``times=(1, 2, 3, ...)`` poisons the run
  permanently.

Everything is deterministic by construction: no randomness, no clocks.
The same plan applied to the same sweep produces byte-identical quarantine
records and incident streams, and the empty plan (``none``) leaves every
output byte-identical to a sweep with no fault plumbing at all.

Fault plans are *execution-level* inputs: they are deliberately NOT part
of :class:`~repro.experiments.spec.RunSpec` identity, so a run key never
changes because chaos was enabled — a quarantined run re-runs cleanly
under an empty plan with the same key.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import FaultPlanError
from repro.names import NameRegistry

#: Instrumented failure points.  The strings are the serialization format
#: and the vocabulary of ``FaultInjector.check``/``mangle`` call sites.
SEAMS = (
    "worker-crash",    # sweep worker dies mid-run (before sim.run)
    "worker-hang",     # sweep worker hangs (classified like a timeout)
    "store-publish",   # crash between tmp write and os.replace
    "store-record",    # torn write: the run document is truncated
    "policy-round",    # policy raises mid-scheduling-round
    "perfmodel-fit",   # performance-model fitting fails
    "trace-build",     # trace adapter / workload construction fails
)

#: The plan name meaning "no faults" (always registered).
NO_FAULTS_NAME = "none"

#: Prefix of dynamically-resolved plan-file names.
FILE_PREFIX = "file:"

PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultRule:
    """Fire a fault at a seam, for matching runs, at given occurrences.

    ``run_match`` is an ``fnmatch``-style glob over run keys (case
    sensitive); ``times`` are 1-based occurrence indices of the seam
    *within one run* (counted across retry attempts).
    """

    seam: str
    run_match: str = "*"
    times: tuple[int, ...] = (1,)
    detail: str = ""

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise FaultPlanError(
                f"unknown fault seam {self.seam!r}; known: {SEAMS}"
            )
        times = tuple(sorted(set(int(t) for t in self.times)))
        if not times:
            raise FaultPlanError(
                f"fault rule for seam {self.seam!r} needs at least one "
                "occurrence index"
            )
        if times[0] < 1:
            raise FaultPlanError(
                f"fault occurrence indices are 1-based, got {times[0]}"
            )
        object.__setattr__(self, "times", times)

    def matches(self, run_key: str, occurrence: int) -> bool:
        return occurrence in self.times and fnmatch.fnmatchcase(
            run_key, self.run_match
        )

    def describe(self) -> str:
        times = ",".join(str(t) for t in self.times)
        out = f"{self.seam} @ {times} for {self.run_match!r}"
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A named, frozen set of fault rules.

    The plan's :attr:`digest` is stable across processes and Python
    versions (sha256 over the canonical JSON form), so tests and CI can
    pin exactly which chaos ran.
    """

    name: str
    rules: tuple[FaultRule, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultPlanError("fault plan needs a non-empty name")
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def digest(self) -> str:
        payload = json.dumps(
            fault_plan_to_dict(self), sort_keys=True, allow_nan=False
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:8]

    def injector(self, run_key: str):
        """A per-run :class:`~repro.faults.injector.FaultInjector`.

        Returns ``None`` for the empty plan so zero-fault execution takes
        exactly the pre-harness code path (no seam bookkeeping at all).
        """
        if not self.rules:
            return None
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, run_key)

    def describe(self) -> str:
        if not self.rules:
            return "no faults"
        return "; ".join(rule.describe() for rule in self.rules)


# ----------------------------------------------------------------------
# (De)serialization
# ----------------------------------------------------------------------
def fault_rule_to_dict(rule: FaultRule) -> dict[str, Any]:
    data: dict[str, Any] = {
        "seam": rule.seam,
        "run_match": rule.run_match,
        "times": list(rule.times),
    }
    if rule.detail:
        data["detail"] = rule.detail
    return data


def fault_rule_from_dict(data: dict[str, Any]) -> FaultRule:
    try:
        return FaultRule(
            seam=str(data["seam"]),
            run_match=str(data.get("run_match", "*")),
            times=tuple(int(t) for t in data.get("times", (1,))),
            detail=str(data.get("detail", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FaultPlanError(f"malformed fault rule {data!r}: {exc}")


def fault_plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    data: dict[str, Any] = {
        "name": plan.name,
        "rules": [fault_rule_to_dict(r) for r in plan.rules],
    }
    if plan.description:
        data["description"] = plan.description
    return data


def fault_plan_from_dict(data: dict[str, Any]) -> FaultPlan:
    try:
        return FaultPlan(
            name=str(data["name"]),
            rules=tuple(
                fault_rule_from_dict(r) for r in data.get("rules", ())
            ),
            description=str(data.get("description", "")),
        )
    except (KeyError, TypeError) as exc:
        raise FaultPlanError(f"malformed fault plan {data!r}: {exc}")


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a ``file:<path>`` JSON fault-plan document."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FaultPlanError(f"cannot read fault plan {path}: {exc}")
    version = data.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise FaultPlanError(
            f"{path}: unsupported fault plan format version {version!r} "
            f"(expected {PLAN_FORMAT_VERSION})"
        )
    return fault_plan_from_dict(data)


def save_fault_plan(plan: FaultPlan, path: str | Path) -> None:
    doc = {"format_version": PLAN_FORMAT_VERSION}
    doc.update(fault_plan_to_dict(plan))
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"
    )


# ----------------------------------------------------------------------
# Named-plan registry
# ----------------------------------------------------------------------
FAULT_PLANS: NameRegistry[FaultPlan] = NameRegistry(
    "fault plan", FaultPlanError, FILE_PREFIX, load_fault_plan
)
resolve_fault_plan = FAULT_PLANS.resolve

#: Built-in plans.
NO_FAULTS = FAULT_PLANS.register(
    NO_FAULTS_NAME,
    FaultPlan(name=NO_FAULTS_NAME, description="no faults (the default)"),
)
FAULT_PLANS.register(
    "chaos-smoke",
    FaultPlan(
        name="chaos-smoke",
        description=(
            "small deterministic chaos mix for CI: seed-0 runs crash once "
            "and recover on retry, seed-1 runs exercise torn publishes and "
            "truncated records, seed-2 runs poison their policy rounds and "
            "quarantine permanently"
        ),
        rules=(
            FaultRule(
                "worker-crash", run_match="*-s0-*", times=(1,),
                detail="transient: retry succeeds",
            ),
            FaultRule(
                "store-publish", run_match="rubick-n-*-s1-*", times=(1,),
                detail="tmp written, publish interrupted",
            ),
            FaultRule(
                "store-record", run_match="synergy-*-s1-*", times=(1,),
                detail="torn write: record truncated",
            ),
            FaultRule(
                "policy-round", run_match="*-s2-*", times=(1, 2, 3, 4, 5, 6),
                detail="poison: escalates past retry budget",
            ),
        ),
    ),
)
