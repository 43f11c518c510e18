"""The rule registry: every invariant ``repro lint`` enforces.

Rules are instantiated once and returned sorted by code so runs are
deterministic.  Adding a rule = adding a class here + a fixture file in
``tests/data/statics/`` + a DESIGN.md entry.
"""

from __future__ import annotations

from repro.statics.core import Rule
from repro.statics.rules.contracts import (
    FrozenMutationRule,
    SerializationContractRule,
)
from repro.statics.rules.determinism import (
    IterationOrderRule,
    NondeterminismRule,
)
from repro.statics.rules.lockstep import LockstepRule

__all__ = ["all_rules", "rules_by_code"]


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    rules = (
        NondeterminismRule(),
        IterationOrderRule(),
        LockstepRule(),
        SerializationContractRule(),
        FrozenMutationRule(),
    )
    return tuple(sorted(rules, key=lambda r: r.code))


def rules_by_code(codes: list[str] | None = None) -> tuple[Rule, ...]:
    """The registered rules restricted to ``codes`` (all when ``None``)."""
    rules = all_rules()
    if codes is None:
        return rules
    wanted = set(codes)
    unknown = wanted - {r.code for r in rules}
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(r.code for r in rules)})"
        )
    return tuple(r for r in rules if r.code in wanted)
