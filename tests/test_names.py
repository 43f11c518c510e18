"""The name-registry contract, checked once per registry.

Scenarios, dynamics profiles and fault plans all resolve through one
:class:`~repro.names.NameRegistry`; each must refuse taken and prefixed
names, answer a bare prefix with "needs a path", and name every entry plus
the prefix form when a name is unknown.
"""

from __future__ import annotations

import pytest

from repro.cluster import DYNAMICS, resolve_dynamics
from repro.errors import ClusterDynamicsError, FaultPlanError, WorkloadError
from repro.faults import FAULT_PLANS, resolve_fault_plan
from repro.workloads import SCENARIOS, resolve_scenario

CASES = [
    (SCENARIOS, resolve_scenario, WorkloadError, "replay:", "paper-12h"),
    (DYNAMICS, resolve_dynamics, ClusterDynamicsError, "file:", "none"),
    (FAULT_PLANS, resolve_fault_plan, FaultPlanError, "file:", "none"),
]


@pytest.mark.parametrize(
    "registry, resolve, error, prefix, first", CASES,
    ids=["scenarios", "dynamics", "fault-plans"],
)
def test_registry_contract(registry, resolve, error, prefix, first):
    names = registry.names()
    assert names[0] == first  # registration order
    assert [name for name, _ in registry.items()] == list(names)
    for name, entry in registry.items():
        assert resolve(name) is entry  # the public resolver is the registry's

    taken, entry = registry.items()[0]
    with pytest.raises(error, match="already registered"):
        registry.register(taken, entry)
    with pytest.raises(error, match="cannot be registered"):
        registry.register(f"{prefix}x.json", entry)
    assert registry.names() == names  # refusals leave the table alone

    with pytest.raises(error, match="needs a path"):
        resolve(prefix)
    with pytest.raises(error, match="unknown") as info:
        resolve("definitely-not-registered")
    message = str(info.value)
    assert all(name in message for name in names)
    assert f"or {prefix}<path>" in message
