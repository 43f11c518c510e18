"""Hostile SUBMIT payloads: refused with a typed error, or run cleanly.

A SUBMIT frame's ``job`` object goes through ``trace_job_from_dict`` and
``Simulator.submit`` inside the master's guard; the admission round that
follows runs outside it, where an untyped failure would end the service.
So every job dict must either be refused before it is queued, with one of
the errors the guard turns into an ERROR frame, or be admitted and step
cleanly.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER
from repro.cluster.topology import ClusterSpec
from repro.errors import ReproError
from repro.oracle import SyntheticTestbed
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler.registry import make_policy
from repro.sim import EngineConfig, Simulator
from repro.sim.serialization import plan_to_dict, trace_job_from_dict

SMALL = ClusterSpec(num_nodes=2, node=PAPER_CLUSTER.node)

#: What ``ServiceMaster._handle_submit`` answers with an ERROR frame.
REFUSALS = (ReproError, KeyError, TypeError, ValueError, OverflowError)

VALID = {
    "job_id": "j0",
    "model_name": "roberta",
    "submit_time": 10.0,
    "requested_gpus": 2,
    "requested_cpus": 8,
    "duration": 600.0,
    "global_batch": 16,
    "priority": "guaranteed",
    "tenant": "default",
    "initial_plan": plan_to_dict(ExecutionPlan(dp=2, ga_steps=2)),
}

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, -1, 1, 3, 7, 10**9, 10**18, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1.5, -0.0, 1e308, 1e-308]),
)
_PLANS = st.one_of(
    st.fixed_dictionaries(
        {
            "dp": _NUMBERS | _JUNK,
            "tp": st.sampled_from([1, 2, 0, -1, 16]),
            "pp": st.sampled_from([1, 2, 0, 64]),
            "zero": st.sampled_from(
                [z.name for z in ZeroStage] + ["BOGUS", ""]
            ) | _JUNK,
            "ga_steps": st.sampled_from([1, 2, 0, -4, 10**6]),
            "micro_batches": st.sampled_from([1, 2, 0, 3]),
            "gc": st.booleans() | _JUNK,
        }
    ),
    st.builds(
        lambda plan, drop: {k: v for k, v in plan.items() if k != drop},
        st.just(VALID["initial_plan"]),
        st.sampled_from(sorted(VALID["initial_plan"])),
    ),
    _JUNK,
)
_FIELDS = {
    "job_id": st.text(max_size=8) | _JUNK | _NUMBERS,
    "model_name": st.sampled_from(
        ["roberta", "gpt2-1.5b", "llama-30b", "no-such-model", ""]
    ) | _JUNK,
    "submit_time": _NUMBERS | _JUNK,
    "requested_gpus": _NUMBERS | _JUNK,
    "requested_cpus": _NUMBERS | _JUNK,
    "duration": _NUMBERS | _JUNK,
    "global_batch": _NUMBERS | _JUNK,
    "priority": st.sampled_from(["guaranteed", "best_effort", "urgent"])
    | _JUNK,
    "tenant": st.text(max_size=4) | _JUNK,
    "initial_plan": _PLANS,
}

#: A valid job with one to three fields replaced by hostile values, and
#: now and then one dropped.
HOSTILE_JOBS = st.builds(
    lambda changes, dropped: {
        k: v
        for k, v in {**VALID, **changes}.items()
        if k not in dropped
    },
    st.lists(
        st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=3, unique=True
    ).flatmap(
        lambda keys: st.fixed_dictionaries({k: _FIELDS[k] for k in keys})
    ),
    st.sets(st.sampled_from(sorted(VALID)), max_size=1)
    | st.just(frozenset()),
)


def _session() -> Simulator:
    sim = Simulator(
        SMALL,
        make_policy("rubick"),
        config=EngineConfig(seed=3),
        testbed=SyntheticTestbed(SMALL, seed=3),
    )
    sim.start(stream=True)
    return sim


def test_valid_job_is_admitted():
    sim = _session()
    tj = sim.submit(trace_job_from_dict(VALID))
    sim.step(until=tj.submit_time)
    sim.step()
    assert sim.status()["admitted"] == 1


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(job=HOSTILE_JOBS)
def test_hostile_submit_is_refused_or_runs_cleanly(job):
    sim = _session()
    try:
        tj = sim.submit(trace_job_from_dict(job))
    except REFUSALS:
        # Nothing was queued: the session steps on with no arrival.
        sim.step()
        assert sim.status()["admitted"] == 0
        return
    assert math.isfinite(tj.submit_time)
    # The virtual-clock master's order: step to the arrival, then the
    # admission round runs on the next slice.
    sim.step(until=tj.submit_time)
    sim.step()
