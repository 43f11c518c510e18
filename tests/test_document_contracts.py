"""Contracts every persisted document keeps, checked by running the writers
(DESIGN.md 40): a host-entropy tripwire over a golden case, a serial sweep
and a run-key digest; a NaN in each persisted JSON writer raises before any
byte reaches disk; every public ``*_to_dict`` has a ``*_from_dict`` that
reads its document back.  The tripwire sees only the paths that run; the
goldens, the sweep byte test and the serve tests run every writer of a
persisted document.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import platform
import random
import re
import secrets
import socket
import sys
import time
import uuid
from collections.abc import MutableMapping
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import dynamics as dyn
from repro.experiments import RunSpec, RunStore, SweepSpec, run_sweep
from repro.faults import plan as fplan
from repro.faults.injector import incident_payload
from repro.plans import ExecutionPlan, ZeroStage
from repro.scheduler.job import JobPriority
from repro.sim import serialization as ser
from repro.sim.metrics import Incident, JobRecord, SimulationResult
from repro.sim.trace import Trace, TraceJob
from test_experiments import SMALL, SPEC
from test_golden import Case, run_case

NAN = float("nan")
REPRO_DIR = os.path.dirname(repro.__file__)

INCIDENT = Incident(
    kind="policy-error", round=4, time=12.5, job_ids=("a", "b"),
    error="RuntimeError", message="boom", traceback_digest="0123abcd",
)
RECORD = JobRecord(
    job_id="j7", model_name="gpt2", priority=JobPriority.GUARANTEED,
    tenant="t1", submit_time=90.5, first_start=120.0, finish_time=2000.0,
    jct=1909.5, queue_seconds=29.5, run_seconds=1880.0, reconfig_count=2,
    reconfig_seconds=156.0, gpu_seconds=15040.0, requested_gpus=8,
    sla_ratio=1.25, reconfig_gpu_seconds=624.0, restart_count=1,
    lost_gpu_seconds=480.0,
)
RESULT = SimulationResult(
    policy_name="rubick", trace_name="pairs",
    records=[
        RECORD,
        # Never ran: NaN SLA ratio, which the document carries as null.
        dataclasses.replace(
            RECORD, job_id="j8", first_start=None, run_seconds=0.0,
            sla_ratio=NAN, restart_count=0, lost_gpu_seconds=0.0,
        ),
    ],
    makespan=2000.0, profiling_seconds=30.0, policy_invocations=9,
    policy_skips=1, sim_rounds=12, cluster_events=2, evictions=1,
    incidents=[INCIDENT],
)
RUN = RunSpec(policy="rubick", **SMALL)


# ----------------------------------------------------------------------
# Host-entropy tripwire
# ----------------------------------------------------------------------
#: (host read, innermost ``repro`` caller) -> why it may read the host.
HOST_READS = {
    ("os.getpid", "experiments/store.py:_pid"):
        "temp-file names of atomic writes; never in a document or digest",
}

#: Host reads recorded besides ``os.environ`` (and so ``os.getenv``).
HOST_FUNCTIONS = (
    (os, "getpid"), (os, "getppid"), (os, "uname"), (os, "urandom"),
    (time, "time"), (time, "time_ns"), (uuid, "uuid1"), (uuid, "uuid4"),
    (socket, "gethostname"), (platform, "node"), (platform, "uname"),
    (secrets, "token_bytes"), (secrets, "randbits"), (secrets, "randbelow"),
    (secrets, "choice"),
)


def _repro_modules() -> set:
    """Every module of the ``repro`` package, imported."""
    return {repro} | {
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    }


def _repro_caller() -> str | None:
    """``<path under repro>:<function name>`` of the innermost repro frame."""
    frame = sys._getframe(2)
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(REPRO_DIR + os.sep):
            rel = Path(os.path.relpath(path, REPRO_DIR)).as_posix()
            return f"{rel}:{frame.f_code.co_name}"
        frame = frame.f_back
    return None


def _recording(name: str):
    def method(self, *args):
        self._record("os.environ")
        return getattr(self._env, name)(*args)
    return method


class _RecordingEnviron(MutableMapping):
    """``os.environ`` stand-in that records every access; ``os.getenv``
    reads the module global ``os.environ`` at call time, so it is
    recorded too."""

    def __init__(self, env, record):
        self._env, self._record = env, record

    __getitem__, __setitem__, __delitem__, __iter__, __len__, copy = map(
        _recording,
        ("__getitem__", "__setitem__", "__delitem__", "__iter__", "__len__",
         "copy"),
    )


@pytest.fixture
def host_reads(monkeypatch) -> set[tuple[str, str]]:
    """Patch the host reads; yields the (read, repro caller) pairs seen."""
    seen: set[tuple[str, str]] = set()

    def record(read: str) -> None:
        caller = _repro_caller()
        if caller is not None:
            seen.add((read, caller))

    def recorder(read: str, real):
        def call(*args, **kwargs):
            record(read)
            return real(*args, **kwargs)
        return call

    fakes = [(os.environ, _RecordingEnviron(os.environ, record))]
    for module, name in HOST_FUNCTIONS:
        real = getattr(module, name)
        fakes.append((real, recorder(f"{module.__name__}.{name}", real)))
    # Patch each read where its module defines it, and wherever a repro
    # module bound it by name (`from os import getpid`), which would skip
    # the patched module attribute.
    for module in {module for module, _ in HOST_FUNCTIONS} | _repro_modules():
        for name, value in list(vars(module).items()):
            for real, fake in fakes:
                if value is real:
                    monkeypatch.setattr(module, name, fake)
    yield seen


def _global_rng_state() -> tuple:
    """The process-global ``random`` and ``numpy.random`` states."""
    legacy = np.random.get_state()
    return random.getstate(), legacy[0], legacy[1].tobytes(), legacy[2:]


def test_host_reads_are_allowlisted(host_reads, tmp_path):
    rng_before = _global_rng_state()
    # A node failure, so the run takes the eviction and restart paths too.
    run_case(Case("rubick", 0, False, "fail-1h"))
    two_runs = dataclasses.replace(SPEC, seeds=(0,))
    assert len(run_sweep(two_runs, out_dir=str(tmp_path), workers=1).results) == 2
    RUN.run_key
    unexpected = sorted(host_reads - set(HOST_READS))
    assert not unexpected, f"host reads (read, caller): {unexpected}"
    # A stale entry would let a later read through unexamined.
    assert set(HOST_READS) <= host_reads
    # Every draw comes from a seeded stream (`repro.rng.rng_for`): a draw
    # from a global RNG moves its state even where, as a tie-break that
    # never decides, it changes no byte of any document.
    assert _global_rng_state() == rng_before, "a global RNG was drawn from"


# ----------------------------------------------------------------------
# NaN writers
# ----------------------------------------------------------------------
#: `makespan` is a raw float: only `summary` and `sla_ratio` map NaN to null.
NAN_RESULT = dataclasses.replace(RESULT, makespan=NAN)


def _forced(obj, **fields):
    """A copy of a frozen dataclass with ``fields`` set past its validation
    (which refuses NaN), so the writer's own guard is what is tested."""
    obj = dataclasses.replace(obj)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


NAN_EVENT = _forced(dyn.ClusterEvent(time=0.0, kind="fail", node_id=0), time=NAN)
NAN_ATTEMPT = {
    "attempt": 1, **incident_payload(RuntimeError("boom")),
    "incidents": [ser.incident_to_dict(dataclasses.replace(INCIDENT, time=NAN))],
}

#: ``<path under repro>:<writer>`` -> (directory -> write a NaN there).
NAN_WRITERS = {
    "sim/serialization.py:save_result": lambda root: ser.save_result(NAN_RESULT, root / "r.json"),
    "cluster/dynamics.py:save_cluster_events": lambda root: dyn.save_cluster_events(
        dyn.FixedDynamics(fixed_events=(NAN_EVENT,)), root / "events.json"
    ),
    "experiments/store.py:RunStore.save": lambda root: RunStore(root).save(RUN, NAN_RESULT),
    "experiments/store.py:RunStore.save_failure": lambda root: RunStore(root).save_failure(
        RUN, [NAN_ATTEMPT]
    ),
    "experiments/store.py:RunStore.write_spec": lambda root: RunStore(root).write_spec(
        dataclasses.replace(SPEC, span=NAN)
    ),
    "experiments/store.py:RunStore.append_meta": lambda root: RunStore(root).append_meta(
        {"event": "sweep", "wall_seconds": NAN}
    ),
    "experiments/spec.py:RunSpec._digest":
        lambda root: _forced(RUN, span=NAN).run_key,
}

#: Writers whose input cannot hold a NaN: the type refuses it at
#: construction (or carries no float), so there is nothing to fake.
NAN_REFUSED_AT_CONSTRUCTION = {
    "sim/serialization.py:save_trace": "TraceJob requires a finite submit_time and duration",
    "faults/plan.py:FaultPlan.digest": "fault rules carry strings and int occurrences only",
    "faults/plan.py:save_fault_plan": "fault rules carry strings and int occurrences only",
    "cli.py:_contained_execute": "incident_payload holds strings only",
}


@pytest.mark.parametrize("writer", sorted(NAN_WRITERS))
def test_nan_writer_refuses_before_writing(writer, tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        NAN_WRITERS[writer](tmp_path)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_nan_free_writer_inputs_refuse_nan():
    job = dict(
        job_id="j", model_name="gpt2", submit_time=0.0, requested_gpus=1,
        duration=60.0, initial_plan=ExecutionPlan(), global_batch=8,
    )
    for field in ("submit_time", "duration"):
        with pytest.raises(ValueError, match="finite"):
            TraceJob(**{**job, field: NAN})
    with pytest.raises(ValueError):
        fplan.FaultRule(seam="worker-crash", times=(NAN,))
    payload = incident_payload(RuntimeError("boom"))
    assert all(isinstance(value, str) for value in payload.values())


def test_every_json_writer_has_a_row():
    """A new ``json.dump(s)`` call in src/ needs a row in one of the two
    tables; a wire frame is the one document that is not persisted."""
    sites = sorted(
        path.relative_to(REPRO_DIR).as_posix()
        for path in Path(REPRO_DIR).rglob("*.py")
        for _ in re.finditer(r"\bjson\.dumps?\(", path.read_text())
    )
    rows = [*NAN_WRITERS, *NAN_REFUSED_AT_CONSTRUCTION,
            "service/protocol.py:encode_frame"]
    assert sites == sorted(row.split(":")[0] for row in rows)


# ----------------------------------------------------------------------
# Writer/reader pairs
# ----------------------------------------------------------------------
PLAN = ExecutionPlan(dp=2, tp=2, pp=2, zero=ZeroStage.NONE, micro_batches=4,
                     gc=True)
JOB = TraceJob(
    job_id="j7", model_name="gpt2", submit_time=90.5, requested_gpus=8,
    duration=1800.0, initial_plan=PLAN, global_batch=64, requested_cpus=12,
    priority=JobPriority.BEST_EFFORT, tenant="t1",
)
RULE = fplan.FaultRule(
    seam="store-record", run_match="rubick-*", times=(1, 3), detail="torn"
)
EVENT = dyn.ClusterEvent(time=3600.0, kind="fail", node_id=1)

#: writer -> (reader, sample values); one row per public writer.
PAIRS = {
    ser.plan_to_dict: (ser.plan_from_dict, [PLAN]),
    ser.trace_job_to_dict: (ser.trace_job_from_dict, [JOB]),
    ser.trace_to_dict: (ser.trace_from_dict, [Trace(jobs=(JOB,), name="t")]),
    ser.result_to_dict: (ser.result_from_dict, [RESULT]),
    ser.incident_to_dict: (ser.incident_from_dict, [INCIDENT]),
    dyn.event_to_dict: (dyn.event_from_dict, [
        EVENT, dyn.ClusterEvent(time=7200.0, kind="scale-down", count=2),
    ]),
    dyn.dynamics_to_dict: (dyn.dynamics_from_dict, [
        dyn.FixedDynamics(fixed_events=(EVENT,)),
        dyn.RandomFailures(mtbf=3600.0, mttr=600.0),
        dyn.ScaleSchedule(steps=((0.25, 3), (0.75, 1))),
    ]),
    fplan.fault_rule_to_dict: (fplan.fault_rule_from_dict, [RULE]),
    fplan.fault_plan_to_dict: (fplan.fault_plan_from_dict, [
        fplan.FaultPlan(name="pairs", rules=(RULE,), description="one rule"),
    ]),
    RunSpec.to_dict: (RunSpec.from_dict, [
        dataclasses.replace(RUN, policy="sia", variant="mt", seed=3,
                            load_factor=2.0, dynamics="flaky"),
    ]),
    SweepSpec.to_dict: (SweepSpec.from_dict, [
        dataclasses.replace(SPEC, dynamics=("", "flaky"), load_factors=(1, 2)),
    ]),
}


def _public_writers() -> set[str]:
    """``module.name`` of every public ``*_to_dict`` function and
    ``to_dict`` method defined in the ``repro`` package."""
    writers = set()
    for module in _repro_modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and name.endswith("_to_dict"):
                if not name.startswith("_"):
                    writers.add(f"{module.__name__}.{name}")
            elif inspect.isclass(obj) and "to_dict" in vars(obj):
                writers.add(f"{module.__name__}.{name}.to_dict")
    return writers


def test_every_public_writer_has_a_reader_row():
    assert _public_writers() == {
        f"{w.__module__}.{w.__qualname__}" for w in PAIRS
    }


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("writer", PAIRS, ids=lambda w: w.__qualname__)
def test_reader_reads_back_the_writers_document(writer):
    reader, samples = PAIRS[writer]
    for sample in samples:
        doc = json.loads(_canonical(writer(sample)))
        assert _canonical(writer(reader(doc))) == _canonical(doc)
