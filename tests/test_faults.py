"""Fault-injection harness: plans, injector, retries, quarantine, chaos.

The determinism contract under test (DESIGN.md): the same fault plan +
seeds produces byte-identical run documents, ``.corrupt`` sidecars and
quarantine records across invocations and worker counts, and the empty
plan produces output byte-identical to a sweep with no fault plumbing.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import shutil
import subprocess
import time

import pytest

from repro.errors import (
    CorruptRunRecordError,
    FaultPlanError,
    InjectedCrash,
    InjectedHang,
    RunTimeoutError,
)
from repro.experiments import RunSpec, RunStore, SweepSpec, run_sweep
from repro.experiments.aggregate import format_failure_table
from repro.experiments.runner import _alarm, _guarded_run, execute_run
from repro.faults import (
    NO_FAULTS,
    NO_FAULTS_NAME,
    FaultPlan,
    FaultRule,
    fault_plan_from_dict,
    fault_plan_to_dict,
    known_fault_plan_names,
    load_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
    save_fault_plan,
)
from repro.sim.metrics import Incident, SimulationResult
from repro.sim.serialization import (
    incident_from_dict,
    incident_to_dict,
    result_to_dict,
)

SMALL = dict(num_jobs=4, nodes=2, gpus_per_node=8, span=1800.0)
CHAOS_SPEC = SweepSpec(
    policies=("rubick-n", "synergy"), seeds=(0, 1, 2), **SMALL
)


def _tree_bytes(root) -> dict[str, bytes]:
    """Relative-path -> content map of every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _dead_pid() -> int:
    """A pid guaranteed dead: a just-reaped child of this process."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def _hold_lease_lock(path):
    """Lock a lease file through an open file description of its own, the
    way another worker's store would; closing the handle drops the lock."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a")
    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    return fh


LEASE_RACE_KEYS = ("k0", "k1", "k2", "k3", "k4")


def _race_for_leases(root, barrier, results):
    """Spawned racer: every key is contended by all racers at once, and no
    winner releases before every racer has tried."""
    store = RunStore(root)
    for key in LEASE_RACE_KEYS:
        barrier.wait()
        won = store.acquire_lease(key)
        results.put((key, won))
        barrier.wait()
        if won:
            store.release_lease(key)


# ----------------------------------------------------------------------
# Plans: validation, digests, registry, file round-trip
# ----------------------------------------------------------------------
class TestFaultPlans:
    def test_unknown_seam_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault seam"):
            FaultRule(seam="disk-on-fire")

    def test_times_validated_and_normalized(self):
        with pytest.raises(FaultPlanError, match="at least one"):
            FaultRule(seam="worker-crash", times=())
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultRule(seam="worker-crash", times=(0,))
        rule = FaultRule(seam="worker-crash", times=(3, 1, 3, 2))
        assert rule.times == (1, 2, 3)

    def test_digest_is_pinned(self):
        """The tier-1 determinism gate: same plan => same digest, always.

        These literals change exactly when the plan definition changes —
        update them deliberately, never to quiet a flake (a flake here
        means digests stopped being a pure function of plan content).
        """
        assert NO_FAULTS.digest == "fa3d9f52"
        assert resolve_fault_plan("chaos-smoke").digest == "92856773"

    def test_serialization_round_trip_preserves_digest(self):
        plan = resolve_fault_plan("chaos-smoke")
        clone = fault_plan_from_dict(
            json.loads(json.dumps(fault_plan_to_dict(plan)))
        )
        assert clone == plan
        assert clone.digest == plan.digest

    def test_file_plans_resolve_via_prefix(self, tmp_path):
        plan = FaultPlan(
            name="custom",
            rules=(FaultRule("policy-round", run_match="*-s9-*"),),
        )
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path) == plan
        assert resolve_fault_plan(f"file:{path}") == plan

    def test_file_plan_version_checked(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"format_version": 99, "name": "x"}))
        with pytest.raises(FaultPlanError, match="format version"):
            load_fault_plan(path)

    def test_registry_rejects_duplicates_and_unknowns(self):
        assert NO_FAULTS_NAME in known_fault_plan_names()
        with pytest.raises(FaultPlanError, match="already registered"):
            register_fault_plan(FaultPlan(name=NO_FAULTS_NAME))
        with pytest.raises(FaultPlanError, match="unknown fault plan"):
            resolve_fault_plan("definitely-not-a-plan")

    def test_empty_plan_has_no_injector(self):
        assert NO_FAULTS.injector("any-key") is None


# ----------------------------------------------------------------------
# Injector: occurrence counting, seam isolation, mangling
# ----------------------------------------------------------------------
class TestInjector:
    def test_occurrence_counts_span_attempts(self):
        """``times=(2,)`` fires on the second invocation only — the
        counter lives on the injector, which the runner creates once per
        run, so occurrence semantics are attempt-spanning by design."""
        plan = FaultPlan(
            name="t", rules=(FaultRule("worker-crash", times=(2,)),)
        )
        injector = plan.injector("run-a")
        injector.check("worker-crash")  # occurrence 1: silent
        with pytest.raises(InjectedCrash) as err:
            injector.check("worker-crash")  # occurrence 2: fires
        assert err.value.occurrence == 2
        injector.check("worker-crash")  # occurrence 3: silent again

    def test_seams_count_independently(self):
        plan = FaultPlan(
            name="t", rules=(FaultRule("worker-hang", times=(1,)),)
        )
        injector = plan.injector("run-a")
        injector.check("worker-crash")  # different seam: no effect
        with pytest.raises(InjectedHang):
            injector.check("worker-hang")

    def test_run_match_glob_gates_firing(self):
        plan = FaultPlan(
            name="t",
            rules=(FaultRule("worker-crash", run_match="*-s2-*"),),
        )
        plan.injector("rubick-n-base-s0-aaaa").check("worker-crash")
        with pytest.raises(InjectedCrash):
            plan.injector("rubick-n-base-s2-aaaa").check("worker-crash")

    def test_mangle_truncates_deterministically(self):
        plan = FaultPlan(
            name="t", rules=(FaultRule("store-record", times=(1,)),)
        )
        text = "x" * 100
        first = plan.injector("k").mangle("store-record", text)
        second = plan.injector("k").mangle("store-record", text)
        assert first == second == "x" * 50
        # Occurrence 2 passes the text through untouched.
        injector = plan.injector("k")
        injector.mangle("store-record", text)
        assert injector.mangle("store-record", text) == text


# ----------------------------------------------------------------------
# Runner guard: timeout, retries, quarantine, leases
# ----------------------------------------------------------------------
class TestRunnerGuard:
    RUN = RunSpec(policy="rubick-n", **SMALL)

    def test_alarm_bounds_wall_clock(self):
        with pytest.raises(RunTimeoutError, match="wall-clock budget"):
            with _alarm(0.05):
                time.sleep(5)

    def test_alarm_without_budget_is_noop(self):
        with _alarm(None):
            pass
        with _alarm(0):
            pass

    def test_worker_hang_seam_raises_instead_of_sleeping(self):
        plan = FaultPlan(
            name="t", rules=(FaultRule("worker-hang", times=(1,)),)
        )
        with pytest.raises(InjectedHang):
            execute_run(self.RUN, injector=plan.injector(self.RUN.run_key))

    def test_transient_crash_recovers_on_retry(self, tmp_path):
        plan = FaultPlan(
            name="t", rules=(FaultRule("worker-crash", times=(1,)),)
        )
        store = RunStore(tmp_path)
        status, execution, failure = _guarded_run(
            self.RUN, store, plan, 2, None
        )
        assert status == "ok" and failure is None
        assert store.completed_keys() == {self.RUN.run_key}
        assert store.failed_keys() == set()

    def test_poison_run_quarantines_with_attempt_history(self, tmp_path):
        plan = FaultPlan(
            name="t",
            rules=(FaultRule("worker-crash", times=(1, 2, 3)),),
        )
        store = RunStore(tmp_path)
        status, execution, failure = _guarded_run(
            self.RUN, store, plan, 3, None
        )
        assert status == "failed" and execution is None
        assert [a["attempt"] for a in failure["attempts"]] == [1, 2, 3]
        assert failure["error"] == "InjectedCrash"
        assert store.failed_keys() == {self.RUN.run_key}
        assert store.completed_keys() == set()
        # The persisted quarantine record is the returned doc, verbatim.
        assert store.load_failure(self.RUN.run_key) == failure

    def test_live_foreign_lease_skips_run(self, tmp_path):
        store = RunStore(tmp_path)
        with _hold_lease_lock(store.lease_path_for(self.RUN.run_key)):
            status, execution, failure = _guarded_run(
                self.RUN, store, None, 2, None
            )
            assert status == "leased"
            assert execution is None and failure is None
            # The foreign lease was respected, not deleted.
            assert store.lease_path_for(self.RUN.run_key).exists()

    def test_locked_lease_with_empty_body_is_respected(self, tmp_path):
        """A holder that has created the lease file but written nothing
        into it still owns the key."""
        store = RunStore(tmp_path)
        path = store.lease_path_for("some-run")
        with _hold_lease_lock(path):
            assert path.read_text() == ""
            assert not store.acquire_lease("some-run")
            assert path.exists()
        # Once the holder is gone the lease is free again.
        assert store.acquire_lease("some-run")
        store.release_lease("some-run")
        assert not path.exists()

    def test_racing_processes_get_one_lease_per_key(self, tmp_path):
        racers = 4
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(racers, timeout=60)
        results = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_for_leases, args=(tmp_path, barrier, results)
            )
            for _ in range(racers)
        ]
        for proc in procs:
            proc.start()
        outcomes = [
            results.get(timeout=120)
            for _ in range(racers * len(LEASE_RACE_KEYS))
        ]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        for key in LEASE_RACE_KEYS:
            assert sorted(won for k, won in outcomes if k == key) == [
                False, False, False, True,
            ], key
        assert list((tmp_path / "leases").iterdir()) == []

    def test_dead_owner_lease_is_stolen(self, tmp_path):
        store = RunStore(tmp_path)
        store.leases_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path_for("some-run").write_text(
            json.dumps({"pid": _dead_pid()})
        )
        assert store.acquire_lease("some-run")
        store.release_lease("some-run")
        assert not store.lease_path_for("some-run").exists()


# ----------------------------------------------------------------------
# Store hardening: corruption detection, sidecars, stale-tmp GC
# ----------------------------------------------------------------------
class TestStoreHardening:
    RUN = RunSpec(policy="rubick-n", **SMALL)

    @pytest.fixture()
    def populated(self, tmp_path):
        store = RunStore(tmp_path)
        run_sweep([self.RUN], out_dir=str(tmp_path))
        return store

    def test_truncated_record_is_corrupt_not_json_error(self, populated):
        store = populated
        path = store.path_for(self.RUN.run_key)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CorruptRunRecordError, match="truncated write"):
            store.load_record(self.RUN.run_key)

    def test_version_drift_is_corrupt(self, populated):
        store = populated
        record = store.load_record(self.RUN.run_key)
        record["format_version"] = 999
        store.path_for(self.RUN.run_key).write_text(json.dumps(record))
        with pytest.raises(CorruptRunRecordError, match="unsupported version"):
            store.load_record(self.RUN.run_key)

    def test_missing_record_stays_file_not_found(self, populated):
        with pytest.raises(FileNotFoundError):
            populated.load_record("never-ran")

    def test_resume_quarantines_corrupt_record_and_reruns(self, populated):
        store = populated
        path = store.path_for(self.RUN.run_key)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        messages = []
        outcome = run_sweep(
            [self.RUN], out_dir=str(store.root), resume=True,
            log=messages.append,
        )
        # The torn record moved aside, the run re-executed, and the fresh
        # record is byte-identical to the original (determinism contract).
        assert outcome.skipped == ()
        assert self.RUN.run_key in outcome.results
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.read_bytes() == good[: len(good) // 2]
        assert path.read_bytes() == good
        assert any("quarantined corrupt record" in m for m in messages)
        # The sidecar never masquerades as a completed run.
        assert store.completed_keys() == {self.RUN.run_key}

    def test_gc_collects_dead_owner_tmp_only(self, tmp_path):
        store = RunStore(tmp_path)
        dead = store.runs_dir / f".a.jsonl.{_dead_pid()}.tmp"
        dead.write_text("{")
        live = store.runs_dir / ".b.jsonl.1.tmp"  # init: alive forever
        live.write_text("{")
        unparsable = store.runs_dir / ".c.jsonl.notapid.tmp"
        unparsable.write_text("{")
        removed = store.gc_stale_tmp()
        assert dead.name in removed and unparsable.name in removed
        assert not dead.exists() and not unparsable.exists()
        assert live.exists()


# ----------------------------------------------------------------------
# Chaos sweeps end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_pair(tmp_path_factory):
    """The same chaos-smoke sweep twice: serial, then two workers."""
    plan = resolve_fault_plan("chaos-smoke")
    outs, outcomes = [], []
    for name, workers in (("chaos-a", 1), ("chaos-b", 2)):
        out = tmp_path_factory.mktemp(name)
        outcomes.append(
            run_sweep(
                CHAOS_SPEC, out_dir=str(out), workers=workers,
                fault_plan=plan, max_attempts=2,
            )
        )
        outs.append(out)
    return outs, outcomes


class TestChaosSweep:
    def test_sweep_completes_with_quarantined_runs(self, chaos_pair):
        (out, _), (outcome, _) = chaos_pair
        # Seed-2 runs poison their policy rounds past the retry budget.
        assert sorted(outcome.failures) == [
            run.run_key
            for run in sorted(CHAOS_SPEC.expand(), key=lambda r: r.run_key)
            if run.seed == 2
        ]
        for doc in outcome.failures.values():
            assert doc["error"] == "SimulationError"
            assert len(doc["attempts"]) == 2
            # Escalation carries the contained policy-error incidents.
            assert all(a["incidents"] for a in doc["attempts"])
        # Every other run recovered and produced a result.
        executed = {r.run_key for r in CHAOS_SPEC.expand()}
        assert set(outcome.results) == executed - set(outcome.failures)

    def test_torn_record_left_a_sidecar(self, chaos_pair):
        (out, _), (outcome, _) = chaos_pair
        sidecars = sorted(p.name for p in out.glob("runs/*.corrupt"))
        assert len(sidecars) == 1
        assert sidecars[0].startswith("synergy-") and "-s1-" in sidecars[0]

    def test_no_tmp_litter_and_no_leases_after_sweep(self, chaos_pair):
        for out in chaos_pair[0]:
            assert list(out.glob("runs/.*.tmp")) == []
            assert list(out.glob("leases/*")) == []

    def test_chaos_is_byte_identical_across_invocations(self, chaos_pair):
        (a, b), _ = chaos_pair
        assert _tree_bytes(a / "runs") == _tree_bytes(b / "runs")
        assert _tree_bytes(a / "failures") == _tree_bytes(b / "failures")

    def test_meta_records_fault_plan_and_failures(self, chaos_pair):
        (out, _), _ = chaos_pair
        meta = json.loads((out / "sweep-meta.jsonl").read_text())
        assert meta["fault_plan"] == "chaos-smoke"
        assert meta["fault_plan_digest"] == "92856773"
        assert meta["failed_runs"] == 2  # one poisoned seed-2 run per policy

    def test_failure_table_renders_quarantined_runs(self, chaos_pair):
        _, (outcome, _) = chaos_pair
        table = format_failure_table(outcome.failures)
        assert "quarantined runs" in table
        assert "SimulationError" in table
        for key in outcome.failures:
            assert key in table

    def test_resume_without_faults_heals_quarantined_runs(
        self, chaos_pair, tmp_path
    ):
        (a, _), _ = chaos_pair
        out = tmp_path / "healed"
        shutil.copytree(a, out)
        outcome = run_sweep(CHAOS_SPEC, out_dir=str(out), resume=True)
        store = RunStore(out)
        assert outcome.failures == {}
        assert store.failed_keys() == set()  # cleared on success
        assert store.completed_keys() == {
            r.run_key for r in CHAOS_SPEC.expand()
        }


class TestZeroFaultByteIdentity:
    def test_no_plan_and_empty_plan_are_byte_identical(self, tmp_path):
        """The empty plan takes the pre-harness path bit for bit."""
        spec = SweepSpec(policies=("rubick-n",), seeds=(0,), **SMALL)
        plain, armed = tmp_path / "plain", tmp_path / "armed"
        run_sweep(spec, out_dir=str(plain))
        run_sweep(
            spec, out_dir=str(armed), fault_plan=NO_FAULTS,
            max_attempts=2, run_timeout=None,
        )
        assert _tree_bytes(plain / "runs") == _tree_bytes(armed / "runs")
        # The empty plan is normalized away: no fault keys in meta, no
        # failures/ directory, nothing a zero-fault diff could trip on.
        meta = json.loads((armed / "sweep-meta.jsonl").read_text())
        assert "fault_plan" not in meta and "failed_runs" not in meta
        assert not (armed / "failures").exists()


# ----------------------------------------------------------------------
# Incident stream serialization
# ----------------------------------------------------------------------
class TestIncidentSerialization:
    def test_sparse_when_absent(self):
        result = SimulationResult(policy_name="p", trace_name="t")
        assert "incidents" not in result_to_dict(result)
        assert "incidents" not in result.summary()

    def test_round_trip(self):
        incident = Incident(
            kind="policy-error", round=7, time=1234.5,
            job_ids=("j1", "j2"), error="ValueError",
            message="boom", traceback_digest="abc123def456",
        )
        assert incident_from_dict(incident_to_dict(incident)) == incident
        sparse = Incident(kind="deadlock", round=0, time=0.0)
        doc = incident_to_dict(sparse)
        assert set(doc) == {"kind", "round", "time"}
        assert incident_from_dict(doc) == sparse
