"""Sweep subsystem: grid determinism, persistence, resume, parallel equality."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    RunSpec,
    RunStore,
    SweepSpec,
    aggregate,
    build_trace,
    default_tenants,
    format_sweep_table,
    run_sweep,
)
from repro.scheduler.job import JobPriority
from repro.units import DAY

SMALL = dict(num_jobs=4, nodes=2, gpus_per_node=8, span=1800.0)
SPEC = SweepSpec(policies=("rubick-n", "synergy"), seeds=(0, 1), **SMALL)


class TestSpec:
    def test_expand_deterministic(self):
        first = SPEC.expand()
        second = SweepSpec(
            policies=("rubick-n", "synergy"), seeds=(0, 1), **SMALL
        ).expand()
        assert first == second
        keys = [run.run_key for run in first]
        assert keys == [run.run_key for run in second]
        assert len(set(keys)) == len(keys) == 4

    def test_run_key_sensitive_to_every_knob(self):
        base = RunSpec(policy="rubick-n", **SMALL)
        assert base.run_key == RunSpec(policy="rubick-n", **SMALL).run_key
        for change in (
            {"policy": "synergy"},
            {"seed": 3},
            {"variant": "mt"},
            {"load_factor": 2.0},
            {"large_model_factor": 4.0},
        ):
            other = RunSpec(**{**base.to_dict(), **change})
            assert other.run_key != base.run_key, change

    def test_trace_fingerprint_excludes_policy_only(self):
        a = RunSpec(policy="rubick-n", **SMALL)
        b = RunSpec(policy="synergy", **SMALL)
        c = RunSpec(policy="rubick-n", seed=9, **SMALL)
        assert a.trace_fingerprint == b.trace_fingerprint
        assert a.trace_fingerprint != c.trace_fingerprint

    def test_json_round_trip(self):
        run = RunSpec(policy="sia", variant="mt", seed=2, load_factor=1.5)
        again = RunSpec.from_dict(json.loads(json.dumps(run.to_dict())))
        assert again == run
        spec = SweepSpec(policies=("rubick", "sia"), seeds=(0, 4))
        assert SweepSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec(policy="nope")
        with pytest.raises(ValueError, match="unknown trace variant"):
            RunSpec(policy="rubick", variant="weird")
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(policies=("rubick",), seeds=(1, 1))
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(policies=())
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(policies=("rubick",), seeds=())

    @pytest.mark.parametrize("field", ["span", "load_factor", "large_model_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RunSpec(policy="rubick", **{field: value})

    def test_default_tenants_only_for_mt(self):
        mt = default_tenants(RunSpec(policy="rubick-n", variant="mt", **SMALL))
        assert mt is not None
        assert mt["tenant-a"].gpu_quota == 16
        assert mt["tenant-b"].gpu_quota == 0
        assert default_tenants(RunSpec(policy="rubick-n", **SMALL)) is None

    def test_build_trace_shared_across_policies(self):
        a = build_trace(RunSpec(policy="rubick-n", **SMALL))
        b = build_trace(RunSpec(policy="synergy", **SMALL))
        assert a is b  # same fingerprint -> memoized
        assert len(a) == SMALL["num_jobs"]


class TestScenarioAxis:
    """The workload-scenario axis: SHA-stable keys, expansion, build."""

    def test_default_scenario_keys_unchanged_since_pre_axis(self):
        """Pinned pre-scenario-axis run keys: old sweep dirs keep resuming."""
        a = RunSpec(policy="rubick-n", **SMALL)
        b = RunSpec(policy="sia", variant="mt", seed=2, load_factor=1.5)
        assert a.run_key == "rubick-n-base-s0-f364deeb"
        assert b.run_key == "sia-mt-s2-b7ee5d64"

    def test_non_default_scenario_changes_the_key(self):
        base = RunSpec(policy="rubick-n", **SMALL)
        other = RunSpec(policy="rubick-n", scenario="poisson-12h", **SMALL)
        assert other.run_key != base.run_key
        assert other.trace_fingerprint != base.trace_fingerprint
        assert other.trace_label == "poisson-12h"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            RunSpec(policy="rubick-n", scenario="nope", **SMALL)
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(
                policies=("rubick-n",),
                scenarios=("poisson-12h", "poisson-12h"),
            )

    def test_legacy_documents_load_without_scenario(self):
        run = RunSpec(policy="rubick-n", **SMALL)
        legacy = run.to_dict()
        legacy.pop("scenario")
        assert RunSpec.from_dict(legacy) == run
        spec_data = SweepSpec(policies=("rubick-n",), **SMALL).to_dict()
        spec_data.pop("scenarios")
        assert SweepSpec.from_dict(spec_data) == SweepSpec(
            policies=("rubick-n",), **SMALL
        )

    def test_expand_iterates_scenarios_outermost(self):
        spec = SweepSpec(
            policies=("rubick-n", "synergy"),
            scenarios=("paper-12h", "poisson-12h"),
            **SMALL,
        )
        runs = spec.expand()
        assert [r.scenario for r in runs] == (
            ["paper-12h"] * 2 + ["poisson-12h"] * 2
        )
        assert len({r.run_key for r in runs}) == 4

    def test_scenario_span_override_reaches_the_config(self):
        run = RunSpec(policy="rubick-n", scenario="diurnal-3d", **SMALL)
        assert run.workload_config().span == 3 * DAY

    def test_replay_scenario_builds_from_fixture(self):
        run = RunSpec(
            policy="rubick-n",
            scenario="replay:tests/data/philly_mini.csv",
            **SMALL,
        )
        trace = build_trace(run)
        assert len(trace) == 12  # fixture rows with status Pass
        assert trace.name == "replay-philly_mini"

    def test_scenario_tenant_split_implies_tenants(self):
        run = RunSpec(policy="rubick-n", scenario="multitenant-burst", **SMALL)
        tenants = default_tenants(run)
        assert tenants is not None
        assert tenants["tenant-a"].gpu_quota == 16
        trace = build_trace(run)
        assert {j.priority for j in trace} == {
            JobPriority.GUARANTEED, JobPriority.BEST_EFFORT,
        }

    def test_mt_variant_honors_scenario_fraction_without_double_split(self):
        """scenario split + mt variant = ONE split at the scenario's
        fraction (not a silent re-split at the variant default)."""
        from repro.workloads import SCENARIOS, Scenario
        from repro.workloads.arrivals import PoissonArrivals

        if "all-guaranteed-test" not in SCENARIOS.names():
            SCENARIOS.register("all-guaranteed-test", Scenario(
                name="all-guaranteed-test",
                description="degenerate split: everything guaranteed",
                arrival=PoissonArrivals(),
                guaranteed_fraction=1.0,
            ))
        run = RunSpec(
            policy="rubick-n", scenario="all-guaranteed-test", variant="mt",
            **SMALL,
        )
        trace = build_trace(run)
        # A re-split at the default 0.5 would demote ~half to best-effort.
        assert all(j.priority is JobPriority.GUARANTEED for j in trace)
        assert trace.name == "mt"

    def test_multi_scenario_aggregation_groups_rows(self):
        spec = SweepSpec(
            policies=("rubick-n",),
            scenarios=("paper-12h", "poisson-12h"),
            **SMALL,
        )
        outcome = run_sweep(spec, workers=1)
        cells = aggregate(outcome.pairs())
        assert [c.scenario for c in cells] == ["paper-12h", "poisson-12h"]
        text = format_sweep_table(cells)
        assert text.splitlines()[0].startswith("scenario")
        assert "poisson-12h" in text


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    outcome = run_sweep(SPEC, out_dir=str(out), workers=1)
    return out, outcome


class TestDynamicsAxis:
    """The cluster-dynamics axis: digest transparency, inheritance, expand."""

    def test_empty_dynamics_is_digest_transparent(self):
        plain = RunSpec(policy="rubick-n", **SMALL)
        inherit = RunSpec(policy="rubick-n", dynamics="", **SMALL)
        assert inherit.run_key == plain.run_key
        assert "dynamics" not in plain.to_dict()
        # Pinned pre-axis key (same as TestScenarioAxis): still stable.
        assert plain.run_key == "rubick-n-base-s0-f364deeb"

    def test_explicit_dynamics_changes_the_key(self):
        plain = RunSpec(policy="rubick-n", **SMALL)
        flaky = RunSpec(policy="rubick-n", dynamics="flaky", **SMALL)
        none = RunSpec(policy="rubick-n", dynamics="none", **SMALL)
        assert flaky.run_key != plain.run_key
        assert none.run_key != plain.run_key  # explicit override is identity
        assert flaky.trace_label.endswith("~flaky")

    def test_effective_dynamics_inherits_the_scenario(self):
        inherit = RunSpec(
            policy="rubick-n", scenario="paper-12h-flaky", **SMALL
        )
        assert inherit.effective_dynamics == "flaky"
        override = RunSpec(
            policy="rubick-n", scenario="paper-12h-flaky",
            dynamics="none", **SMALL
        )
        assert override.effective_dynamics == "none"
        assert RunSpec(policy="rubick-n", **SMALL).effective_dynamics == "none"

    def test_unknown_dynamics_rejected(self):
        with pytest.raises(ValueError, match="unknown dynamics"):
            RunSpec(policy="rubick-n", dynamics="nope", **SMALL)
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(policies=("rubick-n",), dynamics=("flaky", "flaky"))

    def test_expand_iterates_dynamics_inside_scenarios(self):
        spec = SweepSpec(
            policies=("rubick-n",), dynamics=("none", "flaky"), **SMALL
        )
        runs = spec.expand()
        assert [r.dynamics for r in runs] == ["none", "flaky"]
        assert len({r.run_key for r in runs}) == len(runs)

    def test_legacy_documents_load_without_dynamics(self):
        run = RunSpec(policy="rubick-n", dynamics="flaky", **SMALL)
        data = run.to_dict()
        assert data["dynamics"] == "flaky"
        legacy = RunSpec(policy="rubick-n", **SMALL).to_dict()
        assert "dynamics" not in legacy
        assert RunSpec.from_dict(legacy).dynamics == ""
        spec_data = SweepSpec(policies=("rubick-n",), **SMALL).to_dict()
        assert "dynamics" not in spec_data
        assert SweepSpec.from_dict(spec_data).dynamics == ("",)

    def test_trace_memo_shared_across_dynamics(self):
        """Traces are byte-identical across dynamics profiles, so the
        per-process memo must not rebuild them per dynamics value."""
        from repro.experiments.runner import _trace_memo_key

        plain = RunSpec(policy="rubick-n", **SMALL)
        flaky = RunSpec(policy="rubick-n", dynamics="flaky", **SMALL)
        assert _trace_memo_key(plain) == _trace_memo_key(flaky)
        assert build_trace(plain) is build_trace(flaky)  # memo hit

    def test_dynamic_run_executes_with_events(self):
        from repro.experiments.runner import execute_run, run_cluster_events

        run = RunSpec(
            policy="rubick-n", num_jobs=4, nodes=2, gpus_per_node=8,
            span=1800.0, dynamics="scaleout-midday",
        )
        events = run_cluster_events(run)
        assert [e.kind for e in events] == ["scale-up"]
        assert events[0].time == 900.0  # half the run's span
        execution = execute_run(run)
        assert execution.result.cluster_events == 1

    def test_dynamics_table_columns_only_when_dynamic(self):
        runs = [
            RunSpec(policy="rubick-n", dynamics="scaleout-midday", **SMALL),
            RunSpec(policy="synergy", dynamics="scaleout-midday", **SMALL),
        ]
        outcome = run_sweep(runs)
        cells = aggregate(outcome.pairs())
        assert any(c.dynamic for c in cells)
        table = format_sweep_table(cells)
        assert "lost GPU-h" in table and "evictions" in table
        static = format_sweep_table(aggregate(run_sweep(
            [RunSpec(policy="rubick-n", **SMALL)]
        ).pairs()))
        assert "lost GPU-h" not in static


class TestRunnerPersistence:
    def test_every_run_persisted_once(self, serial_sweep):
        out, outcome = serial_sweep
        store = RunStore(out)
        keys = {run.run_key for run in outcome.runs}
        assert store.completed_keys() == keys
        assert set(outcome.results) == keys
        run, result = store.load(next(iter(keys)))
        assert run.run_key in keys
        assert len(result.records) == SMALL["num_jobs"]

    def test_spec_and_meta_written(self, serial_sweep):
        out, _ = serial_sweep
        spec = SweepSpec.from_dict(
            json.loads((out / "sweep-spec.json").read_text())
        )
        assert spec == SPEC
        meta = [
            json.loads(line)
            for line in (out / "sweep-meta.jsonl").read_text().splitlines()
        ]
        assert meta[0]["executed_runs"] == 4
        assert set(meta[0]["run_wall_seconds"]) == set(outcome_keys(SPEC))

    def test_resume_runs_only_the_missing(self, serial_sweep):
        out, outcome = serial_sweep
        store = RunStore(out)
        victim = outcome.runs[0].run_key
        store.path_for(victim).unlink()
        again = run_sweep(SPEC, out_dir=str(out), workers=1, resume=True)
        assert set(again.perf) == {victim}  # only the missing ran
        assert len(again.skipped) == 3
        assert set(again.results) == {run.run_key for run in SPEC.expand()}
        assert store.path_for(victim).exists()

    def test_resume_with_everything_done_is_a_noop(self, serial_sweep):
        out, _ = serial_sweep
        again = run_sweep(SPEC, out_dir=str(out), workers=1, resume=True)
        assert again.perf == {}
        assert len(again.skipped) == 4
        assert len(again.results) == 4

    def test_duplicate_run_keys_rejected(self):
        run = RunSpec(policy="rubick-n", **SMALL)
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([run, run])

    def test_run_store_rejects_nan_meta(self, tmp_path):
        # allow_nan=False is live, not decorative: a NaN that reaches a
        # raw writer fails loudly instead of emitting non-RFC-8259 JSON.
        store = RunStore(tmp_path)
        store.append_meta({"event": "refit", "gain": 1.5})
        with pytest.raises(ValueError):
            store.append_meta({"event": "refit", "gain": float("nan")})

    def test_run_store_completed_keys(self, tmp_path):
        store = RunStore(tmp_path)
        for key in ("b-run", "a-run", "c-run"):
            store.path_for(key).write_text("{}\n")
        assert store.completed_keys() == {"a-run", "b-run", "c-run"}


def outcome_keys(spec: SweepSpec) -> list[str]:
    return [run.run_key for run in spec.expand()]


class TestParallelEquivalence:
    def test_workers2_byte_identical_to_serial(self, serial_sweep, tmp_path):
        serial_out, _ = serial_sweep
        parallel_out = tmp_path / "parallel"
        outcome = run_sweep(SPEC, out_dir=str(parallel_out), workers=2)
        assert set(outcome.results) == set(outcome_keys(SPEC))
        serial_store, parallel_store = RunStore(serial_out), RunStore(parallel_out)
        for key in outcome_keys(SPEC):
            assert (
                parallel_store.path_for(key).read_bytes()
                == serial_store.path_for(key).read_bytes()
            ), key


class TestSharedMemoOrder:
    """Runs of one testbed share plan-evaluation memos (DESIGN.md 56); no
    entry may depend on which policy warmed it."""

    def test_reversed_policy_order_writes_identical_records(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import runner
        from repro.scheduler.registry import POLICIES

        forward = tuple(sorted(POLICIES))
        trees = []
        for order in (forward, forward[::-1]):
            # Each sweep starts cold, as a fresh process would.
            monkeypatch.setattr(runner, "_SHARED_MEMO", {})
            spec = SweepSpec(policies=order, seeds=(0,), **SMALL)
            out = tmp_path / f"out-{len(trees)}"
            run_sweep(spec, out_dir=str(out), workers=1)
            store = RunStore(out)
            trees.append({
                key: store.path_for(key).read_bytes()
                for key in outcome_keys(spec)
            })
        assert len(trees[0]) == len(forward)
        assert trees[0] == trees[1]

    def test_memo_serves_only_its_testbed(self):
        from repro.oracle import SyntheticTestbed
        from repro.scheduler.registry import make_policy
        from repro.sim import Simulator
        from repro.sim.engine import SharedMemo

        cluster = RunSpec(policy="rubick", **SMALL).cluster
        memo = SharedMemo(SyntheticTestbed(cluster, seed=1))
        with pytest.raises(ValueError, match="its own testbed"):
            Simulator(
                cluster, make_policy("rubick"),
                testbed=SyntheticTestbed(cluster, seed=2), memo=memo,
            )


class TestAggregation:
    def test_cells_aggregate_across_seeds(self, serial_sweep):
        _, outcome = serial_sweep
        cells = aggregate(outcome.pairs())
        assert [c.policy for c in cells] == ["rubick-n", "synergy"]
        for cell in cells:
            assert cell.seeds == (0, 1)
            assert cell.avg_jct_h.lo <= cell.avg_jct_h.mean <= cell.avg_jct_h.hi

    def test_table_renders_policies_and_spread(self, serial_sweep):
        _, outcome = serial_sweep
        text = format_sweep_table(aggregate(outcome.pairs()), title="T")
        assert text.startswith("T\n")
        assert "rubick-n" in text and "synergy" in text
        assert "seeds" in text

    def test_in_memory_sweep_no_files(self, tmp_path):
        run = RunSpec(policy="rubick-n", seed=3, **SMALL)
        outcome = run_sweep([run], workers=1)
        assert list(tmp_path.iterdir()) == []
        assert outcome.one(policy="rubick-n").records
        assert outcome.skipped == ()
