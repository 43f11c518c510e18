"""CLI: trace generation, simulation, comparison, profiling."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.serialization import load_result, load_trace

SMALL = ["--nodes", "2", "--gpus-per-node", "8", "--seed", "17"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "nope"])


class TestGenerateTrace:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(
            ["generate-trace", *SMALL, "--jobs", "6", "--output", str(out)]
        )
        assert rc == 0
        trace = load_trace(out)
        assert len(trace) == 6
        assert "wrote 6 jobs" in capsys.readouterr().out


class TestSimulateAndCompare:
    def test_simulate_generated_trace(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(
            ["simulate", *SMALL, "--jobs", "5", "--policy", "rubick-n",
             "--output", str(out)]
        )
        assert rc == 0
        result = load_result(out)
        assert len(result.records) == 5
        assert "avg_jct_h" in capsys.readouterr().out

    def test_simulate_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["generate-trace", *SMALL, "--jobs", "5", "--output",
              str(trace_path)])
        rc = main(
            ["simulate", *SMALL, "--policy", "synergy",
             "--trace", str(trace_path)]
        )
        assert rc == 0

    def test_compare_prints_ratio_table(self, capsys):
        rc = main(
            ["compare", *SMALL, "--jobs", "5",
             "--policy", "rubick-n,synergy"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rubick-n" in out and "synergy" in out
        assert "(1.00x)" in out

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_simulate_converts_injected_fault_to_incident_record(
        self, command, capsys
    ):
        # A run killed by an injected fault prints a deterministic incident
        # record and exits 3 instead of dying with a raw traceback.
        rc = main(
            [
                command,
                "--policy", "rubick",
                "--jobs", "2",
                "--seed", "0",
                "--faults", "chaos-smoke",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 3
        assert "run terminated by injected fault" in out
        record = json.loads(out.partition("incident record:")[2])
        assert record["error"] == "InjectedCrash"
        assert "seam=worker-crash" in record["message"]
        # The digest hashes frame coordinates: stable across invocations
        # (asserted elsewhere), but not pinnable against unrelated edits.
        assert len(record["traceback_digest"]) == 12
        assert set(record["traceback_digest"]) <= set("0123456789abcdef")

    def test_compare_rejects_unknown_policy(self, capsys):
        rc = main(["compare", *SMALL, "--jobs", "5", "--policy", "nope"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--jobs", "0"], "num_jobs must be positive"),
            (["simulate", "--nodes", "0", "--jobs", "2"], "at least one node"),
            (["simulate", "--trace", "missing.json"], "no such trace file"),
            (["compare", "--policy", "simple", "--jobs", "0"],
             "num_jobs must be positive"),
            (["compare", "--policy", "simple", "--nodes", "0", "--jobs", "2"],
             "at least one node"),
            (["compare", "--policy", "simple", "--trace", "missing.json"],
             "no such trace file"),
            (["profile", "--model", "nope"], "unknown model 'nope'"),
            (["profile", "--nodes", "0", "--model", "bert"],
             "at least one node"),
        ],
    )
    def test_bad_arguments_exit_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert message in out and out.count("\n") == 1


class TestSweep:
    def test_sweep_writes_results_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--nodes", "2", "--gpus-per-node", "8",
                "--policy", "rubick-n,synergy", "--seeds", "5",
                "--jobs", "4", "--out", str(out)]
        rc = main(args)
        assert rc == 0
        assert len(list((out / "runs").glob("*.jsonl"))) == 2
        text = capsys.readouterr().out
        assert "avg JCT h" in text and "rubick-n" in text
        assert "executed 2 runs (0 resumed)" in text
        # Re-running with --resume executes nothing but reprints the table.
        rc = main(args + ["--resume"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "executed 0 runs (2 resumed)" in text
        assert "avg JCT h" in text

    def test_sweep_rejects_unknown_policy_and_variant(self, tmp_path, capsys):
        base = ["sweep", "--jobs", "4", "--out", str(tmp_path / "x")]
        assert main(base + ["--policy", "nope"]) == 2
        assert main(base + ["--variants", "weird"]) == 2

    def test_sweep_rejects_malformed_grids(self, tmp_path, capsys):
        base = ["sweep", "--jobs", "4", "--out", str(tmp_path / "x")]
        assert main(base + ["--seeds", "0,0"]) == 2
        assert main(base + ["--seeds", "a"]) == 2
        assert main(base + ["--loads", "fast"]) == 2
        out = capsys.readouterr().out
        assert "invalid sweep grid" in out

    def test_sweep_rejects_unknown_scenario(self, tmp_path, capsys):
        base = ["sweep", "--jobs", "4", "--out", str(tmp_path / "x")]
        assert main(base + ["--scenario", "nope"]) == 2
        assert "unknown scenarios" in capsys.readouterr().out

    def test_sweep_rejects_missing_replay_file_up_front(self, tmp_path, capsys):
        base = ["sweep", "--jobs", "4", "--out", str(tmp_path / "x")]
        assert main(base + ["--scenario", "replay:missing.csv"]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_sweep_over_scenarios_prints_grouped_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--nodes", "2", "--gpus-per-node", "8",
             "--policy", "rubick-n", "--seeds", "5", "--jobs", "3",
             "--scenario", "paper-12h,poisson-12h", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 scenarios" in text
        assert text.count("poisson-12h") >= 1
        assert len(list((out / "runs").glob("*.jsonl"))) == 2


class TestDynamicsFlag:
    def test_simulate_rejects_unknown_dynamics(self, capsys):
        rc = main(["simulate", "--policy", "rubick-n", "--jobs", "3",
                   "--dynamics", "nope"] + SMALL)
        assert rc == 2
        assert "unknown dynamics" in capsys.readouterr().out

    def test_sweep_rejects_unknown_dynamics(self, tmp_path, capsys):
        base = ["sweep", "--jobs", "4", "--out", str(tmp_path / "x")]
        assert main(base + ["--dynamics", "none,nope"]) == 2
        assert "unknown dynamics" in capsys.readouterr().out

    def test_simulate_with_scale_dynamics_reports_events(self, capsys):
        rc = main(["simulate", "--policy", "rubick-n", "--jobs", "4",
                   "--dynamics", "scaleout-midday"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        # The dynamics summary keys appear once events actually fired.
        assert "cluster_events" in out
        assert "lost_gpu_h" in out

    def test_compare_grows_dynamics_columns_only_when_dynamic(self, capsys):
        args = ["compare", "--policy", "rubick-n,synergy", "--jobs", "4"]
        assert main(args + SMALL) == 0
        static = capsys.readouterr().out
        assert "lost GPU-h" not in static
        assert main(args + ["--dynamics", "scaleout-midday"] + SMALL) == 0
        dynamic = capsys.readouterr().out
        assert "lost GPU-h" in dynamic and "evictions" in dynamic

    def test_sweep_over_dynamics_axis(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--nodes", "2", "--gpus-per-node", "8",
             "--policy", "rubick-n", "--seeds", "5", "--jobs", "3",
             "--dynamics", "none,scaleout-midday", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 dynamics" in text
        assert "~scaleout-midday" in text
        assert len(list((out / "runs").glob("*.jsonl"))) == 2


class TestWorkloadCommand:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-12h", "diurnal-3d", "largemodel-heavy",
                     "multitenant-burst", "paper-12h-flaky",
                     "scaleout-midday"):
            assert name in out
        assert "cluster-dynamics profiles" in out
        assert "flaky" in out

    def test_show_details_one_scenario(self, capsys):
        assert main(["workload", "show", "bursty-mmpp"]) == 0
        out = capsys.readouterr().out
        assert "arrival.kind" in out and "mmpp" in out
        assert main(["workload", "show", "nope"]) == 2

    def test_generate_writes_scenario_trace(self, tmp_path, capsys):
        out = tmp_path / "poisson.json"
        rc = main(
            ["workload", "generate", "poisson-12h", *SMALL,
             "--jobs", "5", "--output", str(out)]
        )
        assert rc == 0
        trace = load_trace(out)
        assert len(trace) == 5
        assert trace.name == "poisson-12h"
        assert "wrote 5 jobs" in capsys.readouterr().out

    def test_generate_converts_replay_fixture(self, tmp_path, capsys):
        out = tmp_path / "replay.json"
        rc = main(
            ["workload", "generate", "replay:tests/data/helios_mini.jsonl",
             *SMALL, "--output", str(out)]
        )
        assert rc == 0
        assert len(load_trace(out)) == 7
        assert main(
            ["workload", "generate", "replay:missing.csv", *SMALL,
             "--output", str(tmp_path / "x.json")]
        ) == 2


class TestProfile:
    def test_profile_prints_parameters(self, capsys):
        rc = main(["profile", *SMALL, "--model", "roberta"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k_bwd" in out and "RMSLE" in out
