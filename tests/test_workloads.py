"""Workload subsystem: arrival processes, job mixes, scenario registry.

The load-bearing test here is the golden byte-identity class: the default
(``paper-12h``) scenario must generate traces byte-identical to the
pre-subsystem generator.  The pinned hashes were captured on the commit
*before* the workloads refactor — if one changes, the refactor changed the
paper trace.
"""

from __future__ import annotations

import hashlib
import json
import statistics

import pytest

from repro.cluster import PAPER_CLUSTER, ClusterSpec, NodeSpec
from repro.errors import WorkloadConfigError, WorkloadError
from repro.models import LARGE_MODEL_NAMES
from repro.oracle import SyntheticTestbed
from repro.rng import rng_for
from repro.scheduler import JobPriority
from repro.sim import WorkloadConfig, generate_trace
from repro.sim.serialization import load_trace, save_trace, trace_to_dict
from repro.units import DAY, HOUR
from repro.workloads import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    DiurnalArrivals,
    FixedArrivals,
    JobMix,
    MarkovModulatedArrivals,
    PoissonArrivals,
    Scenario,
    UniformPeaksArrivals,
    arrival_from_dict,
    arrival_to_dict,
    resolve_scenario,
    scenario_trace,
    scenario_workload_config,
    validate_gpu_mix,
)

SMALL_CLUSTER = ClusterSpec(num_nodes=2, node=NodeSpec(num_gpus=8))
SPAN = 12 * HOUR


def trace_digest(trace) -> str:
    payload = json.dumps(trace_to_dict(trace), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenByteIdentity:
    """Default-scenario traces are byte-identical to the pre-PR generator."""

    #: sha256 of the canonical trace JSON, captured pre-refactor.
    GOLDEN = {
        (80, 0, "paper"):
            "2e126701849d5ac1eb973b791d5c28454fc66c0e4139e94338207f7826396962",
        (40, 19, "paper"):
            "0629b1bc1ac908d7f5504c3e91faed729a01e09523d44880da538917be78e1df",
        (6, 17, "small"):
            "b6aebc5dd20a5c3ca845ea729828b1cc05b5ae24d841c56a7789c6460015387f",
    }

    @pytest.mark.parametrize("num_jobs,seed,which", sorted(GOLDEN))
    def test_generate_trace_matches_pre_refactor_bytes(
        self, num_jobs, seed, which
    ):
        cluster = PAPER_CLUSTER if which == "paper" else SMALL_CLUSTER
        config = WorkloadConfig(num_jobs=num_jobs, seed=seed, cluster=cluster)
        trace = generate_trace(
            config, SyntheticTestbed(cluster, seed=seed)
        )
        assert trace_digest(trace) == self.GOLDEN[(num_jobs, seed, which)]

    def test_default_scenario_config_is_the_pre_refactor_config(self):
        config = scenario_workload_config(
            resolve_scenario(DEFAULT_SCENARIO),
            seed=19,
            cluster=PAPER_CLUSTER,
            num_jobs=40,
            span=SPAN,
        )
        assert config == WorkloadConfig(num_jobs=40, seed=19)


class TestArrivalProcesses:
    def rng(self):
        return rng_for(5, "test-arrivals")

    @pytest.mark.parametrize(
        "process",
        [
            UniformPeaksArrivals(),
            PoissonArrivals(),
            MarkovModulatedArrivals(),
            DiurnalArrivals(),
            DiurnalArrivals(weekend_factor=0.3),
        ],
        ids=lambda p: p.kind + (
            "-weekend" if getattr(p, "weekend_factor", 1.0) != 1.0 else ""
        ),
    )
    def test_contract_count_sorted_deterministic(self, process):
        times = process.sample(self.rng(), 50, SPAN)
        assert len(times) == 50
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)
        assert times == process.sample(self.rng(), 50, SPAN)

    def test_uniform_peaks_matches_the_paper_reference_draws(self):
        """The generic peak walk is draw-for-draw the paper's hardcoded one."""
        rng = self.rng()
        reference = []
        for _ in range(200):
            mode = rng.random()
            if mode < 0.5:
                t = rng.uniform(0.0, SPAN)
            elif mode < 0.75:
                t = rng.normal(0.30 * SPAN, 0.08 * SPAN)
            else:
                t = rng.normal(0.70 * SPAN, 0.08 * SPAN)
            reference.append(float(min(max(t, 0.0), SPAN)))
        assert UniformPeaksArrivals().sample(self.rng(), 200, SPAN) == sorted(
            reference
        )

    def test_poisson_average_rate_matches_target(self):
        times = PoissonArrivals().sample(self.rng(), 400, SPAN)
        assert times[-1] == pytest.approx(SPAN, rel=0.2)

    def test_mmpp_is_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps: MMPP >> 1, Poisson ~1."""

        def gap_cv2(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = statistics.fmean(gaps)
            return statistics.pvariance(gaps) / mean**2

        poisson = PoissonArrivals().sample(self.rng(), 600, SPAN)
        bursty = MarkovModulatedArrivals().sample(self.rng(), 600, SPAN)
        # Poisson gaps have CV^2 ~ 1; the MMPP's state mixing pushes it
        # well above (measured ~1.6 at the default knobs).
        assert gap_cv2(poisson) < 1.2
        assert gap_cv2(bursty) > 1.4 * gap_cv2(poisson)

    def test_diurnal_peak_hours_beat_trough_hours(self):
        process = DiurnalArrivals(peak_hour=14.0, night_depth=0.1)
        times = process.sample(self.rng(), 900, 3 * DAY)
        hours = [(t / HOUR) % 24.0 for t in times]
        peak = sum(1 for h in hours if 11.0 <= h < 17.0)
        trough = sum(1 for h in hours if h < 3.0 or h >= 23.0)
        assert peak > 2.0 * trough

    def test_diurnal_weekend_factor_quiets_weekends(self):
        process = DiurnalArrivals(weekend_factor=0.2)
        times = process.sample(self.rng(), 1000, 14 * DAY)
        weekend = sum(1 for t in times if int(t // DAY) % 7 >= 5)
        # A uniform week would put 2/7 ~ 29% on the weekend.
        assert weekend / len(times) < 0.15

    def test_fixed_arrivals_replay_and_bounds(self):
        process = FixedArrivals(times=(30.0, 10.0, 20.0))
        assert process.sample(self.rng(), 3, SPAN) == [10.0, 20.0, 30.0]
        assert process.sample(self.rng(), 2, SPAN) == [10.0, 20.0]
        with pytest.raises(WorkloadConfigError, match="3 times"):
            process.sample(self.rng(), 4, SPAN)

    def test_knob_validation(self):
        with pytest.raises(WorkloadConfigError, match="sum to 1.0"):
            UniformPeaksArrivals(background=0.9)
        with pytest.raises(WorkloadConfigError, match="burst_factor"):
            MarkovModulatedArrivals(burst_factor=0.5)
        with pytest.raises(WorkloadConfigError, match="night_depth"):
            DiurnalArrivals(night_depth=0.0)
        with pytest.raises(WorkloadConfigError, match=">= 0"):
            FixedArrivals(times=(-1.0,))

    def test_round_trip_serialization(self):
        for process in (
            UniformPeaksArrivals(),
            PoissonArrivals(),
            MarkovModulatedArrivals(burst_factor=3.0),
            DiurnalArrivals(weekend_factor=0.5),
            FixedArrivals(times=(1.0, 2.0)),
        ):
            data = json.loads(json.dumps(arrival_to_dict(process)))
            assert arrival_from_dict(data) == process
        with pytest.raises(WorkloadConfigError, match="unknown arrival"):
            arrival_from_dict({"kind": "nope"})


class TestMixValidation:
    def test_default_mix_valid_everywhere(self):
        validate_gpu_mix(JobMix().gpu_mix, SMALL_CLUSTER)
        validate_gpu_mix(JobMix().gpu_mix, PAPER_CLUSTER)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(WorkloadConfigError, match="sum to 1.0"):
            WorkloadConfig(gpu_mix=((1, 0.5), (2, 0.6)))

    def test_rejects_mix_entirely_above_cluster(self):
        with pytest.raises(WorkloadConfigError, match="exceeds the cluster"):
            WorkloadConfig(
                gpu_mix=((32, 0.5), (64, 0.5)), cluster=SMALL_CLUSTER
            )
        # Partially-oversized mixes are fine: the feasibility fix-up clamps.
        WorkloadConfig(gpu_mix=((1, 0.5), (64, 0.5)), cluster=SMALL_CLUSTER)

    def test_rejects_degenerate_entries(self):
        with pytest.raises(WorkloadConfigError, match="positive integers"):
            JobMix(gpu_mix=((0, 1.0),))
        with pytest.raises(WorkloadConfigError, match="non-negative"):
            JobMix(gpu_mix=((1, 1.5), (2, -0.5)))
        with pytest.raises(WorkloadConfigError, match="at least one entry"):
            JobMix(gpu_mix=())

    def test_mix_knob_validation(self):
        with pytest.raises(WorkloadConfigError, match="duration_median"):
            JobMix(duration_median=0.0)
        with pytest.raises(WorkloadConfigError, match="min_duration"):
            JobMix(min_duration=100.0, max_duration=50.0)
        with pytest.raises(WorkloadConfigError, match="unknown model"):
            JobMix(model_weights=(("nope", 1.0),))
        with pytest.raises(WorkloadConfigError, match="large_model_factor"):
            JobMix(large_model_factor=-1.0)

    def test_weights_dict_defaults_to_uniform_sentinel(self):
        assert JobMix().weights_dict() == {}
        heavy = JobMix(large_model_factor=4.0).weights_dict()
        assert all(heavy[name] == 4.0 for name in LARGE_MODEL_NAMES)
        assert heavy["bert"] == 1.0


class TestScenarioRegistry:
    def test_issue_scenarios_registered(self):
        names = set(SCENARIOS.names())
        assert {
            "paper-12h", "poisson-12h", "bursty-mmpp", "diurnal-3d",
            "largemodel-heavy", "multitenant-burst",
        } <= names

    def test_unknown_scenario_raises(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            resolve_scenario("nope")

    def test_replay_resolves_dynamically(self):
        scenario = resolve_scenario("replay:tests/data/philly_mini.csv")
        assert scenario.is_replay
        assert scenario.source == "tests/data/philly_mini.csv"
        with pytest.raises(WorkloadError, match="needs a path"):
            resolve_scenario("replay:")

    def test_scenario_needs_exactly_one_source(self):
        with pytest.raises(WorkloadError, match="exactly one"):
            Scenario(name="x", description="both unset")
        with pytest.raises(WorkloadError, match="exactly one"):
            Scenario(
                name="x", description="both set",
                arrival=PoissonArrivals(), source="t.csv",
            )

    def test_scenario_span_overrides_run_span(self):
        config = scenario_workload_config(
            resolve_scenario("diurnal-3d"),
            seed=0, cluster=SMALL_CLUSTER, num_jobs=10, span=SPAN,
        )
        assert config.span == 3 * DAY
        assert config.name == "diurnal-3d"

    def test_replay_scenario_has_no_generator_config(self):
        with pytest.raises(WorkloadError, match="no generator config"):
            scenario_workload_config(
                resolve_scenario("replay:tests/data/philly_mini.csv"),
                seed=0, cluster=SMALL_CLUSTER, num_jobs=10, span=SPAN,
            )


GENERATED_SCENARIOS = [
    name for name, s in SCENARIOS.items() if not s.is_replay
]


class TestScenarioRoundTrips:
    """Every registered scenario generates, serializes and re-loads
    deterministically (same seed → identical bytes)."""

    @pytest.mark.parametrize("name", GENERATED_SCENARIOS)
    def test_generate_serialize_reload_deterministic(self, name, tmp_path):
        scenario = resolve_scenario(name)

        def build():
            return scenario_trace(
                scenario, seed=11, cluster=SMALL_CLUSTER, num_jobs=6,
            )

        first, second = build(), build()
        assert trace_digest(first) == trace_digest(second)
        path = tmp_path / f"{name}.json"
        save_trace(first, path)
        assert trace_digest(load_trace(path)) == trace_digest(first)
        assert len(first) == 6

    def test_different_scenarios_differ(self):
        digests = {
            name: trace_digest(
                scenario_trace(
                    resolve_scenario(name),
                    seed=11, cluster=SMALL_CLUSTER, num_jobs=6,
                )
            )
            for name in ("paper-12h", "poisson-12h", "bursty-mmpp")
        }
        assert len(set(digests.values())) == len(digests)

    def test_multitenant_burst_splits_tenants(self):
        trace = scenario_trace(
            resolve_scenario("multitenant-burst"),
            seed=11, cluster=SMALL_CLUSTER, num_jobs=12,
        )
        priorities = {j.priority for j in trace}
        assert priorities == {JobPriority.GUARANTEED, JobPriority.BEST_EFFORT}
        assert {j.tenant for j in trace} == {"tenant-a", "tenant-b"}

    def test_largemodel_heavy_shifts_the_mix(self):
        def large_jobs(name):
            trace = scenario_trace(
                resolve_scenario(name),
                seed=11, cluster=PAPER_CLUSTER, num_jobs=40,
            )
            return sum(1 for j in trace if j.model_name in LARGE_MODEL_NAMES)

        assert large_jobs("largemodel-heavy") > large_jobs("paper-12h")
