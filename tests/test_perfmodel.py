"""Performance model: components, predictions, fitting."""

from __future__ import annotations

import ast
import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import PAPER_CLUSTER
from repro.errors import FittingError
from repro.models import GPT2, LLAMA2_7B, all_models
from repro.oracle import SyntheticTestbed
from repro.oracle.profiler import collect_samples, default_profile_configs
from repro.perfmodel import (
    Interconnect,
    PerfModel,
    PerfParams,
    ResourceShape,
    ThroughputSample,
    comm_volume_dp,
    comm_volume_pp,
    comm_volume_tp,
    fit_perf_model,
)
from repro.perfmodel.components import compute_breakdown
from repro.perfmodel.fitting import predict_iter_times, sample_terms
from repro.perfmodel.params import PARAM_BOUNDS
from repro.planeval.scoring import fused_throughputs
from repro.plans import ExecutionPlan, ZeroStage
from repro.plans.enumerate import enumerate_plans
from repro.rng import rng_for

ENV = Interconnect.from_cluster(PAPER_CLUSTER)


@pytest.fixture
def perf() -> PerfModel:
    return PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02, params=PerfParams())


class TestCommVolumes:
    def test_dp_zero_when_single_replica(self):
        assert comm_volume_dp(GPT2, ExecutionPlan(dp=1)) == 0.0

    def test_dp_volume_partitioned_by_shards(self):
        flat = comm_volume_dp(LLAMA2_7B, ExecutionPlan(dp=4, ga_steps=8))
        sharded = comm_volume_dp(
            LLAMA2_7B, ExecutionPlan(dp=4, tp=2, pp=2, micro_batches=2)
        )
        assert sharded == pytest.approx(flat / 4)

    def test_zero_dp_doubles_dp_volume(self):
        plain = comm_volume_dp(GPT2, ExecutionPlan(dp=4))
        zero = comm_volume_dp(GPT2, ExecutionPlan(dp=4, zero=ZeroStage.ZERO_DP))
        assert zero == pytest.approx(2 * plain)

    def test_tp_pp_zero_without_partitioning(self):
        assert comm_volume_tp(GPT2, ExecutionPlan(dp=4), 16) == 0.0
        assert comm_volume_pp(GPT2, ExecutionPlan(dp=4), 16) == 0.0

    def test_tp_volume_grows_with_degree(self):
        t2 = comm_volume_tp(LLAMA2_7B, ExecutionPlan(tp=2), 32)
        t4 = comm_volume_tp(LLAMA2_7B, ExecutionPlan(tp=4), 32)
        assert t4 > t2 > 0


class TestPredictions:
    def test_throughput_positive_and_inverse_of_iter_time(self, perf):
        plan = ExecutionPlan(dp=8, ga_steps=2)
        shape = ResourceShape.packed(8, cpus=32)
        thr = perf.throughput(plan, shape, 16)
        assert thr > 0
        assert thr == pytest.approx(16 / perf.iter_time(plan, shape, 16))

    def test_more_gpus_faster_for_dp(self, perf):
        t4 = perf.iter_time(ExecutionPlan(dp=4, ga_steps=4), ResourceShape.packed(4, cpus=16), 16)
        t8 = perf.iter_time(ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32), 16)
        assert t8 < t4

    def test_gc_slower_than_plain(self, perf):
        shape = ResourceShape.packed(8, cpus=32)
        plain = perf.iter_time(ExecutionPlan(dp=8, ga_steps=2), shape, 16)
        gc = perf.iter_time(ExecutionPlan(dp=8, ga_steps=2, gc=True), shape, 16)
        assert gc > plain

    def test_offload_cpu_scaling(self, perf):
        plan = ExecutionPlan(dp=4, zero=ZeroStage.OFFLOAD, ga_steps=4)
        few = perf.iter_time(plan, ResourceShape.packed(4, cpus=4), 16)
        many = perf.iter_time(plan, ResourceShape.packed(4, cpus=32), 16)
        assert many < few

    def test_multi_node_dp_slower_than_single_node(self, perf):
        plan = ExecutionPlan(dp=8, ga_steps=2)
        single = ResourceShape(gpus=8, num_nodes=1, min_gpus_per_node=8, cpus=32)
        spread = ResourceShape(gpus=8, num_nodes=8, min_gpus_per_node=1, cpus=32)
        assert perf.iter_time(plan, spread, 16) > perf.iter_time(plan, single, 16)

    def test_breakdown_components_sum_consistently(self, perf):
        plan = ExecutionPlan(dp=8, ga_steps=2)
        bd = perf.breakdown(plan, ResourceShape.packed(8, cpus=32), 16)
        assert bd.t_iter == pytest.approx(
            bd.t_cc + bd.t_oo + perf.params.k_const
        )

    def test_invalid_fwd_ref_rejected(self):
        with pytest.raises(ValueError):
            PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.0)


class TestFitting:
    def _samples(self, truth: PerfModel, configs) -> list[ThroughputSample]:
        return [
            ThroughputSample(
                plan=plan,
                shape=shape,
                global_batch=16,
                throughput=truth.throughput(plan, shape, 16),
            )
            for plan, shape in configs
        ]

    def test_recovers_noiseless_truth(self):
        truth = PerfModel(
            model=GPT2, env=ENV, t_fwd_ref=0.02,
            params=PerfParams(k_bwd=2.1, k_opt=6e-11, k_const=0.04,
                              k_opt_off=6e-9),
        )
        configs = [
            (ExecutionPlan(dp=1, ga_steps=16), ResourceShape.packed(1, cpus=4)),
            (ExecutionPlan(dp=2, ga_steps=8), ResourceShape.packed(2, cpus=8)),
            (ExecutionPlan(dp=4, ga_steps=4), ResourceShape.packed(4, cpus=16)),
            (ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32)),
            (ExecutionPlan(dp=8, ga_steps=2, gc=True), ResourceShape.packed(8, cpus=32)),
            (ExecutionPlan(dp=1, zero=ZeroStage.OFFLOAD, ga_steps=16),
             ResourceShape.packed(1, cpus=4)),
            (ExecutionPlan(dp=1, zero=ZeroStage.OFFLOAD, ga_steps=16),
             ResourceShape.packed(1, cpus=16)),
            (ExecutionPlan(dp=2, zero=ZeroStage.OFFLOAD, ga_steps=8, gc=True),
             ResourceShape.packed(2, cpus=8)),
        ]
        samples = self._samples(truth, configs)
        fitted, report = fit_perf_model(GPT2, ENV, 0.02, samples)
        assert report.rmsle < 0.02
        # Held-out prediction close to truth.
        plan = ExecutionPlan(dp=4, zero=ZeroStage.ZERO_DP, ga_steps=4)
        shape = ResourceShape.packed(4, cpus=16)
        assert fitted.throughput(plan, shape, 16) == pytest.approx(
            truth.throughput(plan, shape, 16), rel=0.1
        )

    def test_strict_mode_requires_seven_samples(self):
        truth = PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02)
        samples = self._samples(
            truth, [(ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32))]
        )
        with pytest.raises(FittingError, match=">= 7 samples"):
            fit_perf_model(GPT2, ENV, 0.02, samples)

    def test_strict_mode_requires_offload_samples(self):
        truth = PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02)
        configs = [
            (ExecutionPlan(dp=d, ga_steps=16 // d), ResourceShape.packed(d, cpus=4 * d))
            for d in (1, 2, 4, 8)
        ] * 2
        samples = self._samples(truth, configs)
        with pytest.raises(FittingError, match="ZeRO-Offload"):
            fit_perf_model(GPT2, ENV, 0.02, samples)

    def test_non_strict_allows_partial_sets(self):
        truth = PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02)
        samples = self._samples(
            truth,
            [(ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32))] * 3,
        )
        fitted, _ = fit_perf_model(GPT2, ENV, 0.02, samples, strict=False)
        assert fitted.params.k_bwd > 0

    def test_rejects_non_positive_throughput(self):
        bad = [
            ThroughputSample(
                plan=ExecutionPlan(dp=1, ga_steps=16),
                shape=ResourceShape.packed(1, cpus=4),
                global_batch=16,
                throughput=0.0,
            )
        ]
        with pytest.raises(FittingError):
            fit_perf_model(GPT2, ENV, 0.02, bad, strict=False)

    def test_non_finite_start_residual_is_a_fitting_error(self):
        truth = PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02)
        samples = self._samples(
            truth,
            [(ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32))] * 3,
        )
        samples.append(dataclasses.replace(samples[0], throughput=float("nan")))
        with pytest.raises(FittingError, match="not finite"):
            fit_perf_model(GPT2, ENV, 0.02, samples, strict=False)

    def test_residual_bug_is_not_a_fitting_error(self, monkeypatch):
        from repro.perfmodel import fitting

        def broken(terms, params):
            raise ZeroDivisionError("bug in the residual")

        monkeypatch.setattr(fitting, "predict_iter_times", broken)
        truth = PerfModel(model=GPT2, env=ENV, t_fwd_ref=0.02)
        samples = self._samples(
            truth,
            [(ExecutionPlan(dp=8, ga_steps=2), ResourceShape.packed(8, cpus=32))] * 3,
        )
        with pytest.raises(ZeroDivisionError):
            fit_perf_model(GPT2, ENV, 0.02, samples, strict=False)


class TestFitKernel:
    """The fitter's hoisted residual kernel is the scalar path, bit for bit."""

    @staticmethod
    def _param_vectors() -> list[list[float]]:
        names = PerfParams.names()
        bounds = [PARAM_BOUNDS[n] for n in names]
        corners = [list(c) for c in itertools.product(*bounds)]
        rng = rng_for(0, "test-fit-kernel")
        randoms = [
            [float(lo * (hi / lo) ** rng.random()) for lo, hi in bounds]
            for _ in range(16)
        ]
        return corners + randoms

    def test_kernel_equals_compute_breakdown_exactly(self):
        vectors = self._param_vectors()
        branches = set()
        for seed, model in itertools.product((0, 1, 2), all_models()):
            testbed = SyntheticTestbed(PAPER_CLUSTER, seed=seed)
            batch = model.global_batch_size
            configs = default_profile_configs(testbed, model, batch)
            samples = collect_samples(testbed, model, batch, configs)
            # Odd CPU counts: optimizer divisors that are not powers of
            # two, where regrouping k·P/(dp·c) would change the last bit.
            for gpus in (2, 8, 16):
                shape = ResourceShape.packed(gpus, cpus=5 * gpus + 1)
                plans = enumerate_plans(
                    model, batch, gpus, min_gpus_per_node=shape.min_gpus_per_node
                )
                samples += [
                    ThroughputSample(plan, shape, batch, 1.0)
                    for plan in plans[:: max(1, len(plans) // 8)]
                ]
            t_fwd_ref = testbed.profiled_fwd_ref(model)
            terms = sample_terms(model, testbed.env, t_fwd_ref, samples)
            for s in samples:
                plan = s.plan
                branches.add("pipeline" if plan.pp > 1 else "ga")
                if plan.uses_offload:
                    branches.add("offload")
                elif plan.zero == ZeroStage.ZERO_DP:
                    branches.add("zero-dp")
                elif plan.pp == 1:
                    branches.add("plain")
                if plan.gc:
                    branches.add("gc")
            for vector in vectors:
                params = PerfParams.from_vector(vector)
                kernel = predict_iter_times(terms, vector).tolist()
                scalar = [
                    compute_breakdown(
                        model, s.plan, s.shape, testbed.env, params,
                        t_fwd_ref, s.global_batch,
                    ).t_iter
                    for s in samples
                ]
                assert kernel == scalar, (model.name, seed, vector)
                # The plan engine's fused scorer is an independent copy of
                # the formula: the kernel must agree with it too.
                perf = PerfModel(model, testbed.env, t_fwd_ref, params)
                fused = [
                    fused_throughputs(perf, [s.plan], s.shape, batch)[0]
                    for s in samples
                ]
                assert fused == [batch / t for t in kernel], (model.name, seed)
        assert branches >= {"pipeline", "offload", "gc", "zero-dp", "plain"}


class TestWithoutScipy:
    """The runtime needs numpy alone: nothing in ``src/`` imports scipy."""

    @staticmethod
    def _python(code: str) -> subprocess.CompletedProcess:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )

    def test_import_leaves_scipy_unloaded(self):
        done = self._python(
            "import sys, repro, repro.cli\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))\n"
        )
        assert done.returncode == 0, done.stderr

    def test_import_works_without_scipy(self):
        done = self._python(
            "import sys\nsys.modules['scipy'] = None\nimport repro, repro.cli\n"
        )
        assert done.returncode == 0, done.stderr

    def test_fit_and_simulate_without_scipy(self):
        done = self._python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.cli import main\n"
            "from repro.cluster import PAPER_CLUSTER\n"
            "from repro.models import GPT2\n"
            "from repro.oracle import SyntheticTestbed\n"
            "from repro.oracle.profiler import build_perf_model\n"
            "_, report = build_perf_model(\n"
            "    SyntheticTestbed(PAPER_CLUSTER, seed=0), GPT2,\n"
            "    GPT2.global_batch_size)\n"
            "assert report.rmsle < 0.5, report\n"
            "sys.exit(main(['simulate', '--policy', 'rubick', '--jobs', '3',\n"
            "               '--seed', '1']))\n"
        )
        assert done.returncode == 0, done.stderr
        assert "rubick" in done.stdout

    def test_no_source_module_imports_scipy(self):
        root = Path(repro.__file__).resolve().parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "scipy" or n.startswith("scipy.") for n in names):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []
