"""Fig. 6 — resource (GPU) sensitivity curve of GPT-2.

The curve is the upper envelope over all plans of predicted throughput vs.
GPU count (1–8), flat across invalid counts.  Expected shape: monotone
non-decreasing, the best plan changes along the x-axis, and some GPU counts
are invalid (no plan uses exactly that many GPUs better than fewer).
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import format_series
from repro.models import GPT2
from repro.cluster import PAPER_CLUSTER
from repro.planeval import PlanEvalEngine


def test_fig06_gpu_sensitivity_curve(benchmark, perf_store):
    engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=perf_store)

    def experiment():
        return engine.curve(GPT2, GPT2.global_batch_size, max_gpus=8)

    curve = run_once(benchmark, experiment)
    xs, ys, plans = [], [], []
    for g in range(1, 9):
        cfg = curve.config_at(g)
        xs.append(g)
        ys.append(curve.throughput_at(g))
        plans.append(cfg.plan.describe() if cfg else "-")
    print()
    print(format_series(xs, ys, label="Fig. 6 — GPT-2 best-plan throughput vs GPUs"))
    for g, plan in zip(xs, plans):
        print(f"    {g} GPUs -> {plan}")

    # Envelope is monotone non-decreasing and strictly grows overall.
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert ys[-1] > ys[0]
    # The best plan changes along the curve (reconfiguration matters).
    assert len(set(plans)) >= 2
    # Some GPU counts are invalid: the envelope has at least one flat step.
    assert any(b == a for a, b in zip(ys, ys[1:]))
