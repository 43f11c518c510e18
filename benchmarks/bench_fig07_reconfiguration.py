"""Fig. 7 — Rubick reconfigures a LLaMA-2-7B job through shrinking limits.

Stages: 4×8 GPUs → 4×4 → 4 → 1 → 1 GPU with doubled CPUs.  Expected shape:
3D-parallel configurations win while multi-GPU; at 1 GPU ZeRO-Offload is the
only feasible plan; doubling the CPUs speeds the offloaded optimizer up
substantially (the paper measures 1.7×).
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.models import LLAMA2_7B
from repro.perfmodel import ResourceShape
from repro.planeval import PlanEvalEngine

#: (label, gpus, num_nodes, cpus)
STAGES = [
    ("4 x 8-GPUs", 32, 4, 128),
    ("4 x 4-GPUs", 16, 4, 64),
    ("4 GPUs", 4, 1, 16),
    ("1 GPU", 1, 1, 8),
    ("1 GPU, 2x CPUs", 1, 1, 16),
]


def test_fig07_reconfiguration_walk(benchmark, testbed, perf_store):
    engine = PlanEvalEngine(PAPER_CLUSTER, perf_store=perf_store)
    batch = LLAMA2_7B.global_batch_size

    def experiment():
        results = []
        for label, gpus, nodes, cpus in STAGES:
            shape = ResourceShape(
                gpus=gpus,
                num_nodes=nodes,
                min_gpus_per_node=gpus // nodes,
                cpus=cpus,
            )
            best = engine.best(LLAMA2_7B, batch, shape)
            assert best is not None, f"no feasible plan at stage {label}"
            true_thr = testbed.true_throughput(
                LLAMA2_7B, best.plan, shape, batch
            )
            results.append((label, best.plan, best.throughput, true_thr))
        return results

    results = run_once(benchmark, experiment)
    rows = [
        (label, plan.describe(), f"{pred:.2f}", f"{true:.2f}")
        for label, plan, pred, true in results
    ]
    print()
    print(
        format_table(
            ["stage", "Rubick's chosen plan", "predicted ex/s", "true ex/s"],
            rows,
            title="Fig. 7 — LLaMA-2-7B reconfiguration under shrinking limits",
        )
    )

    by_label = {label: (plan, true) for label, plan, _, true in results}
    # Multi-node stages use a scalable multi-GPU strategy (3D parallelism or
    # ZeRO-DP — which of the two wins depends on the testbed's hidden
    # bandwidth constants; the paper's cluster favored 3D).
    plan32, _ = by_label["4 x 8-GPUs"]
    assert plan32.num_gpus == 32
    assert plan32.tp > 1 or plan32.pp > 1 or plan32.uses_zero
    # 1 GPU: ZeRO-Offload is the only feasible option for a 7B model.
    plan1, thr1 = by_label["1 GPU"]
    assert plan1.uses_offload
    # Doubling CPUs accelerates the offloaded optimizer.  The paper measures
    # 1.7x; our testbed's 7B compute share is larger, so the speedup is
    # smaller but clearly present (the bench prints both throughputs).
    _, thr2 = by_label["1 GPU, 2x CPUs"]
    assert thr2 > thr1 * 1.08, f"CPU doubling speedup only {thr2 / thr1:.2f}x"
    # Throughput decreases monotonically as the limits shrink.
    trues = [true for _, _, _, true in results[:4]]
    assert all(a >= b for a, b in zip(trues, trues[1:]))
