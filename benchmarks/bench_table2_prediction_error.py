"""Table 2 — performance-model prediction errors.

For each of the seven models: fit on the standard profiled sample set, then
predict ~20 unseen configurations (4 plan families × 5 resource allocations)
and report average / max relative error per family.  The paper reports
averages up to 7.4% and maxima up to 10.4%.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import format_table
from repro.cluster import PAPER_CLUSTER
from repro.models import all_models
from repro.oracle import build_perf_model
from repro.perfmodel import ResourceShape
from repro.plans import ZeroStage, enumerate_plans
from repro.scheduler import default_plan_space

BUDGET = PAPER_CLUSTER.node.usable_gpu_mem

#: Holdout plan families per model scale, as in the paper's Table 2 columns.
SMALL_FAMILIES = [
    ("DP", lambda p: p.is_pure_dp_family and not p.uses_zero and not p.gc),
    ("GC", lambda p: p.is_pure_dp_family and not p.uses_zero and p.gc),
    ("ZeRO-DP+GA", lambda p: p.zero == ZeroStage.ZERO_DP and p.ga_steps > 1),
    ("ZeRO-Offload", lambda p: p.uses_offload),
]
LARGE_FAMILIES = [
    ("TP+PP", lambda p: p.tp > 1 and p.pp > 1 and p.dp == 1),
    ("DP+TP+PP", lambda p: p.dp > 1 and (p.tp > 1 or p.pp > 1)),
    ("ZeRO-DP+GA", lambda p: p.zero == ZeroStage.ZERO_DP and p.ga_steps > 1),
    ("ZeRO-Offload", lambda p: p.uses_offload),
]


def _holdout_errors(testbed, perf, model, families, gpu_counts):
    batch = model.global_batch_size
    space = default_plan_space(model)
    errors: dict[str, list[float]] = {name: [] for name, _ in families}
    for gpus in gpu_counts:
        shape = ResourceShape.packed(gpus, cpus=gpus * 4)
        plans = enumerate_plans(
            model, batch, gpus,
            min_gpus_per_node=shape.min_gpus_per_node,
            gpu_mem_budget=BUDGET, space=space,
        )
        for name, predicate in families:
            chosen = next(
                (
                    p
                    for p in plans
                    if predicate(p)
                    and testbed.is_feasible(model, p, shape, batch)
                ),
                None,
            )
            if chosen is None:
                continue
            true = testbed.true_throughput(model, chosen, shape, batch)
            pred = perf.throughput(chosen, shape, batch)
            errors[name].append(abs(pred - true) / true)
    return errors


def test_table2_prediction_errors(benchmark, testbed):
    def experiment():
        rows = {}
        for model in all_models():
            perf, _ = build_perf_model(
                testbed, model, model.global_batch_size
            )
            small = model.param_count < 1e9
            families = SMALL_FAMILIES if small else LARGE_FAMILIES
            counts = [1, 2, 4, 6, 8] if small else [2, 4, 8, 16, 32]
            rows[model.name] = _holdout_errors(
                testbed, perf, model, families, counts
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = []
    overall = []
    for model in all_models():
        errs = rows[model.name]
        cells = [model.display_name]
        for name, _ in (
            SMALL_FAMILIES if model.param_count < 1e9 else LARGE_FAMILIES
        ):
            samples = errs[name]
            if not samples:
                cells.append("/")
                continue
            overall.extend(samples)
            cells.append(
                f"{100 * sum(samples) / len(samples):.1f}/{100 * max(samples):.1f}"
            )
        table.append(tuple(cells))
    print()
    print(
        format_table(
            ["model", "fam1 avg/max %", "fam2 avg/max %",
             "fam3 avg/max %", "fam4 avg/max %"],
            table,
            title="Table 2 — prediction error per plan family "
            "(small: DP/GC/ZeRO-DP+GA/Offload; large: TP+PP/DP+TP+PP/"
            "ZeRO-DP+GA/Offload)",
        )
    )
    assert overall, "no holdout configurations evaluated"
    avg = sum(overall) / len(overall)
    # Paper band: averages a few percent, maxima around 10%.
    assert avg < 0.12, f"average prediction error too high: {avg:.1%}"
    assert max(overall) < 0.35, f"worst prediction error: {max(overall):.1%}"
