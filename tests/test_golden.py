"""Absolute behaviour goldens for every registered policy.

Each case replays a small seeded trace through one policy and pins the
sha256 of its serialized result document (``result_to_dict``) against
``tests/data/golden.json``.  The digests catch a change that shifts a
policy's decisions, whichever code path it goes through; the paper's
Rubick-vs-baseline ratios (Table 4, Fig. 10) are built from exactly these
documents.

The grid is the eight registry policies × seeds 0, 1 × {default loop,
``scale_mode``} × {static, ``flaky``, ``fail-1h``} (``fail-1h`` is
``test_dynamics.FAIL_AT_1H``: node 0 down from 1 h to 1.5 h, which evicts
for every policy in at least one seed).  On top of it:

* one saturated 64-node ``scale_mode`` + ``flaky`` Rubick session whose
  rounds reach the acquisition loop's victim and no-op-node paths;
* Rubick on the 100-job seed-7 ``overheads`` trace (the one
  ``benchmarks/bench_overheads.py`` simulates and times), static and
  ``flaky``;
* one Rubick run with an aggressive online refitter, which must never take
  the steady-state short-circuit (refit observations happen in ``_apply``);
* ``chaos-smoke``: the ``runs/`` tree of the ``test_faults.CHAOS_SPEC``
  sweep under the ``chaos-smoke`` fault plan.  ``failures/`` stays out:
  its quarantine records carry traceback digests of source line numbers.

The golden file is only ever rewritten on request::

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cluster import PAPER_CLUSTER, resolve_dynamics
from repro.experiments import run_sweep
from repro.faults import resolve_fault_plan
from repro.oracle import SyntheticTestbed
from repro.perfmodel import OnlineRefitter
from repro.scheduler.registry import POLICIES, make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import result_to_dict
from repro.units import HOUR, MINUTE
from test_dynamics import FAIL_AT_1H
from test_faults import CHAOS_SPEC

GOLDEN = Path(__file__).parent / "data" / "golden.json"

SEEDS = (0, 1)
LOOPS = ("default", "scale")
DYNAMICS = ("static", "flaky", "fail-1h")
CHAOS = "chaos-smoke"


@dataclasses.dataclass(frozen=True)
class Case:
    policy: str
    seed: int
    scale_mode: bool
    dynamics: str
    nodes: int = 4
    jobs: int = 14
    span: float = 2 * HOUR
    duration_median: float = 20 * MINUTE
    #: Named trace (its ``WorkloadConfig.name``); empty uses the case name.
    trace: str = ""
    #: Attach an ``OnlineRefitter`` that refits on every observation.
    refit: bool = False

    @property
    def name(self) -> str:
        loop = "scale" if self.scale_mode else "default"
        name = f"{self.policy}-s{self.seed}-{loop}-{self.dynamics}-n{self.nodes}"
        if self.trace:
            name += f"-{self.trace}"
        if self.refit:
            name += "-refit"
        return name


def cases() -> list[Case]:
    grid = [
        Case(policy, seed, loop == "scale", dyn)
        for policy in POLICIES
        for seed in SEEDS
        for loop in LOOPS
        for dyn in DYNAMICS
    ]
    # Saturated: 64 nodes, more GPU demand than the fleet holds, long jobs.
    grid.append(
        Case(
            "rubick", 0, True, "flaky",
            nodes=64, jobs=120, span=1 * HOUR, duration_median=45 * MINUTE,
        )
    )
    overheads = dict(
        nodes=PAPER_CLUSTER.num_nodes, jobs=100, span=12 * HOUR,
        duration_median=35 * MINUTE, trace="overheads",
    )
    grid.append(Case("rubick", 7, False, "static", **overheads))
    grid.append(Case("rubick", 7, False, "flaky", **overheads))
    grid.append(Case("rubick", 0, False, "static", refit=True))
    return grid


def run_case(case: Case) -> dict:
    """The case's serialized result document."""
    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=case.nodes)
    testbed = SyntheticTestbed(cluster, seed=case.seed)
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=case.jobs,
            span=case.span,
            seed=case.seed,
            cluster=cluster,
            duration_median=case.duration_median,
            name=case.trace or case.name,
        ),
        testbed,
    )
    events = None
    if case.dynamics == "fail-1h":
        events = FAIL_AT_1H
    elif case.dynamics != "static":
        events = resolve_dynamics(case.dynamics).events(
            seed=case.seed, span=case.span, cluster=cluster
        )
    refitter = None
    if case.refit:
        refitter = OnlineRefitter(error_threshold=0.02, min_new_samples=1)
    sim = Simulator(
        cluster,
        make_policy(case.policy),
        testbed=testbed,
        config=EngineConfig(seed=case.seed, scale_mode=case.scale_mode),
        online_refitter=refitter,
    )
    return result_to_dict(sim.run(trace, cluster_events=events))


def digest(doc: dict) -> str:
    """sha256 of a result document's canonical JSON."""
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def chaos_digest() -> str:
    """sha256 over the ``runs/`` tree (paths and bytes) of the chaos sweep."""
    with tempfile.TemporaryDirectory() as out:
        run_sweep(
            CHAOS_SPEC, out_dir=out, workers=1,
            fault_plan=resolve_fault_plan(CHAOS), max_attempts=2,
        )
        runs = Path(out) / "runs"
        sha = hashlib.sha256()
        for path in sorted(runs.rglob("*")):
            if path.is_file():
                sha.update(str(path.relative_to(runs)).encode() + b"\0")
                sha.update(path.read_bytes() + b"\0")
        return sha.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([c.name for c in cases()] + [CHAOS])


@pytest.mark.parametrize("case", cases(), ids=lambda c: c.name)
def test_result_digest(case, golden):
    doc = run_case(case)
    if case.refit:
        assert doc["policy_skips"] == 0
    assert digest(doc) == golden[case.name]


def test_chaos_smoke_digest(golden):
    assert chaos_digest() == golden[CHAOS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true",
        help=f"recompute every digest and rewrite {GOLDEN.name}",
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do: pass --regen to rewrite the goldens")
    digests = {c.name: digest(run_case(c)) for c in cases()}
    digests[CHAOS] = chaos_digest()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
