"""Absolute behaviour goldens for the four Rubick variants.

Each case replays a small seeded trace through one Rubick variant and pins
the sha256 of its serialized result document (``result_to_dict``) against
``tests/data/golden_rubick.json``.  Unlike the relative checks elsewhere in
the suite (fast path vs reference loop, ``step()`` vs ``run()``), these
digests catch a change that shifts every code path the same way.

The grid is ``rubick``/``rubick-e``/``rubick-r``/``rubick-n`` × seeds 0, 1 ×
{default loop, ``scale_mode``} × {static, ``flaky``}, plus one saturated
64-node ``scale_mode`` + ``flaky`` Rubick session whose rounds reach the
acquisition loop's victim and no-op-node paths.

The golden file is only ever rewritten on request::

    PYTHONPATH=src python tests/test_golden_rubick.py --regen
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import PAPER_CLUSTER, resolve_dynamics
from repro.oracle import SyntheticTestbed
from repro.scheduler.registry import make_policy
from repro.sim import EngineConfig, Simulator, WorkloadConfig, generate_trace
from repro.sim.serialization import result_to_dict
from repro.units import HOUR, MINUTE

GOLDEN = Path(__file__).parent / "data" / "golden_rubick.json"

POLICIES = ("rubick", "rubick-e", "rubick-r", "rubick-n")
SEEDS = (0, 1)
LOOPS = ("default", "scale")
DYNAMICS = ("static", "flaky")


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

    @property
    def name(self) -> str:
        loop = "scale" if self.scale_mode else "default"
        return f"{self.policy}-s{self.seed}-{loop}-{self.dynamics}-n{self.nodes}"


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
    return grid


def run_case(case: Case) -> str:
    """sha256 of the case's serialized result document."""
    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=case.nodes)
    testbed = SyntheticTestbed(cluster, seed=case.seed)
    trace = generate_trace(
        WorkloadConfig(
            num_jobs=case.jobs,
            span=case.span,
            seed=case.seed,
            cluster=cluster,
            duration_median=case.duration_median,
            name=case.name,
        ),
        testbed,
    )
    events = None
    if case.dynamics != "static":
        events = resolve_dynamics(case.dynamics).events(
            seed=case.seed, span=case.span, cluster=cluster
        )
    sim = Simulator(
        cluster,
        make_policy(case.policy),
        testbed=testbed,
        config=EngineConfig(seed=case.seed, scale_mode=case.scale_mode),
    )
    result = sim.run(trace, cluster_events=events)
    doc = json.dumps(result_to_dict(result), sort_keys=True, allow_nan=False)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(c.name for c in cases())


@pytest.mark.parametrize("case", cases(), ids=lambda c: c.name)
def test_rubick_result_digest(case, golden):
    assert run_case(case) == golden[case.name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true",
        help=f"recompute every digest and rewrite {GOLDEN.name}",
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do: pass --regen to rewrite the goldens")
    digests = {c.name: run_case(c) for c in cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
