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
* one Sia run with the same refitter, whose digest moves if a refit fails
  to reach the curves Sia ranks jobs by;
* ``chaos-smoke``: the ``runs/`` tree of the ``test_faults.CHAOS_SPEC``
  sweep under the ``chaos-smoke`` fault plan.  ``failures/`` stays out:
  its quarantine records carry traceback digests of source line numbers.

Next to each digest, ``tests/data/golden_facts.json`` keeps the case's
avg JCT and makespan (hours), evictions and restarts, so a regen can be
reviewed by what it changed.  Both files are only ever rewritten on
request::

    PYTHONPATH=src python tests/test_golden.py --regen

which prints one row per changed case, the default loop's cases first, then
``scale_mode``'s: old → new digest prefix and old → new facts.
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
FACTS = GOLDEN.with_name("golden_facts.json")

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
    # Sia re-reads its jobs' curves every round: a refit must reach them.
    grid.append(Case("sia", 0, False, "static", refit=True))
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


def facts(docs: list[dict]) -> dict:
    """Avg JCT and makespan (h), evictions and restarts of a case's documents.

    A multi-run case (the chaos sweep) averages the runs' avg JCT, takes
    the longest makespan and sums the counts.
    """
    return {
        "avg_jct_h": sum(d["summary"]["avg_jct_h"] for d in docs) / len(docs),
        "makespan_h": max(d["summary"]["makespan_h"] for d in docs),
        "evictions": sum(d.get("evictions", 0) for d in docs),
        "restarts": sum(
            r.get("restart_count", 0) for d in docs for r in d["records"]
        ),
    }


def chaos_run() -> tuple[str, dict]:
    """sha256 over the ``runs/`` tree (paths and bytes) of the chaos sweep,
    and the facts of its run records (quarantined ``.corrupt`` sidecars
    count in the digest only)."""
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
        docs = [
            json.loads(path.read_text())["result"]
            for path in sorted(runs.glob("*.jsonl"))
        ]
        return sha.hexdigest(), facts(docs)


def loop_of(name: str) -> str:
    """The simulator loop of a case; the chaos sweep runs the default one."""
    return "scale_mode" if "-scale-" in name else "default"


#: Each fact's format in the regen table.
FACT_FORMATS = {
    "avg_jct_h": ".3f", "makespan_h": ".3f", "evictions": "d", "restarts": "d",
}
#: The facts of a case that has none on record yet.
NO_FACTS = dict.fromkeys(FACT_FORMATS)


def _change(old, new, fmt: str) -> str:
    if old == new:
        return format(new, fmt)
    before = "–" if old is None else format(old, fmt)
    return f"{before} → {format(new, fmt)}"


def changed_table(
    old: dict[str, tuple[str, dict]], new: dict[str, tuple[str, dict]]
) -> list[str]:
    """Markdown rows for every case whose digest changed from ``old`` to
    ``new`` (name -> (digest, facts)), the default loop's first."""
    rows = [
        "| loop | case | digest | avg JCT (h) | makespan (h) | evictions | restarts |",
        "|---|---|---|---|---|---|---|",
    ]
    for loop in ("default", "scale_mode"):
        for name, (sha, new_facts) in new.items():
            old_sha, old_facts = old.get(name, ("", NO_FACTS))
            if loop_of(name) != loop or sha == old_sha:
                continue
            cells = [f"{old_sha[:8] or '–'} → {sha[:8]}"] + [
                _change(old_facts[key], new_facts[key], fmt)
                for key, fmt in FACT_FORMATS.items()
            ]
            rows.append(f"| {loop} | {name} | " + " | ".join(cells) + " |")
    return rows


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_facts() -> dict[str, dict]:
    return json.loads(FACTS.read_text())


def test_golden_covers_every_case(golden, golden_facts):
    names = sorted([c.name for c in cases()] + [CHAOS])
    assert sorted(golden) == names
    assert sorted(golden_facts) == names


@pytest.mark.parametrize("case", cases(), ids=lambda c: c.name)
def test_result_digest(case, golden, golden_facts):
    doc = run_case(case)
    if case.refit:
        assert doc["policy_skips"] == 0
    assert facts([doc]) == golden_facts[case.name]
    assert digest(doc) == golden[case.name]


def test_chaos_smoke_digest(golden, golden_facts):
    sha, chaos_facts = chaos_run()
    assert chaos_facts == golden_facts[CHAOS]
    assert sha == golden[CHAOS]


def test_changed_table_lists_changed_cases_by_loop():
    def entry(sha, jct, evictions=0):
        return sha, dict(
            avg_jct_h=jct, makespan_h=2.0, evictions=evictions, restarts=0
        )

    old = {
        "sia-s0-scale-static-n4": entry("aa" * 32, 1.0),
        "sia-s0-default-static-n4": entry("bb" * 32, 1.0),
        "sia-s1-default-static-n4": entry("cc" * 32, 1.0),
        CHAOS: entry("dd" * 32, 1.0),
    }
    new = {
        "sia-s0-scale-static-n4": entry("ab" * 32, 1.25, evictions=2),
        "sia-s0-default-static-n4": entry("bb" * 32, 1.0),
        "sia-s1-default-static-n4": entry("cd" * 32, 1.0),
        CHAOS: entry("dd" * 32, 1.0),
        "simple-s0-default-static-n4": entry("ee" * 32, 0.5),
    }
    assert changed_table(old, new)[2:] == [
        "| default | sia-s1-default-static-n4 | cccccccc → cdcdcdcd | 1.000 | "
        "2.000 | 0 | 0 |",
        "| default | simple-s0-default-static-n4 | – → eeeeeeee | – → 0.500 | "
        "– → 2.000 | – → 0 | – → 0 |",
        "| scale_mode | sia-s0-scale-static-n4 | aaaaaaaa → abababab | "
        "1.000 → 1.250 | 2.000 | 0 → 2 | 0 |",
    ]
    assert changed_table(old, old)[2:] == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true",
        help=f"recompute every case and rewrite {GOLDEN.name} and {FACTS.name}",
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do: pass --regen to rewrite the goldens")
    old_digests = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    old_facts = json.loads(FACTS.read_text()) if FACTS.exists() else {}
    old = {
        name: (sha, old_facts.get(name, NO_FACTS))
        for name, sha in old_digests.items()
    }
    new = {}
    for case in cases():
        doc = run_case(case)
        new[case.name] = (digest(doc), facts([doc]))
    new[CHAOS] = chaos_run()
    rows = changed_table(old, new)
    print(f"{len(rows) - 2} of {len(new)} cases changed")
    if len(rows) > 2:
        print("\n".join(rows))
    for path, index in ((GOLDEN, 0), (FACTS, 1)):
        doc = {name: entry[index] for name, entry in new.items()}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} digests to {GOLDEN} and their facts to {FACTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
