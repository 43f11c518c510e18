"""The invariant linter (``repro lint``): rules, suppressions, CLI.

Each rule is exercised against a dedicated fixture under
``tests/data/statics/`` with positive cases (must be found), negative
cases (compliant idioms must stay silent), and a suppressed case (inline
directive with a written reason).  The fixture tests are written so that
disabling a rule makes its test fail: every expectation counts concrete
positives.

The self-check tests at the bottom are the other half of the CI gate:
they pin the *live tree* at zero findings, so a new violation fails the
suite even before the dedicated ``static-analysis`` CI job runs.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.statics.cli import EXPLAIN_EXAMPLE
from repro.statics.core import (
    DEFAULT_TARGETS,
    META_CODE,
    Finding,
    ImportMap,
)
from repro.statics.engine import run_lint
from repro.statics.rules import all_rules, rules_by_code

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "data" / "statics"


def lint_fixture(name: str, rules=None):
    """Lint one fixture file; returns the full report."""
    return run_lint(root=FIXTURES, targets=(name,), rules=rules)


@pytest.fixture(scope="module")
def live_report():
    """One whole-tree lint run, shared by every live-tree test."""
    return run_lint(root=REPO_ROOT, targets=DEFAULT_TARGETS)


def codes_of(report) -> list[str]:
    return [f.code for f in report.findings]


# ----------------------------------------------------------------------
# Per-rule fixtures: positives found, negatives silent, suppression honored
# ----------------------------------------------------------------------
#: (fixture, rule code, count of positive findings, substrings that must
#: each appear in exactly one finding's offending-line content)
RULE_CASES = [
    (
        "rpl001_cases.py",
        "RPL001",
        5,
        ["clock.time()", "datetime.now()", "random.random()",
         "np.random.exponential", "clock.perf_counter()"],
    ),
    (
        "rpl002_cases.py",
        "RPL002",
        6,
        ["wall_seconds.values()", "x * 0.5", "sum(set(xs))",
         "os.listdir(path)]", "glob.glob(pattern)", "rglob"],
    ),
    (
        "rpl003_cases.py",
        "RPL003",
        6,
        ["node.up = False", "node.used_gpus += 4",
         'node.allocations["job-1"] = share',
         'del node.allocations["job-1"]', ".pop", "_notify"],
    ),
    (
        "rpl004_cases.py",
        "RPL004",
        4,
        ["def widget_to_dict", "def to_dict", "json.dump(payload, fh)",
         "json.dumps(payload, indent=1)"],
    ),
    (
        "rpl005_cases.py",
        "RPL005",
        2,
        ["self._best_cache: dict = {}", "def positive_lru_over_store"],
    ),
    (
        "rpl006_cases.py",
        "RPL006",
        1,
        ['object.__setattr__(self, "value", self.value + 1)'],
    ),
    (
        "rpl007_cases.py",
        "RPL007",
        3,
        ["except Exception:", "except:", "(ValueError, Exception)"],
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "fixture,code,count,anchors",
        RULE_CASES,
        ids=[c[1] for c in RULE_CASES],
    )
    def test_positives_found_negatives_silent(
        self, fixture, code, count, anchors
    ):
        report = lint_fixture(fixture)
        found = [f for f in report.findings if f.code == code]
        assert len(found) == count, [f.format() for f in report.findings]
        # Every finding sits on a positive_* line (or the decorated def /
        # memo-init it anchors to), never on a negative_* case.
        for finding in found:
            assert "negative" not in finding.content
            assert "suppressed" not in finding.content
        # Each anchor substring identifies exactly one distinct positive.
        for anchor in anchors:
            hits = [f for f in found if anchor in f.content]
            assert len(hits) == 1, (anchor, [f.content for f in found])
        # No stray findings of other codes (the fixtures are single-rule
        # by construction), and no unused-suppression meta noise.
        assert set(codes_of(report)) == {code}

    @pytest.mark.parametrize(
        "fixture,code,count,anchors",
        RULE_CASES,
        ids=[c[1] for c in RULE_CASES],
    )
    def test_suppressed_case_is_suppressed(self, fixture, code, count, anchors):
        report = lint_fixture(fixture)
        assert report.suppressed == 1
        # The directive was *used*: no RPL000 unused-suppression finding.
        assert META_CODE not in codes_of(report)

    @pytest.mark.parametrize(
        "fixture,code,count,anchors",
        RULE_CASES,
        ids=[c[1] for c in RULE_CASES],
    )
    def test_fixture_detects_rule_disablement(
        self, fixture, code, count, anchors
    ):
        """With the rule deselected the positives vanish — proving the
        findings in the sibling test come from *this* rule, not another."""
        others = tuple(r for r in all_rules() if r.code != code)
        report = lint_fixture(fixture, rules=others)
        assert code not in codes_of(report)
        # ...and its suppression is not judged by a run that left it out.
        assert META_CODE not in codes_of(report)

    def test_rule_registry_is_complete_and_sorted(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert codes == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
            "RPL007", "RPL008", "RPL010",
        ]
        with pytest.raises(ValueError):
            rules_by_code(["RPL999"])


# ----------------------------------------------------------------------
# Whole-program flow rules (RPL008, RPL010)
# ----------------------------------------------------------------------
#: Same shape as RULE_CASES, but these fixtures are linted with only the
#: rule under test selected: they deliberately contain RPL001-visible
#: source lines (that is the point — the flow rule must fire where the
#: per-line rule cannot), so the single-rule-per-fixture invariant of
#: RULE_CASES does not hold.
FLOW_CASES = [
    (
        "rpl008_cases.py",
        "RPL008",
        3,
        ["json.dumps(doc", 'persist({"stamp"', "hashlib.sha256"],
    ),
    (
        "rpl010_cases.py",
        "RPL010",
        1,
        ["middle(injector)"],
    ),
]


class TestFlowRuleFixtures:
    @pytest.mark.parametrize(
        "fixture,code,count,anchors",
        FLOW_CASES,
        ids=[c[1] for c in FLOW_CASES],
    )
    def test_positives_found_negatives_silent(
        self, fixture, code, count, anchors
    ):
        report = lint_fixture(fixture, rules=rules_by_code([code]))
        found = [f for f in report.findings if f.code == code]
        assert len(found) == count, [f.format() for f in report.findings]
        for finding in found:
            assert "negative" not in finding.content
            assert "suppressed" not in finding.content
        for anchor in anchors:
            hits = [f for f in found if anchor in f.content]
            assert len(hits) == 1, (anchor, [f.content for f in found])
        assert set(codes_of(report)) == {code}
        # The fixture's one suppression directive was honored *and* used.
        assert report.suppressed == 1
        assert META_CODE not in codes_of(report)

    @pytest.mark.parametrize(
        "fixture,code,count,anchors",
        FLOW_CASES,
        ids=[c[1] for c in FLOW_CASES],
    )
    def test_fixture_detects_rule_disablement(
        self, fixture, code, count, anchors
    ):
        others = tuple(r for r in all_rules() if r.code != code)
        report = lint_fixture(fixture, rules=others)
        assert code not in codes_of(report)
        assert META_CODE not in codes_of(report)

    def test_rpl008_sees_the_two_hop_flow_rpl001_cannot(self):
        """The acceptance demo: entropy born in one function, laundered
        through a second, persisted in a third.  RPL001 flags the source
        expression; only RPL008 connects it to the sink and anchors the
        finding at the crossing."""
        flow = lint_fixture(
            "rpl008_cases.py", rules=rules_by_code(["RPL008"])
        )
        hit = next(f for f in flow.findings if "json.dumps(doc" in f.content)
        assert hit.line == 35
        assert "time.time (rpl008_cases.py:19)" in hit.message
        # The finding carries the full hop trail for --explain.
        assert "source time.time at rpl008_cases.py:19" in hit.explanation
        assert (
            "through rpl008_cases.entropy_amount()" in hit.explanation
        )
        assert "through rpl008_cases.launder()" in hit.explanation
        assert "sink json.dumps at rpl008_cases.py:35" in hit.explanation

        per_line = lint_fixture(
            "rpl008_cases.py", rules=rules_by_code(["RPL001"])
        )
        rpl001_lines = {
            f.line for f in per_line.findings if f.code == "RPL001"
        }
        assert 19 in rpl001_lines  # RPL001 sees the source line...
        assert hit.line not in rpl001_lines  # ...but not the sink crossing

    def test_rpl008_sink_behind_a_parameter(self):
        """``persist(doc)`` anchors at the *call site* passing tainted
        data, with the sink reported inside the callee."""
        flow = lint_fixture(
            "rpl008_cases.py", rules=rules_by_code(["RPL008"])
        )
        hit = next(f for f in flow.findings if "persist(" in f.content)
        assert hit.line == 40
        assert "os.getpid (rpl008_cases.py:39)" in hit.message
        assert "sink json.dumps (rpl008_cases.py:29)" in hit.message
        assert "into rpl008_cases.persist()" in hit.explanation

    def test_rpl010_escape_chain_and_containment(self):
        report = lint_fixture(
            "rpl010_cases.py", rules=rules_by_code(["RPL010"])
        )
        (hit,) = report.findings
        # Only the armed, unguarded entry is flagged; the guarded and the
        # disarmed entries stay silent.
        assert "positive_entry()" in hit.message
        assert "fault seam 'fixture-seam' (rpl010_cases.py:17)" in hit.message
        assert (
            "armed seam 'fixture-seam' at rpl010_cases.py:17"
            in hit.explanation
        )
        assert (
            "escapes through call to rpl010_cases.seam_site()"
            in hit.explanation
        )
        assert (
            "reaches entry point rpl010_cases.positive_entry() uncontained"
            in hit.explanation
        )

    def test_explanation_is_not_part_of_finding_identity(self):
        """Equality and ordering ignore the explanation payload, so a
        dataflow refinement never reorders or dedupes the report."""
        a = Finding(
            path="m.py", line=1, col=1, code="RPL008",
            message="msg", content="c", explanation="trail A",
        )
        b = Finding(
            path="m.py", line=1, col=1, code="RPL008",
            message="msg", content="c", explanation="trail B",
        )
        assert a == b
        assert not a < b and not b < a


# ----------------------------------------------------------------------
# Suppression contract (RPL000 meta findings)
# ----------------------------------------------------------------------
class TestSuppressionContract:
    @pytest.fixture()
    def report(self):
        return lint_fixture("rpl000_cases.py")

    def test_reasonless_suppression_does_not_suppress(self, report):
        # The directive without ' -- reason' earns an RPL000 *and* leaves
        # the underlying RPL004 finding standing.
        meta = [
            f for f in report.findings
            if f.code == META_CODE and "no written justification" in f.message
        ]
        assert len(meta) == 1
        assert any(
            f.code == "RPL004" and f.line == meta[0].line
            for f in report.findings
        )

    def test_unused_suppression_is_flagged(self, report):
        assert any(
            f.code == META_CODE and "matches no finding" in f.message
            for f in report.findings
        )

    def test_malformed_directive_is_flagged(self, report):
        assert any(
            f.code == META_CODE and "malformed" in f.message
            for f in report.findings
        )

    def test_directive_inside_string_is_ignored(self, report):
        # The string literal mentioning repro-lint produces neither a
        # suppression nor a meta finding.
        in_string = [
            f for f in report.findings if "not a comment" in f.content
        ]
        assert in_string == []

    def test_nothing_suppressed(self, report):
        assert report.suppressed == 0

    def test_stale_suppression_flagged_by_any_run_of_its_rule(self):
        for rules in (None, rules_by_code(["RPL003"])):  # full run, subset
            report = lint_fixture("rpl000_cases.py", rules)
            assert any(
                "matches no finding" in f.message for f in report.findings
            )

    @pytest.mark.parametrize("select", [
        ["RPL008", "RPL010"],
        ["RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006", "RPL007"],
    ], ids=["flow-rules", "line-rules"])
    def test_live_subset_run_reports_no_stale_suppression(self, select):
        # Each subset leaves out rules whose live suppressions are earned.
        report = run_lint(
            root=REPO_ROOT, targets=DEFAULT_TARGETS,
            rules=rules_by_code(select),
        )
        assert report.suppressed > 0
        assert [
            f.format() for f in report.findings if f.code == META_CODE
        ] == []


# ----------------------------------------------------------------------
# Core helpers
# ----------------------------------------------------------------------
class TestImportMap:
    def resolve(self, source: str, expr: str) -> str | None:
        tree = ast.parse(source + "\n" + expr)
        imports = ImportMap(tree)
        last = tree.body[-1]
        assert isinstance(last, ast.Expr)
        return imports.resolve(last.value)

    def test_aliased_module(self):
        assert (
            self.resolve("import time as _t", "_t.perf_counter")
            == "time.perf_counter"
        )

    def test_from_import_symbol(self):
        assert (
            self.resolve("from datetime import datetime", "datetime.now")
            == "datetime.datetime.now"
        )

    def test_submodule_attribute_chain(self):
        assert (
            self.resolve("import numpy as np", "np.random.exponential")
            == "numpy.random.exponential"
        )

    def test_unimported_root_is_none(self):
        assert self.resolve("import os", "job.random.draw") is None


class TestFindingIdentity:
    def test_format_is_clickable(self):
        f = Finding("src/m.py", 3, 7, "RPL002", "msg", content="c")
        assert f.format() == "src/m.py:3:7: RPL002 msg"


# ----------------------------------------------------------------------
# Engine determinism
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    def test_repeat_runs_identical(self):
        first = lint_fixture("rpl002_cases.py")
        second = lint_fixture("rpl002_cases.py")
        assert first.findings == second.findings
        assert first.as_dict() == second.as_dict()

    def test_findings_sorted_by_location(self):
        report = run_lint(root=FIXTURES, targets=(".",))
        assert report.findings == sorted(report.findings)
        assert report.files_scanned == len(list(FIXTURES.glob("*.py")))

    def test_non_utf8_file_is_a_finding(self, tmp_path):
        """Undecodable bytes become an RPL000 finding at the bad byte,
        like a syntax error, instead of crashing the run."""
        (tmp_path / "mod.py").write_bytes(b'x = 1\ny = "caf\xe9"\n')
        (tmp_path / "ok.py").write_text("z = 2\n")
        report = run_lint(root=tmp_path, targets=(".",))
        assert report.files_scanned == 2
        assert [f.format() for f in report.findings] == [
            "mod.py:2:9: RPL000 file is not valid UTF-8: "
            "invalid continuation byte"
        ]


# ----------------------------------------------------------------------
# Call graph and dataflow (the whole-program substrate)
# ----------------------------------------------------------------------
def project_of(root: Path, targets: tuple[str, ...]):
    """The whole-program context of a lint run over ``targets``."""
    return run_lint(root=root, targets=targets).project


class TestCallGraph:
    def test_same_tree_yields_identical_sorted_json(self):
        docs = [
            json.dumps(
                project_of(FIXTURES, (".",)).call_graph_dict(),
                allow_nan=False,
            )
            for _ in range(2)
        ]
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        functions = doc["functions"]
        assert list(functions) == sorted(functions)
        for row in functions.values():
            assert row["calls"] == sorted(row["calls"])

    def test_resolves_project_internal_edges(self):
        project = project_of(FIXTURES, (".",))
        functions = project.call_graph_dict()["functions"]
        assert (
            "rpl010_cases.seam_site"
            in functions["rpl010_cases.middle"]["calls"]
        )

    def test_resolves_package_reexports(self):
        """``from repro.experiments import execute_run`` resolves through
        the package ``__init__`` to the defining module — the edge RPL010
        needs to follow a fault from the runner up to the CLI entry."""
        project = project_of(
            REPO_ROOT, ("src/repro/cli.py", "src/repro/experiments")
        )
        functions = project.call_graph_dict()["functions"]
        assert (
            "repro.experiments.runner.execute_run"
            in functions["repro.cli._contained_execute"]["calls"]
        )


class TestSummaryCache:
    """Every run re-derives the whole-program facts from the sources."""

    CLEAN = "def helper():\n    return 1\n"
    TAINTED = (
        "import json\n"
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def emit():\n"
        '    return json.dumps({"t": stamp()}, allow_nan=False)\n'
    )

    def test_warm_run_hits_and_edit_invalidates(self, tmp_path):
        mod = tmp_path / "mod.py"
        other = tmp_path / "other.py"
        mod.write_text(self.TAINTED)
        other.write_text(self.CLEAN)

        first = project_of(tmp_path, (".",))
        first_hits = [h.sort_key() for h in first.flow_hits()]
        assert len(first_hits) == 1  # stamp() -> json.dumps crosses a call

        # An edit that leaves the flow alone leaves the verdict alone...
        other.write_text("def helper():\n    return 2\n")
        edited = project_of(tmp_path, (".",))
        assert [h.sort_key() for h in edited.flow_hits()] == first_hits

        # ...and an edit that removes the source removes the finding.
        mod.write_text(self.TAINTED.replace("time.time()", "0.0"))
        assert project_of(tmp_path, (".",)).flow_hits() == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestLintCli:
    def test_fixture_violations_exit_1(self, capsys):
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "rpl001_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPL001" in out
        assert "5 finding(s)" in out
        assert "1 suppressed" in out

    def test_select_restricts_rules(self, capsys):
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL004",
                "rpl004_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPL004" in out and "RPL001" not in out

    def test_unknown_select_is_usage_error(self, capsys):
        rc = main(["lint", "--select", "RPL777"])
        assert rc == 2

    def test_missing_target_is_usage_error(self, capsys):
        rc = main(["lint", "--root", str(FIXTURES), "no/such/dir"])
        assert rc == 2
        assert "not found" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.findall(r"^(RPL\d{3})  ", out, re.M) == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
            "RPL007", "RPL008", "RPL010",
        ]

    def test_package_rule_table_matches_registry(self):
        """The rule table in ``repro.statics``' docstring names exactly
        the registered rules, so removing or adding one cannot leave it
        stale."""
        import repro.statics

        table = re.findall(
            r"^(RPL\d{3}) \S", repro.statics.__doc__ or "", re.M
        )
        assert table == [r.code for r in all_rules()]

    def test_report_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint-report.json"
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--report", str(artifact),
                "rpl006_cases.py",
            ]
        )
        assert rc == 1
        doc = json.loads(artifact.read_text())
        assert doc["files_scanned"] == 1
        assert doc["suppressed"] == 1
        assert [row["code"] for row in doc["findings"]] == ["RPL006"]
        assert doc["findings"][0]["line"] == 14

    def test_baseline_lifecycle(self, tmp_path, capsys):
        """A violation fails the gate; fixing the code clears it."""
        target = tmp_path / "mod.py"
        target.write_text("import time\n\nT0 = time.time()\n")
        argv = ["lint", "--root", str(tmp_path), "mod.py"]
        assert main(argv) == 1
        assert "mod.py:3:6: RPL001" in capsys.readouterr().out

        target.write_text("T0 = 0.0\n")
        assert main(argv) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_paths_subset_reports_without_baseline(self, capsys):
        """Positional targets lint just the named files, which are also
        the whole-program context."""
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL008",
                "rpl008_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "lint: 1 files, 3 finding(s), 1 suppressed" in out

    def test_paths_refuses_baseline_operations(self, capsys):
        """The removed run modes are usage errors, not silent no-ops."""
        for flag in (
            "--baseline", "--no-baseline", "--check-baseline",
            "--update-baseline", "--summary-cache", "--paths",
        ):
            with pytest.raises(SystemExit) as exc:
                main(["lint", "--root", str(FIXTURES), flag, "rpl008_cases.py"])
            assert exc.value.code == 2, flag

    def test_call_graph_artifact_is_deterministic(self, tmp_path, capsys):
        argv = [
            "lint",
            "--root", str(FIXTURES),
            "--select", "RPL010",
            "rpl010_cases.py",
        ]
        graphs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            assert main([*argv, "--call-graph", str(out)]) == 1
            graphs.append(out.read_bytes())
        assert graphs[0] == graphs[1]
        doc = json.loads(graphs[0])
        functions = doc["functions"]
        assert list(functions) == sorted(functions)
        assert (
            "rpl010_cases.seam_site"
            in functions["rpl010_cases.middle"]["calls"]
        )

    def test_call_graph_without_project_rules_is_usage_error(
        self, tmp_path, capsys
    ):
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL001",
                "--call-graph", str(tmp_path / "graph.json"),
                "rpl001_cases.py",
            ]
        )
        assert rc == 2

    def test_explain_prints_the_taint_path(self, capsys):
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL008",
                "--explain", "RPL008:rpl008_cases.py:35",
                "rpl008_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "source time.time at rpl008_cases.py:19" in out
        assert "through rpl008_cases.launder()" in out
        assert "sink json.dumps at rpl008_cases.py:35" in out

    def test_explain_unmatched_location_fails(self, capsys):
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL008",
                "--explain", "RPL008:rpl008_cases.py:1",
                "rpl008_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "no finding RPL008 at rpl008_cases.py:1" in out

    def test_explain_malformed_spec_is_usage_error(self, capsys):
        rc = main(["lint", "--explain", "RPL008-rpl008_cases.py-35"])
        assert rc == 2

    def test_readme_explain_example_resolves(self, capsys):
        """README's ``--explain`` address names a live finding, so the
        documented example cannot rot into "no finding"."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        (address,) = set(re.findall(r"--explain (RPL\d{3}:\S+:\d+)", readme))
        assert address == EXPLAIN_EXAMPLE
        rc = main(["lint", "--explain", address])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[suppressed inline]" in out


# ----------------------------------------------------------------------
# Self-check: the live tree has zero findings
# ----------------------------------------------------------------------
class TestLiveTreeSelfCheck:
    def test_live_tree_matches_committed_baseline(self, live_report):
        """The tree the repo ships is lint-clean: zero findings, the exact
        gate the CI ``static-analysis`` job enforces."""
        assert [f.format() for f in live_report.findings] == []

    def test_committed_baseline_is_empty(self, live_report):
        """Nothing is grandfathered: there is no baseline file, and every
        waiver is an inline suppression with a written reason."""
        assert not (REPO_ROOT / "LINT_BASELINE.json").exists()
        assert live_report.suppressed > 0

    def test_every_live_suppression_has_a_reason(self, live_report):
        # run_lint turns reasonless directives into RPL000 meta findings;
        # assert the live tree has none.
        assert [
            f.format() for f in live_report.findings if f.code == META_CODE
        ] == []


# ----------------------------------------------------------------------
# Regressions for the violations this PR fixed (rather than suppressed)
# ----------------------------------------------------------------------
class TestFixedViolationsStayFixed:
    """Each site fixed for RPL001/RPL002/RPL004 is pinned by linting the
    exact file: reintroducing the hazard re-creates the finding."""

    @pytest.mark.parametrize(
        "rel",
        [
            # RPL002: wall-seconds summed over sorted keys, not dict order.
            "src/repro/cli.py",
            # RPL002: SiA budget summed over sorted frozen-job keys.
            "src/repro/scheduler/baselines/sia.py",
            # RPL002: completed_keys from a sorted glob; RPL004: dumps
            # with allow_nan=False.
            "src/repro/experiments/store.py",
            # RPL004: canonical digest payload rejects NaN.
            "src/repro/experiments/spec.py",
            # RPL004: trace/result writers reject NaN at the encoder.
            "src/repro/sim/serialization.py",
        ],
    )
    def test_fixed_file_stays_clean(self, rel, live_report):
        # Read from the whole-tree run: a file's RPL010 verdict depends on
        # its callers, which a one-file project cannot see.
        assert (REPO_ROOT / rel).is_file()
        assert [
            f.format() for f in live_report.findings if f.path == rel
        ] == []

    def test_cli_entry_points_contain_injected_faults(self):
        """RPL010: ``cmd_simulate``/``cmd_compare`` must catch
        :class:`InjectedFault` escaping ``execute_run`` and convert it to
        an incident record + exit 3.  Linting the CLI together with the
        modules that define the seams re-creates the original findings if
        the containment handler is ever removed."""
        report = run_lint(
            root=REPO_ROOT,
            targets=(
                "src/repro/cli.py",
                "src/repro/experiments",
                "src/repro/faults",
            ),
        )
        assert [f.format() for f in report.findings] == []

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_simulate_converts_injected_fault_to_incident_record(
        self, command, capsys
    ):
        # The behavioral half of the RPL010 fix: a run killed by an
        # injected fault prints a deterministic incident record and exits
        # 3 instead of dying with a raw traceback.
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

    def test_run_store_rejects_nan_meta(self, tmp_path):
        # allow_nan=False is live, not decorative: a NaN that reaches a
        # raw writer fails loudly instead of emitting non-RFC-8259 JSON.
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path)
        store.append_meta({"event": "refit", "gain": 1.5})
        with pytest.raises(ValueError):
            store.append_meta({"event": "refit", "gain": float("nan")})

    def test_run_store_completed_keys(self, tmp_path):
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path)
        for key in ("b-run", "a-run", "c-run"):
            store.path_for(key).write_text("{}\n")
        assert store.completed_keys() == {"a-run", "b-run", "c-run"}
