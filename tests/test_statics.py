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
        7,
        ["clock.time()", "datetime.now()", "random.random()",
         "np.random.exponential", "clock.perf_counter()", "os.getpid()",
         'os.environ["REPRO_TAG"]'],
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
        "rpl006_cases.py",
        "RPL006",
        1,
        ['object.__setattr__(self, "value", self.value + 1)'],
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
        # Every finding sits on a positive_* line (or the def it anchors
        # to), never on a negative_* case.
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
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL006",
        ]
        with pytest.raises(ValueError):
            rules_by_code(["RPL999"])


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
        ["RPL001"],
        ["RPL001", "RPL002", "RPL003", "RPL004", "RPL006"],
    ], ids=["rpl001-only", "line-rules"])
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
        assert "7 finding(s)" in out
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
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL006",
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
        """Positional targets lint just the named files."""
        rc = main(
            [
                "lint",
                "--root", str(FIXTURES),
                "--select", "RPL001",
                "rpl001_cases.py",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "lint: 1 files, 7 finding(s), 1 suppressed" in out

    def test_paths_refuses_baseline_operations(self, capsys):
        """The removed run modes are usage errors, not silent no-ops."""
        for flag in (
            "--baseline", "--no-baseline", "--check-baseline",
            "--update-baseline", "--summary-cache", "--paths",
            "--call-graph", "--explain",
        ):
            with pytest.raises(SystemExit) as exc:
                main(["lint", "--root", str(FIXTURES), flag, "rpl001_cases.py"])
            assert exc.value.code == 2, flag


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

