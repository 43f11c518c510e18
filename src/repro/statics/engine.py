"""The lint engine: collect files, run rules, apply suppressions, report.

Everything is deterministic by construction: files are visited in sorted
order, rules in code order, findings sorted by location — the same tree
produces the same report on every host (the linter holds itself to the
repo's own byte-determinism bar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.statics.core import (
    DEFAULT_TARGETS,
    META_CODE,
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    parse_source,
)
from repro.statics.dataflow import Project
from repro.statics.rules import all_rules


def repo_root() -> Path:
    """The repository root (this file lives at src/repro/statics/...)."""
    return Path(__file__).resolve().parents[3]


def collect_files(root: Path, targets: tuple[str, ...]) -> list[Path]:
    """Every ``.py`` file under the targets, sorted for determinism."""
    out: set[Path] = set()
    for target in targets:
        path = (root / target).resolve()
        if path.is_file():
            out.add(path)
        elif path.is_dir():
            out.update(
                p for p in sorted(path.rglob("*.py")) if p.is_file()
            )
    return sorted(out)


@dataclass
class LintReport:
    """The outcome of one lint run: every finding fails the gate."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: Findings silenced by inline suppressions (kept for ``--explain``).
    silenced: list[Finding] = field(default_factory=list)
    #: The whole-program context, when any :class:`ProjectRule` ran
    #: (exposes the call graph and taint paths to the CLI).
    project: Any = None

    def as_dict(self) -> dict:
        """JSON-friendly report (the CI artifact; one-way, hence not
        to_dict — there is no reason to reload a report)."""
        def as_row(f: Finding) -> dict:
            return {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
                "content": f.content,
            }
        return {
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "findings": [as_row(f) for f in self.findings],
        }


def _left_out(rules: Iterable[Rule]) -> frozenset[str]:
    """Codes of the registered rules that are not in ``rules``."""
    return frozenset(r.code for r in all_rules()) - {r.code for r in rules}


def apply_suppressions(
    src: SourceFile,
    raw: list[Finding],
    left_out: frozenset[str] = frozenset(),
) -> tuple[list[Finding], list[Finding]]:
    """``(active, silenced)`` after the file's suppression map.

    Suppressions are honored per (line, code); every suppression must earn
    its keep — one that silences nothing becomes an RPL000 finding, so the
    inline inventory can never rot silently.  Suppressions of the rules in
    ``left_out`` (a ``--select`` subset run skipped them) are not judged.
    Silenced findings are returned (not discarded) so ``--explain`` can
    still show the taint path behind a justified suppression.
    """
    findings: list[Finding] = list(src.meta_findings)
    used: set[tuple[int, str]] = set()
    silenced: list[Finding] = []
    for finding in sorted(raw):
        directive = src.suppressions.get(finding.line)
        if directive is not None and finding.code in directive.codes:
            used.add((finding.line, finding.code))
            silenced.append(finding)
            continue
        findings.append(finding)
    for line in sorted(src.suppressions):
        directive = src.suppressions[line]
        for code in directive.codes:
            if code not in left_out and (line, code) not in used:
                findings.append(
                    Finding(
                        path=src.rel,
                        line=line,
                        col=1,
                        code=META_CODE,
                        message=(
                            f"suppression of {code} matches no finding "
                            "on this line; delete it"
                        ),
                        content=src.line_content(line),
                    )
                )
    return sorted(findings), silenced


def run_lint(
    *,
    root: Path | None = None,
    targets: tuple[str, ...] = DEFAULT_TARGETS,
    rules: tuple[Rule, ...] | None = None,
) -> LintReport:
    """Lint the targets.

    Every target is read and parsed once; per-file rules run on each
    parse, then project rules run once over the whole-program context
    built from those same parses.  Project findings pass through their
    file's suppression map like any other finding.
    """
    root = (root or repo_root()).resolve()
    rules = rules if rules is not None else all_rules()
    file_rules = tuple(r for r in rules if not isinstance(r, ProjectRule))
    project_rules = tuple(r for r in rules if isinstance(r, ProjectRule))
    report = LintReport()
    srcs: dict[str, SourceFile] = {}
    raw_by_rel: dict[str, list[Finding]] = {}
    for path in collect_files(root, targets):
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        parsed = parse_source(path, rel)
        report.files_scanned += 1
        if isinstance(parsed, Finding):  # undecodable or unparseable
            report.findings.append(parsed)
            continue
        srcs[rel] = parsed
        raw: list[Finding] = []
        for rule in file_rules:
            if rule.applies_to(rel):
                raw.extend(rule.check(parsed))
        raw_by_rel[rel] = raw
    if project_rules:
        project = Project(srcs)
        report.project = project
        for rule in project_rules:
            for finding in rule.check_project(project):
                if rule.applies_to(finding.path):
                    raw_by_rel[finding.path].append(finding)
    left_out = _left_out(rules)
    for rel in sorted(raw_by_rel):
        findings, silenced = apply_suppressions(
            srcs[rel], raw_by_rel[rel], left_out
        )
        report.findings.extend(findings)
        report.silenced.extend(silenced)
        report.suppressed += len(silenced)
    report.findings.sort()
    return report
