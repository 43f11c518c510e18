"""The lint engine: collect files, run rules, apply suppressions, report.

Everything is deterministic by construction: files are visited in sorted
order, rules in code order, findings sorted by location — the same tree
produces the same report on every host (the linter holds itself to the
repo's own byte-determinism bar).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.statics.baseline import (
    BaselineEntry,
    split_against_baseline,
)
from repro.statics.core import (
    META_CODE,
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    parse_source,
)
from repro.statics.dataflow import Project
from repro.statics.rules import all_rules

#: Default lint targets, repo-root-relative.  ``tests/`` is deliberately
#: out: tests mutate state directly and smuggle NaN on purpose.
DEFAULT_TARGETS = ("src/repro", "examples", "benchmarks")


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
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    grandfathered: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: Findings silenced by inline suppressions (kept for ``--explain``).
    silenced: list[Finding] = field(default_factory=list)
    #: The whole-program context, when any :class:`ProjectRule` ran
    #: (exposes the call graph and taint paths to the CLI).
    project: Any = None

    @property
    def gate_failures(self) -> int:
        """What the CI gate counts: new findings plus stale baseline rot."""
        return len(self.new) + len(self.stale)

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
            "new": [as_row(f) for f in self.new],
            "grandfathered": [as_row(f) for f in self.grandfathered],
            "stale_baseline": [
                {"path": e.path, "code": e.code, "content": e.content}
                for e in self.stale
            ],
        }


def lint_file(src: SourceFile, rules: tuple[Rule, ...]) -> tuple[list[Finding], int]:
    """``(findings, suppressed_count)`` for one parsed file.

    Per-file rules only — project rules need the whole tree and are run
    by :func:`run_lint`; their findings flow through
    :func:`apply_suppressions` exactly like these.
    """
    raw: list[Finding] = []
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    for rule in file_rules:
        if rule.applies_to(src.rel):
            raw.extend(rule.check(src))
    findings, silenced = apply_suppressions(
        src, raw, _left_out(file_rules)
    )
    return findings, len(silenced)


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
    baseline: Counter | None = None,
    project_targets: tuple[str, ...] | None = None,
    cache_path: Path | None = None,
) -> LintReport:
    """Lint the targets and split findings against the baseline.

    Two phases: every target parses first, then per-file rules run, then
    project rules run once over the whole-program context built from
    ``project_targets`` (default: the lint targets themselves; a subset
    run can widen this so cross-file call resolution still sees the full
    tree).  Project findings are kept only when they anchor in a scanned
    file, and pass through that file's suppression map like any other
    finding.  ``cache_path`` enables the content-hash-keyed per-file
    facts cache (warm runs re-extract only changed files).
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
        if isinstance(parsed, Finding):  # syntax error
            report.findings.append(parsed)
            continue
        srcs[rel] = parsed
        raw: list[Finding] = []
        for rule in file_rules:
            if rule.applies_to(rel):
                raw.extend(rule.check(parsed))
        raw_by_rel[rel] = raw
    if project_rules:
        project = Project.build(
            root,
            collect_files(root, project_targets or targets),
            cache_path=cache_path,
        )
        report.project = project
        for rule in project_rules:
            for finding in rule.check_project(project):
                if finding.path in srcs and rule.applies_to(finding.path):
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
    report.new, report.grandfathered, report.stale = split_against_baseline(
        report.findings, baseline if baseline is not None else Counter()
    )
    return report
