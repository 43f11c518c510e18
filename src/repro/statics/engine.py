"""The lint engine: collect files, run rules, apply suppressions, report.

Everything is deterministic by construction: files are visited in sorted
order, rules in code order, findings sorted by location — the same tree
produces the same report on every host (the linter holds itself to the
repo's own byte-determinism bar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.statics.core import (
    DEFAULT_TARGETS,
    META_CODE,
    Finding,
    Rule,
    SourceFile,
    parse_source,
)
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
) -> tuple[list[Finding], int]:
    """``(active findings, silenced count)`` after the file's suppression map.

    Suppressions are honored per (line, code); every suppression must earn
    its keep — one that silences nothing becomes an RPL000 finding, so the
    inline inventory can never rot silently.  Suppressions of the rules in
    ``left_out`` (a ``--select`` subset run skipped them) are not judged.
    """
    findings: list[Finding] = list(src.meta_findings)
    used: set[tuple[int, str]] = set()
    silenced = 0
    for finding in sorted(raw):
        directive = src.suppressions.get(finding.line)
        if directive is not None and finding.code in directive.codes:
            used.add((finding.line, finding.code))
            silenced += 1
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
    """Lint the targets: every file is read and parsed once, each rule
    runs on that parse, and the findings pass through the file's
    suppression map."""
    root = (root or repo_root()).resolve()
    rules = rules if rules is not None else all_rules()
    left_out = _left_out(rules)
    report = LintReport()
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
        raw: list[Finding] = []
        for rule in rules:
            raw.extend(rule.check(parsed))
        findings, silenced = apply_suppressions(parsed, raw, left_out)
        report.findings.extend(findings)
        report.suppressed += silenced
    report.findings.sort()
    return report
