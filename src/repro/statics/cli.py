"""``repro lint``: the command-line face of the invariant linter.

Exit codes: 0 — no findings; 1 — findings; 2 — usage error.

Only the parser is built at import time: the engine and the rules load
inside :func:`cmd_lint`, so other ``repro`` subcommands do not pay for
them.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.statics.core import DEFAULT_TARGETS

#: The ``--explain`` example shown in help and error text (a suppressed
#: RPL008 flow in the live tree; ``tests/test_statics.py`` runs it).
EXPLAIN_EXAMPLE = "RPL008:src/repro/experiments/runner.py:570"


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "lint",
        help="AST-based invariant linter over the repo's own source",
        description=(
            "Enforces the determinism/lockstep/serialization/cache "
            "contracts at lint time: per-file rules RPL001-RPL007 plus "
            "the whole-program flow rules RPL008 and RPL010 (call graph + "
            "interprocedural taint). See DESIGN.md items 40 and 47."
        ),
        epilog=(
            "exit codes: 0 no findings; 1 findings; 2 usage error "
            "(unknown rule code, missing target, incompatible flags)."
        ),
    )
    p.add_argument(
        "targets",
        nargs="*",
        default=list(DEFAULT_TARGETS),
        help=(
            "files/directories to lint; they are also the whole-program "
            f"context (default: {' '.join(DEFAULT_TARGETS)})"
        ),
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from the package)",
    )
    p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--report",
        default=None,
        help="also write a JSON findings report to this path",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    p.add_argument(
        "--call-graph",
        default=None,
        metavar="OUT.json",
        help=(
            "also write the project call graph (sorted, diffable JSON) "
            "to this path"
        ),
    )
    p.add_argument(
        "--explain",
        default=None,
        metavar="CODE:PATH:LINE",
        help=(
            "print the interprocedural taint/escape path behind one "
            f"finding, e.g. --explain {EXPLAIN_EXAMPLE}"
        ),
    )
    p.set_defaults(func=cmd_lint)


def cmd_lint(args) -> int:
    from repro.statics.engine import repo_root, run_lint
    from repro.statics.rules import all_rules, rules_by_code

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0
    root = Path(args.root).resolve() if args.root else repo_root()
    try:
        rules = rules_by_code(
            [c.strip() for c in args.select.split(",")] if args.select else None
        )
    except ValueError as exc:
        print(str(exc))
        return 2
    explain = None
    if args.explain:
        explain = _parse_explain(args.explain)
        if explain is None:
            print(f"--explain expects CODE:PATH:LINE, e.g. {EXPLAIN_EXAMPLE}")
            return 2
    targets = tuple(args.targets)
    missing = [t for t in targets if not (root / t).exists()]
    if missing:
        print(
            f"lint target(s) not found under {root}: {', '.join(missing)}"
        )
        return 2
    report = run_lint(root=root, targets=targets, rules=rules)

    if args.call_graph:
        graph = report.project
        if graph is None:
            print(
                "--call-graph needs a project rule in the run "
                "(drop --select or include RPL008/RPL010)"
            )
            return 2
        Path(args.call_graph).write_text(
            json.dumps(
                graph.call_graph_dict(),
                indent=1,
                sort_keys=True,
                allow_nan=False,
            )
            + "\n",
            encoding="utf-8",
        )

    if explain is not None:
        return _cmd_explain(report, explain)

    for finding in report.findings:
        print(finding.format())
    print(
        f"lint: {report.files_scanned} files, "
        f"{len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed"
    )

    if args.report:
        Path(args.report).write_text(
            json.dumps(
                report.as_dict(), indent=1, sort_keys=True, allow_nan=False
            )
            + "\n",
            encoding="utf-8",
        )
    return 1 if report.findings else 0


def _parse_explain(spec: str) -> tuple[str, str, int] | None:
    """``"CODE:PATH:LINE"`` -> ``(code, path, line)`` (None when bad)."""
    parts = spec.rsplit(":", 1)
    if len(parts) != 2 or not parts[1].isdigit():
        return None
    head, line = parts[0], int(parts[1])
    code, sep, path = head.partition(":")
    if not sep or not code or not path:
        return None
    return (code, path, line)


def _cmd_explain(report, explain: tuple[str, str, int]) -> int:
    code, path, line = explain
    matched = [
        (f, False)
        for f in report.findings
        if f.code == code and f.path == path and f.line == line
    ]
    matched.extend(
        (f, True)
        for f in report.silenced
        if f.code == code and f.path == path and f.line == line
    )
    if not matched:
        print(
            f"no finding {code} at {path}:{line} "
            "(fixed findings have no path to explain)"
        )
        return 1
    for finding, silenced in matched:
        suffix = " [suppressed inline]" if silenced else ""
        print(finding.format() + suffix)
        if finding.explanation:
            print(finding.explanation)
        else:
            print("(per-file finding: no interprocedural path)")
    return 0
