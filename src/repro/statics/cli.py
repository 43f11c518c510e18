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


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "lint",
        help="AST-based invariant linter over the repo's own source",
        description=(
            "Enforces the determinism and serialization contracts at lint "
            "time: per-file rules RPL001, RPL004. See DESIGN.md item 40."
        ),
        epilog=(
            "exit codes: 0 no findings; 1 findings; 2 usage error "
            "(unknown rule code, missing target)."
        ),
    )
    p.add_argument(
        "targets",
        nargs="*",
        default=list(DEFAULT_TARGETS),
        help=(
            "files/directories to lint "
            f"(default: {' '.join(DEFAULT_TARGETS)})"
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
    targets = tuple(args.targets)
    missing = [t for t in targets if not (root / t).exists()]
    if missing:
        print(
            f"lint target(s) not found under {root}: {', '.join(missing)}"
        )
        return 2
    report = run_lint(root=root, targets=targets, rules=rules)
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

