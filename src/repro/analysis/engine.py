"""Walks paths, runs every registered rule, formats the findings.

The engine is the CLI's body (``python -m repro.analysis``) and the
library entry the tier-1 cleanliness test calls: parse each ``.py`` file
once, dispatch the rules whose scope covers the file's module key, drop
suppressed findings, and report the rest sorted by location.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

# Importing the rule modules registers their rules.
from repro.analysis import determinism, locks, wire  # noqa: F401
from repro.analysis.core import RULES, SourceFile, Violation, rules_for

#: Rule id reported for files the parser rejects.
PARSE_RULE = "PARSE000"


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


def check_file(path: Path) -> list[Violation]:
    """All unsuppressed findings in one file."""
    try:
        src = SourceFile(str(path), path.read_text())
    except SyntaxError as exc:
        return [
            Violation(
                path=str(path),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule=PARSE_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    findings: list[Violation] = []
    for rule in rules_for(src.module):
        for violation in rule.check(src):
            # An allow comment anywhere in the flagged node's line span
            # suppresses the finding (multi-line calls included).
            if not src.is_suppressed(violation.rule, _Span(violation)):
                findings.append(violation)
    return sorted(findings)


class _Span:
    """Adapter giving a Violation the node-span interface."""

    def __init__(self, violation: Violation) -> None:
        self.lineno = violation.line
        self.end_lineno = violation.end_line or violation.line


def check_paths(paths: Iterable[str]) -> tuple[list[Violation], int]:
    """(findings, files_checked) over every python file under ``paths``."""
    findings: list[Violation] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        findings.extend(check_file(path))
    return sorted(findings), count


def to_document(findings: list[Violation], files_checked: int) -> dict:
    """The stable JSON output schema."""
    return {
        "version": 1,
        "files_checked": files_checked,
        "rules": [
            {"id": rule.id, "title": rule.title, "rationale": rule.rationale}
            for rule in RULES
        ],
        "violations": [violation.to_dict() for violation in findings],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter for the protocol stack: "
            "determinism (DET*), wire-contract (WIRE*), and "
            "lock-discipline (LOCK*) rule families. Suppress a finding "
            "with '# analysis: allow(RULE-ID) -- reason'; document a "
            "lock exception with '# analysis: guarded-by(<what>)'."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    findings, files_checked = check_paths(args.paths)
    if args.format == "json":
        print(json.dumps(to_document(findings, files_checked), indent=2))
    else:
        for violation in findings:
            print(violation.format())
        print(
            f"{len(findings)} violation(s) in {files_checked} file(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0
