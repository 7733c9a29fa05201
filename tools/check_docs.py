#!/usr/bin/env python
"""Docs gate: every CLI example in docs/ must name real modules/flags.

Three checks over ``docs/*.md``:

1. every ``console``/``bash`` code fence line invoking ``python -m
   repro...`` names an importable module (and subcommand) whose
   ``--help`` output mentions every ``--flag`` the example uses — docs
   cannot drift to renamed flags or deleted modules;
2. the rule table in ``docs/analysis.md`` (rows ``| `ID` | title |``)
   matches the live ``python -m repro.analysis --rules`` catalog, both
   directions: no undocumented rules, no documented ghosts, no stale
   titles;
3. the preset table in ``docs/scenarios.md`` (rows ``| `name` | shape |``
   under "## Presets") names exactly the keys of
   ``repro.scenario.presets.PRESETS``, both directions.

Exit status is the number of failures (0 = docs in sync).
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))

_FENCE = re.compile(r"^```(\w*)\s*$")
_RULE_ROW = re.compile(r"^\|\s*`([A-Z]+\d+)`\s*\|\s*(.+?)\s*\|")
_RULE_LINE = re.compile(r"^([A-Z]+\d+)\s+(\S.*)$")
_PRESET_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|")

_HELP_CACHE: dict[tuple[str, ...], str] = {}


def fence_lines(path: Path, kinds=("console", "bash", "sh")):
    """Yield (lineno, line) for lines inside fences of the given kinds."""
    kind = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _FENCE.match(line.strip())
        if match:
            kind = None if kind is not None else match.group(1)
            continue
        if kind in kinds:
            yield lineno, line


def parse_invocation(line: str):
    """Extract (module, subcommand, flags) from a ``python -m repro...``
    example line, or None if the line is not one."""
    text = line.strip()
    if text.startswith("$"):
        text = text[1:].strip()
    # Drop shell redirections/pipes: only the invocation itself is checked.
    text = re.split(r"\s(?:\||>|>>|<)\s?", text)[0]
    try:
        tokens = shlex.split(text)
    except ValueError:
        tokens = text.split()
    for i, token in enumerate(tokens):
        if token == "-m" and i + 1 < len(tokens):
            module = tokens[i + 1]
            if not module.startswith("repro"):
                return None
            rest = tokens[i + 2:]
            sub = None
            if rest and re.fullmatch(r"[a-z][a-z0-9-]*", rest[0]):
                sub = rest[0]
            flags = [t.split("=")[0] for t in rest if t.startswith("--")]
            return module, sub, flags
    return None


def help_text(module: str, sub: str | None) -> str | None:
    """``python -m module [sub] --help`` output, or None on failure."""
    key = (module, sub or "")
    if key not in _HELP_CACHE:
        cmd = [sys.executable, "-m", module] + ([sub] if sub else []) + ["--help"]
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        _HELP_CACHE[key] = proc.stdout + proc.stderr if proc.returncode == 0 else None
    return _HELP_CACHE[key]


def check_cli_examples() -> list[str]:
    failures = []
    for path in DOCS:
        for lineno, line in fence_lines(path):
            parsed = parse_invocation(line)
            if parsed is None:
                continue
            module, sub, flags = parsed
            where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
            text = help_text(module, sub)
            if text is None and sub is not None:
                # Maybe the token was a positional, not a subcommand.
                sub, text = None, help_text(module, None)
            if text is None:
                failures.append(
                    f"{where}: `python -m {module}"
                    f"{' ' + sub if sub else ''} --help` failed"
                )
                continue
            for flag in flags:
                if flag not in text:
                    failures.append(
                        f"{where}: flag {flag} not in "
                        f"`python -m {module}{' ' + sub if sub else ''} --help`"
                    )
    return failures


def check_rule_table() -> list[str]:
    page = REPO_ROOT / "docs" / "analysis.md"
    documented = {}
    for line in page.read_text().splitlines():
        match = _RULE_ROW.match(line.strip())
        if match and match.group(2) != "title":  # skip the header row
            documented[match.group(1)] = match.group(2)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--rules"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    if proc.returncode != 0:
        return [f"python -m repro.analysis --rules failed: {proc.stderr.strip()}"]
    live = {}
    for line in proc.stdout.splitlines():
        match = _RULE_LINE.match(line)
        if match:
            live[match.group(1)] = match.group(2).strip()
    failures = []
    for rule_id in sorted(set(live) - set(documented)):
        failures.append(f"docs/analysis.md: rule {rule_id} missing from the table")
    for rule_id in sorted(set(documented) - set(live)):
        failures.append(f"docs/analysis.md: rule {rule_id} no longer exists")
    for rule_id in sorted(set(documented) & set(live)):
        if documented[rule_id] != live[rule_id]:
            failures.append(
                f"docs/analysis.md: {rule_id} title drifted — docs say "
                f"{documented[rule_id]!r}, --rules says {live[rule_id]!r}"
            )
    return failures


def check_preset_table() -> list[str]:
    page = REPO_ROOT / "docs" / "scenarios.md"
    documented = set()
    in_section = False
    for line in page.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.strip() == "## Presets"
            continue
        match = _PRESET_ROW.match(line.strip())
        if in_section and match:
            documented.add(match.group(1))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.scenario.presets import PRESETS; print(*PRESETS)"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    if proc.returncode != 0:
        return [f"importing repro.scenario.presets failed: {proc.stderr.strip()}"]
    live = set(proc.stdout.split())
    return [
        f"docs/scenarios.md: preset {name} missing from the table"
        for name in sorted(live - documented)
    ] + [
        f"docs/scenarios.md: preset {name} no longer exists"
        for name in sorted(documented - live)
    ]


def main() -> int:
    failures = check_cli_examples() + check_rule_table() + check_preset_table()
    for failure in failures:
        print(f"DOCS: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"docs in sync: {len(DOCS)} pages, CLI examples, rule table "
            f"and preset table OK"
        )
    return min(len(failures), 100)


if __name__ == "__main__":
    raise SystemExit(main())
