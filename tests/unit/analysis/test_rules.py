"""Rule-engine tests: every rule family against its fixture twins.

Positive fixtures carry trailing ``# expect: RULE[, RULE]`` markers; the
tests read those back and require the engine to report *exactly* that
set of ``(rule, line)`` findings — no misses, no extras. Negative
fixtures (sanctioned idioms, allowlisted modules, suppressions) must
produce zero findings.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.core import SourceFile, module_key
from repro.analysis.engine import PARSE_RULE, check_file, check_paths

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+?)\s*$")


def expected_findings(path: Path) -> set[tuple[str, int]]:
    """The ``(rule, line)`` pairs the fixture's expect markers declare."""
    out: set[tuple[str, int]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                out.add((rule_id.strip(), lineno))
    return out


def reported_findings(path: Path) -> set[tuple[str, int]]:
    return {(v.rule, v.line) for v in check_file(path)}


# -- positive fixtures: exactly the marked findings --------------------------

BAD_FIXTURES = [
    FIXTURES / "repro" / "clbft" / "bad_determinism.py",
    FIXTURES / "repro" / "clbft" / "bad_asyncio.py",
    FIXTURES / "repro" / "clbft" / "messages.py",
    FIXTURES / "repro" / "perpetual" / "bad_wire.py",
    FIXTURES / "locks_bad" / "repro" / "runtime" / "cluster.py",
]


@pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
def test_bad_fixture_reports_exactly_the_marked_violations(path):
    expected = expected_findings(path)
    assert expected, f"fixture {path} has no expect markers"
    assert reported_findings(path) == expected


def test_every_rule_family_has_a_positive_case():
    rules_hit = {rule for p in BAD_FIXTURES for rule, _ in expected_findings(p)}
    for family_rule in ("DET001", "DET002", "DET003", "DET004", "DET005",
                        "DET006", "WIRE001", "WIRE002", "WIRE003", "LOCK001"):
        assert family_rule in rules_hit


# -- negative fixtures: zero findings ----------------------------------------

GOOD_FIXTURES = [
    FIXTURES / "repro" / "clbft" / "good_determinism.py",
    FIXTURES / "repro" / "runtime" / "aio.py",
    FIXTURES / "repro" / "sim" / "rng.py",
    FIXTURES / "repro" / "perpetual" / "good_wire.py",
    FIXTURES / "repro" / "transport" / "channel.py",
    FIXTURES / "repro" / "scenario" / "process.py",
    FIXTURES / "locks_good" / "repro" / "runtime" / "cluster.py",
]


@pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: p.parent.name + "-" + p.stem)
def test_good_fixture_is_clean(path):
    assert check_file(path) == []


# -- engine behaviours --------------------------------------------------------


def test_unparseable_file_reports_parse_rule():
    findings = check_file(FIXTURES / "parse" / "repro" / "clbft" / "broken.py")
    assert [v.rule for v in findings] == [PARSE_RULE]
    assert findings[0].line > 0


def test_check_paths_aggregates_and_counts_files():
    findings, files_checked = check_paths([str(FIXTURES / "repro")])
    # Everything under fixtures/repro: the bad files' markers, and
    # nothing from the good files.
    expected = set().union(
        *(
            expected_findings(path)
            for path in BAD_FIXTURES
            if path.is_relative_to(FIXTURES / "repro")
        )
    )
    assert {(v.rule, v.line) for v in findings} == expected
    assert files_checked == len(list((FIXTURES / "repro").rglob("*.py")))


def test_module_key_scopes_fixture_trees_like_src():
    assert module_key("src/repro/clbft/replica.py") == "clbft/replica.py"
    assert (
        module_key("tests/unit/analysis/fixtures/locks_bad/repro/runtime/cluster.py")
        == "runtime/cluster.py"
    )
    assert module_key("scripts/standalone.py") == "standalone.py"


def test_suppression_covers_multiline_node_spans():
    text = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time(  # analysis: allow(DET001) -- fixture\n"
        "    )\n"
    )
    src = SourceFile("src/repro/clbft/multiline.py", text)
    import ast

    call = next(n for n in ast.walk(src.tree) if isinstance(n, ast.Call))
    assert src.is_suppressed("DET001", call)
    assert not src.is_suppressed("DET002", call)


def test_standalone_suppression_attaches_to_next_code_line():
    text = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    # analysis: allow(DET001) -- reason\n"
        "    return time.time()\n"
    )
    src = SourceFile("src/repro/clbft/standalone.py", text)
    assert src.allows[5] == frozenset({"DET001"})


def test_guard_annotation_read_back():
    text = (
        "class C:\n"
        "    def reset(self):\n"
        "        # analysis: guarded-by(setup phase)\n"
        "        self.total = 0\n"
    )
    src = SourceFile("src/repro/runtime/cluster.py", text)
    import ast

    assign = next(n for n in ast.walk(src.tree) if isinstance(n, ast.Assign))
    assert src.guard_annotation(assign) == "setup phase"
