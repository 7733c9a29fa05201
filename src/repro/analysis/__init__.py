"""Static analysis for the protocol stack's unenforced invariants.

Three rule families over the source tree, one suppression convention:

- determinism (``DET001``-``DET005``): protocol/sim code must replay
  bit-identically — no host clocks, no ambient randomness, no
  unordered-set iteration, no ``id()``-keyed state, no
  ``fromtimestamp`` datetimes;
- wire contract (``WIRE001``-``WIRE003``): encode once, digest once,
  sign through the channel — the PR 1 fast-path contract, structurally;
- lock discipline (``LOCK001``): attributes the live substrates' threads
  both write must hold a lock, or carry a ``guarded-by`` annotation that
  :mod:`repro.runtime.sanitizer` then checks dynamically.

Run ``python -m repro.analysis [--format text|json] [paths]``; the
tier-1 suite keeps ``src/`` violation-free via
``tests/unit/test_analysis_clean.py``.

The rule catalog, scopes, and suppression syntax are documented in
``docs/analysis.md`` — ``tools/check.sh`` keeps that page's tables in
lockstep with the live ``--rules`` output.
"""

from repro.analysis.core import RULES, Rule, SourceFile, Violation, rules_for
from repro.analysis.engine import check_file, check_paths, main, to_document

__all__ = [
    "RULES",
    "Rule",
    "SourceFile",
    "Violation",
    "check_file",
    "check_paths",
    "main",
    "rules_for",
    "to_document",
]
