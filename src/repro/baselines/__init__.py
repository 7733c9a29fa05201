"""Comparison systems: the Figure 2 feature matrix and baselines.

The paper's quantitative baseline is its own system at n=1 (no
replication); its qualitative comparison (Figure 2) scores Perpetual-WS
against Thema, BFT-WS, and SWS on nine properties. This package encodes
that matrix (:mod:`repro.baselines.features`) with *executable* probes for
the properties our implementation can demonstrate. The ``fig2``
experiments command prints it; the matrix tests in ``tests/unit/baselines``
check it against the paper's table.
"""

from repro.baselines.features import (
    FEATURE_MATRIX,
    PROPERTIES,
    SYSTEMS,
    supports,
)

__all__ = ["FEATURE_MATRIX", "PROPERTIES", "SYSTEMS", "supports"]
