"""Real-clock benchmark of the Perpetual-WS reproduction.

``python3 -m bench`` (from the repository root) drives five closed-loop
workloads through the public :mod:`repro.scenario` API for a fixed
wall-clock time each, measures from outside only, and prints every
end-to-end and per-layer metric named in ``BENCHMARK.json``. See
``bench/README.md`` for the metric definitions and how they interact.

``benchmarks/`` (the pytest-benchmark figure cells and ``compare.py``)
remains the simulator's wall-clock figure gate; nothing here replaces it.
"""

import sys
from pathlib import Path

#: The repository root: where ``BENCHMARK.json`` and ``src/`` live.
ROOT = Path(__file__).resolve().parent.parent

# The contract's command carries no environment, so ``PYTHONPATH=src``
# cannot be assumed: make ``repro`` importable from the checkout itself.
# Forked workers inherit the path.
_SRC = str(ROOT / "src")
if (ROOT / "src" / "repro").is_dir() and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
