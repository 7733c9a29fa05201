"""Experiment harnesses: one per paper table/figure.

Each harness regenerates the series a figure plots and returns structured
rows; the benchmark suite prints them and asserts the paper's qualitative
shape.

- :mod:`repro.experiments.microbench` -- the two-tier micro-benchmarks
  (Figures 7, 8, 9 and the section 6.4 textual claims);
- :mod:`repro.experiments.tpcw`       -- the TPC-W macro-benchmark
  (Figure 6 and the async-vs-sync PGE comparison);
- :mod:`repro.experiments.ablations`  -- design-choice ablations
  (MAC vs signatures, responder bundling vs all-to-all).

The representative cells double as the performance regression gate —
measurement protocol and baseline-refresh procedure in
``docs/benchmarks.md``; scenario presets in ``docs/scenarios.md``.
"""

from repro.experiments.microbench import (
    MicrobenchResult,
    run_async_window,
    run_two_tier,
)

__all__ = [
    "MicrobenchResult",
    "run_async_window",
    "run_two_tier",
]
