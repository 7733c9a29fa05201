#!/usr/bin/env python
"""Run the figure benchmarks' representative cells and gate on regressions.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/compare.py                 # run + compare
    PYTHONPATH=src python benchmarks/compare.py --update-baseline
    PYTHONPATH=src python benchmarks/compare.py --tag PR3

The script runs one representative cell per gated figure — fig7
(replica scalability), fig8 (processing time), and fig9 (async window)
— under ``pytest-benchmark`` (with ``--benchmark-autosave``, so the full
history accumulates under ``.benchmarks/``), writes the
trajectory point to ``BENCH_<TAG>.json`` at the repo root, and exits
non-zero if any cell's median regressed more than :data:`TOLERANCE`
versus its stored baseline in ``benchmarks/baseline_<fig>.json``.

For continuity with the PR 1 trajectory point, the fig8 stats are also
mirrored at the top level of the output document.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Default tag for the trajectory point; later PRs pass --tag PR<n> so the
#: BENCH_PR*.json series accumulates instead of overwriting.
DEFAULT_TAG = "PR2"
#: One gated representative cell per micro-benchmark figure.
BENCH_CELLS = {
    "fig7": (
        "benchmarks/test_fig7_replica_scalability.py::"
        "test_fig7_benchmark_representative_cell"
    ),
    "fig8": (
        "benchmarks/test_fig8_processing_time.py::"
        "test_fig8_benchmark_representative_cell"
    ),
    "fig9": (
        "benchmarks/test_fig9_async_window.py::"
        "test_fig9_benchmark_representative_cell"
    ),
}
#: Maximum tolerated median regression vs the stored baseline.
TOLERANCE = 0.10


def baseline_path(fig: str) -> Path:
    return REPO_ROOT / "benchmarks" / f"baseline_{fig}.json"


def run_benchmarks() -> dict[str, dict]:
    """Run every representative cell; return per-figure benchmark stats."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = Path(handle.name)
    try:
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", *BENCH_CELLS.values(), "-q",
                "--benchmark-autosave",
                f"--benchmark-json={json_path}",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            sys.stderr.write(result.stderr[-4000:])
            raise SystemExit(f"benchmark run failed ({result.returncode})")
        data = json.loads(json_path.read_text())
    finally:
        json_path.unlink(missing_ok=True)
    benchmarks = data.get("benchmarks", [])
    if not benchmarks:
        raise SystemExit("benchmark run produced no samples")
    machine = data.get("machine_info", {})
    machine_point = {
        "cpu": machine.get("cpu", {}).get("brand_raw", ""),
        "python": machine.get("python_version", ""),
        "node": machine.get("node", ""),
    }
    cells: dict[str, dict] = {}
    for fig, test in BENCH_CELLS.items():
        # Representative-cell test names are unique across figures.
        test_name = test.split("::")[-1]
        sample = next(
            (b for b in benchmarks
             if b["fullname"].split("::")[-1] == test_name),
            None,
        )
        if sample is None:
            raise SystemExit(f"benchmark run produced no sample for {fig}")
        stats = sample["stats"]
        cells[fig] = {
            "test": test,
            "mean_s": stats["mean"],
            "median_s": stats["median"],
            "min_s": stats["min"],
            "max_s": stats["max"],
            "rounds": stats["rounds"],
            # Fault-injection activity during the measured cell (the
            # fault_activity fixture's delta). Chaos scenarios measure a
            # scripted adversary, not the protocol fast path, so a
            # nonzero count marks the run unfit as a baseline.
            "faults_injected": sample.get("extra_info", {}).get(
                "faults_injected", 0
            ),
            "machine": machine_point,
            "datetime": data.get("datetime"),
        }
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="store this run's stats as the new regression baselines",
    )
    parser.add_argument(
        "--tag",
        default=DEFAULT_TAG,
        help="trajectory label; the point is written to BENCH_<TAG>.json",
    )
    args = parser.parse_args()

    cells = run_benchmarks()
    # Top-level fig8 stats keep the BENCH_PR*.json series comparable with
    # the PR 1 point; the per-figure cells carry the wider gate.
    point = dict(cells["fig8"])
    point["tag"] = args.tag
    point["cells"] = cells
    point["fault_active"] = any(c["faults_injected"] for c in cells.values())
    output_path = REPO_ROOT / f"BENCH_{args.tag}.json"
    output_path.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    for fig, cell in cells.items():
        print(f"{fig} representative cell: median {cell['median_s'] * 1000:.1f} ms "
              f"mean {cell['mean_s'] * 1000:.1f} ms")
    print(f"trajectory point -> {output_path.name}")

    failed = []
    for fig, cell in cells.items():
        path = baseline_path(fig)
        if cell["faults_injected"]:
            print(f"{fig}: FAULT-ACTIVE run ({cell['faults_injected']} "
                  f"injections) — not eligible as a baseline", file=sys.stderr)
            if args.update_baseline or not path.exists():
                raise SystemExit(
                    f"refusing to store a fault-active run as the {fig} "
                    "baseline"
                )
        if args.update_baseline or not path.exists():
            path.write_text(json.dumps(cell, indent=2, sort_keys=True) + "\n")
            print(f"{fig}: baseline written to {path.relative_to(REPO_ROOT)}")
            continue
        baseline = json.loads(path.read_text())
        allowed = baseline["median_s"] * (1.0 + TOLERANCE)
        ratio = cell["median_s"] / baseline["median_s"]
        print(f"{fig}: baseline median {baseline['median_s'] * 1000:.1f} ms; "
              f"this run is {ratio:.2f}x the baseline "
              f"(fail threshold {1.0 + TOLERANCE:.2f}x)")
        if cell["median_s"] > allowed:
            failed.append(fig)
    if failed:
        print(f"REGRESSION: median processing time exceeds tolerance "
              f"for {', '.join(failed)}", file=sys.stderr)
        return 1
    print("OK: all gated cells within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
