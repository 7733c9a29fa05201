#!/usr/bin/env python3
"""Interleaved benchmark pairs: a git ref against the working tree.

Runs ``python3 -m bench --workload W --seed S --seconds T --trace 0`` on
a checkout of ``--ref`` (the base) and on the working tree (the change),
one pair at a time, alternating which side goes first so a drift in
host load hits both sides alike. Then prints, per end-to-end metric of
``BENCHMARK.json``: each side's median and interquartile range, the
change of the medians, and in how many pairs the change was better (and
how many tied). A gain is resolved when the change wins nearly every
pair and its median moves by more than the base's IQR.

Run from anywhere inside the repository::

    python3 tools/pairs.py --workload echo_window --pairs 10 --seconds 20
    python3 tools/pairs.py --ref HEAD~1 --workload echo_sync --seed 11 --pairs 3

The base is checked out with ``git worktree add`` into a temporary
directory, removed at the end; ``--base-dir`` uses an existing checkout
instead. The exit status is 1 if any run's output checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in ``checkout``: its JSON result plus ``exit``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench in {checkout} printed no result")
    result["exit"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[tuple[dict, dict]], directions: dict[str, str]) -> list[str]:
    """One line per metric: medians, IQRs, change, wins and ties."""
    rows = [
        f"{'metric':22} {'base median [IQR]':28} {'change median [IQR]':28}"
        f" {'delta':>8} {'wins':>6} {'ties':>5}"
    ]
    for name, better in directions.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs if name in b["metrics"]]
        head = [h["metrics"][name]["value"] for _, h in pairs if name in h["metrics"]]
        if len(base) != len(pairs) or len(head) != len(pairs):
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        ties = sum(1 for b, h in zip(base, head) if h == b)
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        delta = (hmed - bmed) / bmed * 100 if bmed else float("nan")
        base_cell = f"{bmed:.3f} [{bq1:.3f}-{bq3:.3f}]"
        head_cell = f"{hmed:.3f} [{hq1:.3f}-{hq3:.3f}]"
        rows.append(
            f"{name:22} {base_cell:28} {head_cell:28}"
            f" {delta:+7.1f}% {wins:3}/{len(pairs):<2} {ties:5}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Interleaved bench pairs: a git ref against the working tree."
    )
    parser.add_argument("--ref", default="HEAD", help="base git ref (default HEAD)")
    parser.add_argument("--base-dir", type=Path,
                        help="an existing checkout of the base instead of a worktree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base_dir = args.base_dir
        if base_dir is None:
            base_dir = Path(tmp) / "base"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(base_dir), args.ref],
                cwd=REPO_ROOT, check=True, capture_output=True,
            )
        try:
            pairs = []
            for i in range(args.pairs):
                sides = [("base", base_dir), ("change", REPO_ROOT)]
                if i % 2:
                    sides.reverse()
                results = {}
                for side, checkout in sides:
                    results[side] = run_bench(
                        checkout, args.workload, args.seed, args.seconds
                    )
                pairs.append((results["base"], results["change"]))
                base_rps = results["base"]["metrics"].get("throughput_rps", {})
                head_rps = results["change"]["metrics"].get("throughput_rps", {})
                print(
                    f"pair {i + 1}/{args.pairs} ({sides[0][0]} first): "
                    f"throughput_rps base {base_rps.get('value', float('nan')):.1f}"
                    f" change {head_rps.get('value', float('nan')):.1f}",
                    flush=True,
                )
        finally:
            if args.base_dir is None:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(base_dir)],
                    cwd=REPO_ROOT, capture_output=True,
                )
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s runs, "
          f"{len(pairs)} pairs, base {args.base_dir or args.ref}")
    print("\n".join(summarise(pairs, directions)))
    failed = [
        (side, i + 1)
        for i, pair in enumerate(pairs)
        for side, result in zip(("base", "change"), pair)
        if result["exit"] != 0
    ]
    if failed:
        print(f"output checks failed in: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
