"""Command line of the benchmark.

Three ways to run it, all from the repository root:

- ``python3 -m bench`` — every workload: the end-to-end run, then the
  traced run, every metric printed by name with its unit.
- ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` —
  the driver's form: one workload, end-to-end (``0``) or per-layer
  (``1``) metrics, and as the last line of standard output one JSON
  object with the keys ``correct``, ``attempted``, ``failed``,
  ``metrics``.
- ``python3 -m bench --check-repeat`` — everything twice; fails if an
  end-to-end metric is worse in the second set than in the first by more
  than its bound, or an exact count moves at all.

The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from bench import ROOT
from bench.measure import Result, measure
from bench.trace import trace
from bench.workloads import WORKLOADS, Workload

#: Shortest run the estimator can work with: one warm-up-free bucket
#: (and a ``failover`` outage long enough to force the view change).
MIN_SECONDS = 4
#: The traced run's real-clock pass lasts half of ``--seconds``.
MIN_TRACE_SECONDS = 2 * MIN_SECONDS


@dataclass(frozen=True)
class Contract:
    """Metric names, units and bounds: ``BENCHMARK.json`` declares them,
    the benchmark only fills in values."""

    run_seconds: int
    end_to_end: dict[str, dict]
    per_layer: dict[str, dict]

    @classmethod
    def load(cls) -> "Contract":
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            data = json.load(handle)
        declared = [w["name"] for w in data["workloads"]]
        if declared != list(WORKLOADS):
            raise SystemExit(
                f"BENCHMARK.json declares workloads {declared}, "
                f"the benchmark has {list(WORKLOADS)}"
            )
        return cls(
            run_seconds=data["run_seconds"],
            end_to_end={m["name"]: m for m in data["end_to_end"]},
            per_layer={m["name"]: m for m in data["per_layer"]},
        )


def _with_units(
    values: dict[str, float], declared: dict[str, dict], problems: list[str]
) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics, or
    nothing and one more problem if the measured set is another."""
    if values.keys() != declared.keys():
        problems.append(
            "measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared.keys() - values.keys())}, undeclared "
            f"{sorted(values.keys() - declared.keys())}"
        )
        return {}
    return {
        name: {"value": values[name], "unit": declared[name]["unit"]}
        for name in declared
    }


@dataclass
class Outcome:
    """One run's result in the shape of the final JSON line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "metrics": self.metrics,
        })


def report(
    workload: Workload, result: Result, declared: dict[str, dict]
) -> Outcome:
    """Print one run's metrics by name and unit, its informational
    values, its failure count and any check violation."""
    name = workload.name
    problems = list(result.problems)
    metrics = _with_units(result.metrics, declared, problems)
    for metric, entry in metrics.items():
        bound = declared[metric].get("bound")
        note = f"  (bound {bound:.0%})" if bound is not None else ""
        print(f"{name:13s} {metric:40s} {entry['value']:14.6f} {entry['unit']}{note}")
    for key, value in result.info.items():
        print(f"{name:13s} {'info.' + key:40s} {value:14.6f}")
    attempted = max(result.attempted, 1)  # the result line needs one
    print(
        f"{name:13s} attempted {attempted}  failed {result.failed}  "
        f"failed_share {result.failed / attempted:.6f}"
    )
    for problem in problems:
        print(f"{name:13s} CHECK FAILED: {problem}")
    return Outcome(not problems and result.failed == 0, attempted, result.failed, metrics)


def run_all(
    names: list[str], seed: int, seconds: float, contract: Contract
) -> tuple[dict[str, dict[str, Outcome]], dict[str, set[str]]]:
    """The end-to-end run, then the traced run, of every named workload.

    Returns ``{workload: {"end_to_end": ..., "per_layer": ...}}`` and each
    workload's exact per-layer metric names.
    """
    outcomes, exact = {}, {}
    for name in names:
        workload = WORKLOADS[name]
        end_to_end = report(
            workload, measure(workload, seed, seconds), contract.end_to_end
        )
        traced = trace(workload, seed, seconds)
        exact[name] = traced.exact
        outcomes[name] = {
            "end_to_end": end_to_end,
            "per_layer": report(workload, traced, contract.per_layer),
        }
    return outcomes, exact


def _values(outcome: Outcome) -> dict[str, float]:
    return {name: entry["value"] for name, entry in outcome.metrics.items()}


def check_repeat(names: list[str], seed: int, seconds: float, contract: Contract) -> bool:
    """Run everything twice and compare the two sets."""
    sets = []
    for attempt in (1, 2):
        print(f"== set {attempt} ==")
        outcomes, exact = run_all(names, seed, seconds, contract)
        sets.append(outcomes)
    print("== comparison ==")
    agree = True
    for name in names:
        first, second = (outcomes[name] for outcomes in sets)
        agree &= all(o.correct for o in (*first.values(), *second.values()))
        a, b = _values(first["end_to_end"]), _values(second["end_to_end"])
        for metric, declared in contract.end_to_end.items():
            if metric not in a or metric not in b:
                agree = False
                continue
            # The driver's rule: the second may not be *worse* than the
            # first by more than the bound, as a share of the first.
            worse = (b[metric] - a[metric]) / a[metric]
            if declared["better"] == "higher":
                worse = -worse
            within = worse <= declared["bound"]
            agree &= within
            print(
                f"{name:13s} {metric:22s} {a[metric]:12.4f} {b[metric]:12.4f} "
                f"{declared['unit']:4s} worse by {worse:+8.2%} (bound "
                f"{declared['bound']:.0%})  {'ok' if within else 'WORSE'}"
            )
        a, b = _values(first["per_layer"]), _values(second["per_layer"])
        differing = sorted(m for m in exact[name] if a.get(m) != b.get(m))
        agree &= not differing
        print(
            f"{name:13s} {len(exact[name])} exact counts: "
            + (f"DIFFER in {differing}" if differing else "identical")
        )
    print("repeatable" if agree else "NOT repeatable")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    contract = Contract.load()
    seconds = contract.run_seconds if args.seconds is None else args.seconds
    least = MIN_SECONDS if args.trace == 0 else MIN_TRACE_SECONDS
    if seconds < least:
        parser.error(f"--seconds must be at least {least} for this mode")
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.check_repeat:
        return 0 if check_repeat(names, args.seed, seconds, contract) else 1
    if args.trace is None:
        outcomes, _exact = run_all(names, args.seed, seconds, contract)
        flat = [o for pair in outcomes.values() for o in pair.values()]
        print(json.dumps({
            "correct": all(o.correct for o in flat),
            "attempted": sum(o.attempted for o in flat),
            "failed": sum(o.failed for o in flat),
            "metrics": {
                name: {kind: o.metrics for kind, o in pair.items()}
                for name, pair in outcomes.items()
            },
        }))
        return 0 if all(o.correct for o in flat) else 1
    if args.workload is None:
        parser.error("--trace needs --workload")
    workload = WORKLOADS[args.workload]
    if args.trace:
        outcome = report(workload, trace(workload, args.seed, seconds), contract.per_layer)
    else:
        outcome = report(workload, measure(workload, args.seed, seconds), contract.end_to_end)
    sys.stdout.flush()
    print(outcome.to_json())
    return 0 if outcome.correct else 1
