"""FIG10: aggregate throughput vs. group count under sharding (PR 9).

No counterpart in the paper's evaluation — the paper runs one replicated
group per service chain. This figure measures the sharding tentpole's
payoff: a scenario split into independent BFT groups, each with its own
bank -> PGE -> bookstore chain and its own RBE population, executes the
groups concurrently, so aggregate throughput grows with the group count
(weak scaling: every added group brings its own clients and its own
worker set).

The scale-out cell runs on ``ProcessRuntime`` — the substrate with real
OS-process parallelism — and compares the single-group TPC-W preset
against ``sharded-tpcw`` with 3 groups at the same per-group population.
The workload is think-time-bound (closed-loop RBEs), so the aggregate
scales with the number of independent populations rather than raw CPU
count, and the >= 2x acceptance bound holds on small containers.

The gated representative cell (``benchmarks/compare.py``, 10% median
gate) is the deterministic simulator running the 2-group sharded echo
preset with both groups on its one kernel; the measured process-substrate
speedup is stamped on the sample via ``extra_info`` so every
``BENCH_<TAG>.json`` trajectory point records it.
"""

import pytest

from benchmarks.conftest import print_series
from repro.scenario.presets import (
    sharded_echo_scenario,
    sharded_tpcw_scenario,
    tpcw_scenario,
)
from repro.scenario.runtime import run_scenario

#: The sweep: the single-group baseline and the 3-group sharded split.
GROUP_COUNTS = (1, 3)
#: Closed-loop population per group (every group gets its own RBEs).
RBES_PER_GROUP = 3
#: Unreplicated inner tiers keep the process count per group small.
N_PGE = 1
#: Wall-clock budget per cell; think-time-bound, so short runs suffice.
DURATION_S = 6.0
THINK_TIME_US = 300_000
SEED = 11


def aggregate_throughput_rps(metrics) -> float:
    """Completed RBE interactions per second of elapsed run time."""
    completed = sum(
        svc.completed_calls
        for name, svc in metrics.services.items()
        if "rbe" in name
    )
    elapsed_s = metrics.now_us / 1e6
    return completed / elapsed_s if elapsed_s > 0 else 0.0


@pytest.fixture(scope="module")
def process_sweep():
    results = {}
    for groups in GROUP_COUNTS:
        if groups == 1:
            spec = tpcw_scenario(
                rbe_count=RBES_PER_GROUP,
                n_pge=N_PGE,
                duration_s=DURATION_S,
                think_time_mean_us=THINK_TIME_US,
                seed=SEED,
                name="fig10-tpcw-1g",
            )
        else:
            spec = sharded_tpcw_scenario(
                group_count=groups,
                rbes_per_group=RBES_PER_GROUP,
                n_pge=N_PGE,
                duration_s=DURATION_S,
                think_time_mean_us=THINK_TIME_US,
                seed=SEED,
                name=f"fig10-tpcw-{groups}g",
            )
        results[groups] = run_scenario(spec, runtime="process")
    return results


def test_fig10_series(process_sweep):
    rows = []
    base = aggregate_throughput_rps(process_sweep[GROUP_COUNTS[0]])
    for groups in GROUP_COUNTS:
        rps = aggregate_throughput_rps(process_sweep[groups])
        rows.append(
            f"   groups={groups}  {rps:8.1f} interactions/s   "
            f"speedup {rps / base:4.2f}x"
        )
    print_series("Figure 10: sharded TPC-W aggregate throughput", rows)
    for metrics in process_sweep.values():
        assert sum(
            svc.completed_calls for svc in metrics.services.values()
        ) > 0


def test_fig10_scaleout_meets_acceptance_bound(process_sweep):
    """The PR 9 acceptance criterion: 3 groups >= 2x one group."""
    base = aggregate_throughput_rps(process_sweep[1])
    sharded = aggregate_throughput_rps(process_sweep[3])
    assert base > 0
    assert sharded / base >= 2.0, (
        f"3-group sharded TPC-W only {sharded / base:.2f}x the "
        f"single-group baseline ({sharded:.1f} vs {base:.1f} rps)"
    )


def test_fig10_groups_stay_isolated(process_sweep):
    """Every group completes work; no cross-group calls in the preset."""
    metrics = process_sweep[3]
    per_group = metrics.by_group()
    assert set(per_group) == {"g0", "g1", "g2"}
    for group, summary in per_group.items():
        assert summary["completed_calls"] > 0, group
    assert metrics.counters["cross_group_calls"] == 0
    assert metrics.counters["requests_routed"] > 0


def test_fig10_benchmark_representative_cell(
    benchmark, fault_activity, process_sweep
):
    # Steady-state measurement (one warmup round, median of five):
    # benchmarks/compare.py gates this cell's median at 10%. The cell is
    # the deterministic sim substrate running the 2-group sharded echo
    # preset end to end, both groups on one kernel.
    spec = sharded_echo_scenario(group_count=2, n=4, total_calls=6)
    result = benchmark.pedantic(
        lambda: run_scenario(spec, runtime="sim"),
        rounds=5,
        warmup_rounds=1,
        iterations=1,
    )
    for group in ("g0", "g1"):
        assert result.services[f"{group}-caller"].completed_calls == 6
        assert result.services[f"{group}-caller"].aborted_calls == 0
    # Record the scale-out measurement on the trajectory point.
    base = aggregate_throughput_rps(process_sweep[1])
    sharded = aggregate_throughput_rps(process_sweep[3])
    benchmark.extra_info["throughput_1g_rps"] = round(base, 2)
    benchmark.extra_info["throughput_3g_rps"] = round(sharded, 2)
    benchmark.extra_info["sharded_speedup"] = round(sharded / base, 2)
