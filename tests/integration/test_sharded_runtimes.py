"""Integration: sharded-scenario behaviour beyond the conformance matrix.

The group-closed 2-group echo run and the cross-group call (per-group
labels, ``requests_routed``/``cross_group_calls`` counters, identical
outcomes on every substrate) are conformance cases — see
``test_conformance.py``. This file keeps the sharding behaviour that is
not simple parity:

- the sim runs every group on one kernel, replays bit-identically, and
  reports what the sharded presets reported when each group ran in a
  kernel of its own (``tests/data/golden_sharded_sim.json``);
- a top-level link fault on a cross-group link takes effect on the sim;
- the process substrate places one OS process per voter/driver pair
  across all groups, and its shutdown joins the router/egress threads
  even when a worker fails to spawn mid-deploy (no orphaned threads or
  children) — and a worker that *dies* during bootstrap fails the deploy
  at once, by name and exit code, through the same teardown.
"""

import json
import multiprocessing
import os
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.scenario.presets import sharded_echo_scenario, sharded_tpcw_scenario
from repro.scenario.process import ProcessRuntime
from repro.scenario.runtime import run_scenario
from repro.scenario.spec import FaultSpec
from tests.integration.conformance import (
    assert_sharded_echo_shape,
    cross_group_spec,
    run_on,
)

TOTAL_CALLS = 4


def two_group_echo(name):
    return sharded_echo_scenario(
        group_count=2, n=4, total_calls=TOTAL_CALLS, name=name
    )


class TestTwoGroupEcho:
    def test_sim_is_deterministic(self):
        spec = two_group_echo("sharded-echo-det")
        a = run_scenario(spec, runtime="sim")
        b = run_scenario(spec, runtime="sim")
        assert asdict(a) == asdict(b)

    def test_process_places_one_worker_per_pair_across_groups(self):
        metrics = run_on(
            ProcessRuntime(poll_interval_s=0.05),
            two_group_echo("sharded-echo-proc"),
            until_s=60,
        )
        assert_sharded_echo_shape(metrics, TOTAL_CALLS)
        # One OS process per voter/driver pair across both groups.
        assert metrics.processes == 16


#: Sim metrics of the sharded presets, captured by running them when each
#: group still ran in a kernel of its own, one group after another.
SHARDED_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden_sharded_sim.json").read_text()
)

GOLDEN_SPECS = {
    "sharded_echo_2x6": lambda: sharded_echo_scenario(
        group_count=2, n=4, total_calls=6
    ),
    "sharded_echo_3x20": lambda: sharded_echo_scenario(
        group_count=3, n=4, total_calls=20
    ),
    "sharded_tpcw_3": lambda: sharded_tpcw_scenario(
        group_count=3, rbes_per_group=2, duration_s=8.0,
        think_time_mean_us=1_000_000,
    ),
}


@pytest.mark.parametrize("case", GOLDEN_SPECS)
def test_sim_matches_the_per_group_kernel_golden(case):
    # Field for field, except the kernel's own heap bookkeeping: one
    # heap holding every group compacts on its own schedule.
    observed = asdict(run_scenario(GOLDEN_SPECS[case](), runtime="sim"))
    golden = SHARDED_GOLDEN[case]
    for metrics in (observed, golden):
        metrics["counters"].pop("heap_compactions")
    assert observed == golden


def test_sim_link_fault_on_a_cross_group_link_takes_effect():
    # One network carries every group, so a top-level link rule may name
    # principals of two groups. Cutting every link from the g1-homed
    # client's drivers to the g0 primary hides its requests from the
    # primary: the drivers time out and retransmit before completing.
    spec, client = cross_group_spec("sharded-cross-link")
    clean = run_scenario(spec, runtime="sim")
    lossy = run_scenario(
        spec.with_(faults=tuple(
            FaultSpec(kind="link", params={
                "src": f"{client}/d{i}", "dst": "g0-target/v0", "drop": 1.0,
            })
            for i in range(4)
        )),
        runtime="sim",
    )
    assert clean.counters["retransmissions"] == 0
    assert lossy.counters["retransmissions"] > 0
    assert lossy.services[client].completed_calls == 3


def assert_no_orphans(baseline_threads):
    """Router/egress threads joined and every spawned worker reaped."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        children = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-")
        ]
        if threading.active_count() <= baseline_threads and not children:
            break
        time.sleep(0.05)
    assert threading.active_count() <= baseline_threads
    assert [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-")
    ] == []


class TestPartialStartupTeardown:
    def test_failed_spawn_leaves_no_orphan_threads_or_children(
        self, monkeypatch
    ):
        spec = two_group_echo("sharded-partial-start")
        baseline_threads = threading.active_count()
        original = ProcessRuntime._start_worker
        spawned = {"n": 0}

        def failing(self, ctx, spec_json, service, index):
            spawned["n"] += 1
            if spawned["n"] == 5:
                raise RuntimeError("synthetic spawn failure")
            return original(self, ctx, spec_json, service, index)

        monkeypatch.setattr(ProcessRuntime, "_start_worker", failing)
        runtime = ProcessRuntime(poll_interval_s=0.05)
        with pytest.raises(RuntimeError, match="synthetic spawn failure"):
            runtime.deploy(spec)
        # Deploy's failure path runs shutdown(): router + egress threads
        # joined, the four already-spawned workers reaped.
        assert_no_orphans(baseline_threads)

    def test_worker_dying_in_bootstrap_fails_deploy_at_once(self, monkeypatch):
        from repro.scenario import process

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched worker entry point reaches children by fork")
        original = process._worker_main

        def dying(spec_json, service, index, conn):
            if (service, index) == ("g0-target", 2):
                os._exit(3)
            original(spec_json, service, index, conn)

        monkeypatch.setattr(process, "_worker_main", dying)
        baseline_threads = threading.active_count()
        runtime = ProcessRuntime(poll_interval_s=0.05)
        started = time.monotonic()
        with pytest.raises(ConfigurationError) as raised:
            runtime.deploy(two_group_echo("sharded-dead-worker"))
        # Not READY_TIMEOUT_S (30 s) later: the exit code is the signal.
        assert time.monotonic() - started < 5
        assert "('g0-target', 2), 3" in str(raised.value)
        assert_no_orphans(baseline_threads)
