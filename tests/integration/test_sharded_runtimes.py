"""Integration: sharded-scenario behaviour beyond the conformance matrix.

The group-closed 2-group echo parity run (per-group labels,
``requests_routed``/``cross_group_calls`` counters, identical outcomes
on every substrate) is a conformance case now — see
``test_conformance.py``. This file keeps the sharding behaviour that is
not simple parity:

- the sim's deterministic cross-group merge replays bit-identically;
- a consistent-hash top-level client crosses a group boundary through
  the router on the live substrates (the counters prove the path), while
  the simulator — whose groups run in closed sub-kernels — rejects the
  same spec loudly instead of mis-executing it;
- the process substrate places one OS process per voter/driver pair
  across all groups, and its shutdown joins the router/egress threads
  even when a worker fails to spawn mid-deploy (no orphaned threads or
  children) — and a worker that *dies* during bootstrap fails the deploy
  at once, by name and exit code, through the same teardown.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.scenario.presets import sharded_echo_scenario
from repro.scenario.process import ProcessRuntime
from repro.scenario.runtime import get_runtime, run_scenario
from repro.scenario.spec import ScenarioBuilder
from repro.sharding import HashRing
from tests.integration.conformance import assert_sharded_echo_shape, run_on

TOTAL_CALLS = 4


def two_group_echo(name):
    return sharded_echo_scenario(
        group_count=2, n=4, total_calls=TOTAL_CALLS, name=name
    )


class TestTwoGroupEcho:
    def test_sim_is_deterministic(self):
        from dataclasses import asdict

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


def cross_group_spec():
    """A top-level client whose ring home is NOT its target's group.

    The ring is deterministic, so probe it for a client name that lands
    on g1 while calling into g0 — every issue then crosses a boundary.
    """
    ring = HashRing(("g0", "g1"))
    client = next(
        name
        for i in range(50)
        for name in [f"client{i}"]
        if ring.assign(name) == "g1"
    )
    return (
        ScenarioBuilder("sharded-cross")
        .routing("consistent_hash")
        .service("g0-target", n=4, app="echo", group="g0")
        .service("g1-other", n=4, app="echo", group="g1")
        .service(client, n=4, app="sync_caller",
                 target="g0-target", total_calls=3)
        .build()
    ), client


class TestCrossGroupCalls:
    def test_threaded_routes_across_groups(self):
        spec, client = cross_group_spec()
        runtime = get_runtime("threaded")
        runtime.deploy(spec)
        try:
            runtime.run(until_s=60)
            metrics = runtime.metrics()
            assert runtime.errors() == []
        finally:
            runtime.shutdown()
        assert metrics.services[client].completed_calls == 3
        assert metrics.services[client].group == "g1"
        # 4 caller replicas x 3 calls, every one across the boundary.
        assert metrics.counters["requests_routed"] == 12
        assert metrics.counters["cross_group_calls"] == 12

    def test_process_routes_across_groups(self):
        spec, client = cross_group_spec()
        runtime = ProcessRuntime(poll_interval_s=0.05)
        runtime.deploy(spec)
        try:
            runtime.run(until_s=60)
            metrics = runtime.metrics()
            assert runtime.worker_errors() == {}
        finally:
            runtime.shutdown()
        assert metrics.services[client].completed_calls == 3
        assert metrics.counters["cross_group_calls"] == 12

    def test_sim_rejects_cross_group_calls(self):
        # The simulator runs each group in a closed sub-kernel, so a
        # cross-group call has no path — the deploy-time topology misses
        # the target and the run fails loudly (documented limitation).
        spec, _ = cross_group_spec()
        with pytest.raises(ConfigurationError):
            run_scenario(spec, runtime="sim")


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

        def dying(spec_json, service, index, conn, address=None):
            if (service, index) == ("g0-target", 2):
                os._exit(3)
            original(spec_json, service, index, conn, address)

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
