"""Substrate conformance suite: one scenario matrix, every runtime.

Any runtime registered in :data:`repro.scenario.runtime.RUNTIME_NAMES`
must complete the same six workloads with the same observable outcome.
Before this suite existed, the parity assertions were copy-pasted per
substrate across ``test_scenario_runtimes.py`` / ``test_fault_parity.py``
/ ``test_sharded_runtimes.py`` — every new substrate meant editing all
of them. Now a substrate joins the matrix by joining ``RUNTIME_NAMES``
(asyncio joined on day one), and ``test_conformance.py`` parametrizes
the whole matrix with one ``@pytest.mark.parametrize("runtime", ...)``.

The six cases, each the acceptance bar of the change that introduced
its capability:

- **echo** — plain 4-replica echo parity (identical completed/aborted/
  served counts);
- **chaos-slow-drip** — a byzantine-mute primary forces >= 1 CLBFT view
  change and the workload still completes (fault hooks + liveness);
- **batching-window-4** — tick batching on the window-4 async two-tier
  workload genuinely aggregates (flush hooks: fewer envelopes, each
  batch amortising one MAC vector over several messages; on a real
  clock, where ``tick`` is one mailbox drain, at most
  :data:`TICK_MAC_RATIO` of the MAC computations of the same run with
  batching off);
- **sharded-echo** — a group-closed 2-group scenario with per-group
  metric labels and routed-request counters (router injection);
- **sharded-cross** — a consistent-hash top-level client homed on g1
  calls a g0 service: every issue crosses the group boundary through
  the router (``requests_routed == cross_group_calls``), on the
  simulator as on the live substrates;
- **restart-primary** — the target's view-0 primary is down across the
  view change that replaces it and comes back mid-workload: every call
  completes and the restarted replica ends in the group's view
  (``view_lag == 0``; view-aware request path + rejoin).

``run_on`` is the shared runner: deploy, run, observe, tear down on any
named runtime, asserting the substrate's own error channel is clean
(threaded/asyncio handler errors, process worker errors).
"""

from repro.scenario.presets import (
    chaos_slow_drip,
    echo_parity_scenario,
    sharded_echo_scenario,
    two_tier_scenario,
)
from repro.scenario.runtime import RUNTIME_NAMES, Runtime, get_runtime
from repro.scenario.spec import ScenarioBuilder
from repro.sharding import HashRing

#: The full substrate matrix. New runtimes join automatically.
RUNTIMES = tuple(RUNTIME_NAMES)

ECHO_CALLS = 6
DRIP_CALLS = 4
WINDOW_CALLS = 8
SHARDED_CALLS = 4
CROSS_CALLS = 3
RESTART_CALLS = 300

#: batching-window-4 on a real-clock substrate: MAC computations per
#: completed call with ``tick``, at most this fraction of ``off``'s. A
#: flush after every handler (the simulator's tick) stays near 0.77;
#: one flush per mailbox drain measured 0.50 (asyncio) to 0.61
#: (threaded, racy interleaving).
TICK_MAC_RATIO = 0.7


def run_on(runtime, spec, until_s: float = 90):
    """Run ``spec`` on a runtime (name or instance); return its metrics.

    Asserts the substrate-specific error channels are empty — a scenario
    that "completes" by swallowing handler exceptions is not conformant.
    """
    rt = get_runtime(runtime) if not isinstance(runtime, Runtime) else runtime
    rt.deploy(spec)
    try:
        rt.run(until_s=until_s)
        metrics = rt.metrics()
        if hasattr(rt, "errors"):
            assert rt.errors() == []
        if hasattr(rt, "worker_errors"):
            assert rt.worker_errors() == {}
        return metrics
    finally:
        rt.shutdown()


# -- the five cases ---------------------------------------------------------


def check_echo(runtime) -> None:
    spec = echo_parity_scenario(
        n=4, total_calls=ECHO_CALLS, name=f"conf-echo-{runtime}"
    )
    metrics = run_on(runtime, spec)
    assert metrics.scenario == spec.name
    assert metrics.services["caller"].completed_calls == ECHO_CALLS
    assert metrics.services["caller"].aborted_calls == 0
    assert metrics.services["target"].requests_served == ECHO_CALLS


def check_chaos_slow_drip(runtime) -> None:
    spec = chaos_slow_drip(
        total_calls=DRIP_CALLS, name=f"conf-drip-{runtime}"
    )
    metrics = run_on(runtime, spec, until_s=120)
    assert metrics.services["caller"].completed_calls == DRIP_CALLS
    assert metrics.services["caller"].aborted_calls == 0
    # The muted primary stalled view 0; progress proves the view change.
    assert metrics.services["target"].view_changes >= 1
    assert metrics.counters["view_changes"] >= 1
    assert metrics.counters["faults_injected"] >= 1


def check_batching_window_4(runtime) -> None:
    spec = two_tier_scenario(
        n_calling=2,
        n_target=4,
        total_calls=WINDOW_CALLS,
        window=4,
        name=f"conf-batch-{runtime}",
    )
    metrics = run_on(runtime, spec.with_(batching="tick"))
    assert metrics.services["caller"].completed_calls == WINDOW_CALLS
    assert metrics.services["caller"].aborted_calls == 0
    # Genuine aggregation through the substrate's flush hook: batches on
    # the wire, each amortising its single MAC vector over >1 message.
    assert metrics.counters["batches_sent"] > 0
    assert metrics.counters["batch_messages"] > metrics.counters["batches_sent"]
    if runtime == "sim":
        return
    unbatched = run_on(runtime, spec.with_(batching="off"))
    assert unbatched.services["caller"].completed_calls == WINDOW_CALLS
    assert (
        metrics.counters["mac_computations"]
        <= TICK_MAC_RATIO * unbatched.counters["mac_computations"]
    )


def assert_sharded_echo_shape(metrics, total_calls: int = SHARDED_CALLS):
    """The sharding tentpole's observable shape, substrate-independent."""
    for group in ("g0", "g1"):
        caller = metrics.services[f"{group}-caller"]
        assert caller.completed_calls == total_calls
        assert caller.aborted_calls == 0
        assert caller.group == group
        assert metrics.services[f"{group}-target"].group == group
    per_group = metrics.by_group()
    assert set(per_group) == {"g0", "g1"}
    for summary in per_group.values():
        assert summary["completed_calls"] == total_calls
    # Every driver replica routes each issue; the preset is group-closed.
    assert metrics.counters["requests_routed"] == 2 * 4 * total_calls
    assert metrics.counters["cross_group_calls"] == 0


def check_sharded_echo(runtime) -> None:
    spec = sharded_echo_scenario(
        group_count=2,
        n=4,
        total_calls=SHARDED_CALLS,
        name=f"conf-shard-{runtime}",
    )
    assert_sharded_echo_shape(run_on(runtime, spec))


def cross_group_spec(name: str):
    """A top-level client whose ring home is NOT its target's group.

    The ring is deterministic, so probe it for a client name that lands
    on g1 while calling into g0 — every issue then crosses a boundary.
    """
    ring = HashRing(("g0", "g1"))
    client = next(
        f"client{i}" for i in range(50) if ring.assign(f"client{i}") == "g1"
    )
    spec = (
        ScenarioBuilder(name)
        .routing("consistent_hash")
        .service("g0-target", n=4, app="echo", group="g0")
        .service("g1-other", n=4, app="echo", group="g1")
        .service(client, n=4, app="sync_caller",
                 target="g0-target", total_calls=CROSS_CALLS)
        .build()
    )
    return spec, client


def check_sharded_cross(runtime) -> None:
    spec, client = cross_group_spec(f"conf-cross-{runtime}")
    metrics = run_on(runtime, spec)
    assert metrics.services[client].completed_calls == CROSS_CALLS
    assert metrics.services[client].aborted_calls == 0
    assert metrics.services[client].group == "g1"
    # 4 caller replicas x 3 calls, every one across the boundary.
    assert metrics.counters["requests_routed"] == 4 * CROSS_CALLS
    assert metrics.counters["cross_group_calls"] == 4 * CROSS_CALLS


def check_restart_primary(runtime) -> None:
    # Down from 0.1 s to 1.0 s: the backups' view-change timer (0.5 s
    # after the first retransmission) replaces the primary while it is
    # away. The caller routes around the dead replica after one timeout,
    # so calls then run at about the fault-free rate; 300 of them leave
    # well over a checkpoint interval of calls after the return on any
    # substrate. Their view-1 traffic brings it back into the view, the
    # next stable checkpoint carries it over the batches it missed, and
    # it ends the run as an ordinary backup with nothing armed. (A
    # replica that sees no traffic after its return stays a view behind:
    # there is no state transfer to catch it up.)
    spec = (
        ScenarioBuilder(f"conf-restart-{runtime}")
        .duration(60)
        .service("target", n=4, app="counter")
        .service("caller", n=1, app="sync_caller",
                 target="target", total_calls=RESTART_CALLS)
        .restart("target", 0, up_after_us=1_000_000, down_after_us=100_000)
        .build()
    )
    metrics = run_on(runtime, spec, until_s=30)
    assert metrics.services["caller"].completed_calls == RESTART_CALLS
    assert metrics.services["caller"].aborted_calls == 0
    assert metrics.services["target"].view_changes >= 1
    assert metrics.services["target"].view_lag == 0
    assert metrics.counters["faults_injected"] >= 1


#: Case name -> checker, the matrix's second axis.
CASES = {
    "echo": check_echo,
    "chaos-slow-drip": check_chaos_slow_drip,
    "batching-window-4": check_batching_window_4,
    "sharded-echo": check_sharded_echo,
    "sharded-cross": check_sharded_cross,
    "restart-primary": check_restart_primary,
}
