"""Substrate conformance suite: one scenario matrix, every runtime.

Any runtime registered in :data:`repro.scenario.runtime.RUNTIME_NAMES`
must complete the same four workloads with the same observable outcome.
Before this suite existed, the parity assertions were copy-pasted per
substrate across ``test_scenario_runtimes.py`` / ``test_fault_parity.py``
— every new substrate meant editing all of them. Now a substrate joins the matrix by joining ``RUNTIME_NAMES``
(asyncio joined on day one), and ``test_conformance.py`` parametrizes
the whole matrix with one ``@pytest.mark.parametrize("runtime", ...)``.

The four cases, each the acceptance bar of the change that introduced
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
    two_tier_scenario,
)
from repro.scenario.runtime import RUNTIME_NAMES, Runtime, get_runtime
from repro.scenario.spec import ScenarioBuilder

#: The full substrate matrix. New runtimes join automatically.
RUNTIMES = tuple(RUNTIME_NAMES)

ECHO_CALLS = 6
DRIP_CALLS = 4
WINDOW_CALLS = 8
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


# -- the four cases ---------------------------------------------------------


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
    "restart-primary": check_restart_primary,
}
