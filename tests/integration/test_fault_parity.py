"""Integration: fault injection behaves the same on every substrate.

Crash, byzantine, and delay faults are enforced uniformly: the simulator
scripts them in-process, the threaded and asyncio runtimes wire the same
FaultPlan into their live nodes, and the process runtime rebuilds the
plan inside each worker from the spec JSON in its spawn payload. The
cross-substrate runs all go through the conformance runner
(:func:`tests.integration.conformance.run_on` — one parametrized matrix
instead of per-substrate copies); sim-only ``link`` faults are rejected
up front by every live substrate. The mute-primary liveness case
(chaos-slow-drip) and the primary ``restart`` case (restart-primary,
which ends with ``view_lag == 0``) live in the conformance matrix itself.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenario.runtime import RUNTIME_NAMES, get_runtime
from repro.scenario.spec import ScenarioBuilder
from tests.integration.conformance import run_on

LIVE_RUNTIMES = tuple(n for n in RUNTIME_NAMES if n != "sim")


def chaos_spec(name, total_calls=4):
    return (
        ScenarioBuilder(name)
        .duration(60)
        .service("target", n=4, app="echo")
        .service("caller", n=1, app="sync_caller",
                 target="target", total_calls=total_calls)
    )


@pytest.mark.parametrize("runtime", RUNTIME_NAMES)
def test_crash_faulted_echo_parity_across_substrates(runtime):
    # One spec shape, one crashed replica, every substrate: the
    # surviving quorum completes the identical workload everywhere.
    spec = chaos_spec(f"crash-parity-{runtime}").crash("target", 2).build()
    metrics = run_on(runtime, spec, until_s=120)
    assert metrics.services["caller"].completed_calls == 4
    assert metrics.services["caller"].aborted_calls == 0


def test_corrupt_replica_enforced_on_threaded_runtime():
    spec = (
        chaos_spec("corrupt-threaded")
        .byzantine("target", 1, mode="corrupt")
        .build()
    )
    metrics = run_on("threaded", spec)
    assert metrics.services["caller"].completed_calls == 4
    assert metrics.services["caller"].aborted_calls == 0
    assert metrics.counters["faults_injected"] >= 1


def test_corrupt_and_delay_enforced_on_process_runtime():
    # The workers rebuild the fault plan from spec JSON: the injected
    # fault counters flow back through the worker stats channel.
    spec = (
        chaos_spec("corrupt-delay-process")
        .byzantine("target", 1, mode="corrupt")
        .delay("target", 3, delay_us=1_000)
        .build()
    )
    metrics = run_on("process", spec, until_s=120)
    assert metrics.services["caller"].completed_calls == 4
    assert metrics.services["caller"].aborted_calls == 0
    assert metrics.counters["faults_injected"] >= 1


@pytest.mark.parametrize("runtime", LIVE_RUNTIMES)
def test_link_faults_rejected_by_live_substrates(runtime):
    spec = (
        chaos_spec(f"link-rejected-{runtime}")
        .link_fault("caller/d0", "*", drop=0.25)
        .build()
    )
    rt = get_runtime(runtime)
    try:
        with pytest.raises(ConfigurationError, match="link"):
            rt.deploy(spec)
    finally:
        rt.shutdown()
