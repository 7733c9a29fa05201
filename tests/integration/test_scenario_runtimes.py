"""Integration: runtime-specific behaviour of the scenario substrates.

Cross-substrate workload parity lives in the conformance matrix
(``test_conformance.py``); this file keeps what is *specific* to one
runtime — sim determinism, real OS-process parallelism, crash-fault
observer fallback, fail-fast deploy validation, the process worker's
bootstrap cache clear and frames far above the pipe buffer, the exact
stop beside a stalled worker, and runtime selection.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.perpetual.executor import Sleep
from repro.scenario import BuiltApp, register_app
from repro.scenario.presets import echo_parity_scenario
from repro.scenario.process import ProcessRuntime
from repro.scenario.runtime import get_runtime, run_scenario
from repro.scenario.spec import FaultSpec, ScenarioBuilder
from repro.ws.api import MessageContext, MessageHandler
from tests.integration.conformance import run_on


def test_sim_runtime_is_deterministic():
    spec = echo_parity_scenario(n=4, total_calls=5)
    a = run_scenario(spec, runtime="sim")
    b = run_scenario(spec, runtime="sim")
    assert a.events_processed == b.events_processed
    assert a.now_us == b.now_us
    assert a.services["caller"].last_completion_us == \
        b.services["caller"].last_completion_us


def test_process_runtime_smoke_uses_real_processes():
    # A 2-service scenario must occupy >= 2 OS processes, none of them
    # the test process itself.
    spec = echo_parity_scenario(n=1, total_calls=3, name="echo-proc-smoke")
    runtime = ProcessRuntime()
    runtime.deploy(spec)
    try:
        pids = runtime.worker_pids()
        assert len(set(pids)) >= 2
        assert os.getpid() not in pids
        runtime.run(until_s=60)
        metrics = runtime.metrics()
        assert metrics.processes >= 2
        assert metrics.services["caller"].completed_calls == 3
        assert metrics.services["caller"].aborted_calls == 0
        assert metrics.services["target"].requests_served == 3
        assert runtime.worker_errors() == {}
    finally:
        runtime.shutdown()


def test_process_runtime_tolerates_crashed_replica():
    # f=1 crash fault: the crashed pair's worker is never spawned and the
    # protocol still completes on the surviving 2f+1... replicas.
    spec = echo_parity_scenario(n=4, total_calls=3, name="echo-proc-crash")
    spec = spec.with_(faults=(FaultSpec(kind="crash", service="target", index=1),))
    runtime = ProcessRuntime()
    runtime.deploy(spec)
    try:
        assert len(runtime.worker_pids()) == 7  # 8 pairs minus the crash
        runtime.run(until_s=90)
        metrics = runtime.metrics()
        assert metrics.services["caller"].completed_calls == 3
        assert metrics.services["caller"].aborted_calls == 0
    finally:
        runtime.shutdown()


def test_crashed_replica_zero_still_observed_on_sim_and_threaded():
    # Metrics fall back to the lowest live replica when replica 0 is
    # crash-faulted, identically on every substrate.
    spec = echo_parity_scenario(n=4, total_calls=4, name="echo-crash-r0")
    spec = spec.with_(faults=(FaultSpec(kind="crash", service="caller", index=0),))

    sim_metrics = run_scenario(spec, runtime="sim")
    assert sim_metrics.services["caller"].completed_calls == 4

    threaded = get_runtime("threaded")
    threaded.deploy(spec)
    try:
        threaded.run(until_s=60)
        assert threaded.metrics().services["caller"].completed_calls == 4
    finally:
        threaded.shutdown()


def test_process_runtime_fails_fast_on_unknown_app_kind():
    from repro.common.errors import ConfigurationError
    from repro.scenario.spec import ScenarioBuilder

    spec = ScenarioBuilder("bad-app").service("svc", n=1, app="ecno").build()
    runtime = ProcessRuntime()
    try:
        with pytest.raises(ConfigurationError, match="ecno"):
            runtime.deploy(spec)
    finally:
        runtime.shutdown()


def test_process_runtime_rejects_registry_only_cost_models():
    # A model living only in this process's registry cannot be rebuilt by
    # a worker; the spec must carry crypto_params instead.
    from repro.common.errors import ConfigurationError
    from repro.crypto.cost import CryptoCostModel
    from repro.scenario.apps import register_cost_model
    from repro.scenario.spec import ScenarioBuilder

    register_cost_model(
        CryptoCostModel(name="registry-only", sign_us=1,
                        verify_us=1, per_receiver_us=0)
    )
    spec = (
        ScenarioBuilder("registry-only-crypto")
        .crypto("registry-only")
        .service("svc", n=1, app="echo")
        .build()
    )
    runtime = ProcessRuntime()
    try:
        with pytest.raises(ConfigurationError, match="crypto_params"):
            runtime.deploy(spec)
    finally:
        runtime.shutdown()
    # The self-describing form deploys fine (validation only; no run).
    ok = spec.with_(
        crypto_params={"sign_us": 1, "verify_us": 1, "per_receiver_us": 0}
    )
    runtime = ProcessRuntime()
    try:
        runtime.deploy(ok)
        assert len(runtime.worker_pids()) == 1
    finally:
        runtime.shutdown()


def test_process_runtime_shutdown_stops_parent_threads_without_workers():
    import threading

    spec = echo_parity_scenario(n=1, total_calls=1, name="echo-all-crashed")
    spec = spec.with_(
        faults=(
            FaultSpec(kind="crash", service="target", index=0),
            FaultSpec(kind="crash", service="caller", index=0),
        )
    )
    before = threading.active_count()
    runtime = ProcessRuntime()
    runtime.deploy(spec)
    runtime.shutdown()
    assert threading.active_count() == before


def test_scheme_qualified_endpoints_resolve_on_every_substrate():
    # perpetual:// references resolve through the same
    # repro.ws.registry.service_name on all substrates, not just the
    # simulator.
    from repro.scenario.spec import ScenarioBuilder

    spec = (
        ScenarioBuilder("scheme-endpoints")
        .duration(30)
        .service("target", n=1, app="echo")
        .service("caller", n=1, app="sync_caller",
                 target="perpetual://target", total_calls=2)
        .build()
    )
    assert run_scenario(spec, runtime="sim").services[
        "caller"].completed_calls == 2
    threaded = get_runtime("threaded")
    threaded.deploy(spec)
    try:
        threaded.run(until_s=30)
        assert threaded.metrics().services["caller"].completed_calls == 2
    finally:
        threaded.shutdown()


@register_app("late_caller")
def _build_late_caller(params):
    """One call to ``target`` after ``sleep_us`` of think time."""

    def app():
        yield Sleep(params["sleep_us"])
        yield MessageHandler.send_receive(
            MessageContext(to=params["target"], body={"late": True})
        )

    return BuiltApp(factory=app)


@register_app("stalling_echo")
def _build_stalling_echo(params):
    """Echo; the first replica to claim the ``claim`` file then blocks
    its handler for ``stall_s`` and marks the ``done`` file."""

    def app():
        while True:
            request = yield MessageHandler.receive_request()
            try:
                os.close(os.open(params["claim"], os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                time.sleep(params["stall_s"])
                Path(params["done"]).touch()
            yield MessageHandler.send_reply(
                MessageContext(body=request.body), request
            )

    return BuiltApp(factory=app)


def test_process_run_waits_for_a_worker_stalled_in_a_handler(tmp_path):
    # One target replica blocks in its handler for many poll intervals
    # after the caller has its answer from the other three. The stalled
    # worker answers no poll meanwhile; its last stats frame (idle,
    # nothing armed) must not count as stable, or run() returns while
    # the worker is still working.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the test's app kinds reach the workers by fork")
    done = tmp_path / "done"
    spec = (
        ScenarioBuilder("stalled-worker")
        .duration(30)
        .service("target", n=4, app="stalling_echo",
                 claim=str(tmp_path / "claim"), done=str(done), stall_s=2.0)
        .service("caller", n=1, app="late_caller",
                 target="target", sleep_us=1_200_000)
        .build()
    )
    runtime = ProcessRuntime(poll_interval_s=0.2)
    runtime.deploy(spec)
    try:
        runtime.run(until_s=30)
        assert done.exists()
        metrics = runtime.metrics()
        assert metrics.services["caller"].completed_calls == 1
        assert runtime.worker_errors() == {}
    finally:
        runtime.shutdown()


def test_frames_far_above_the_pipe_buffer_complete():
    # A 256 KiB body makes every request, reply and pre-prepare (which
    # carries the request body once, as the bytes the callers MAC'd) a
    # frame four to six times the 64 KiB pipe buffer, three calls at
    # once, multicast to four workers. The parent's router/egress split
    # exists so that no write can block the reader that would drain it;
    # this is the run that would deadlock without it. (Not 1 MiB: at
    # that size one call costs more CPU than the 250 ms retransmission
    # and 500 ms view-change timeouts allow on a loaded two-core host,
    # and the run then measures those timeouts, not the frames.)
    calls = 3
    spec = (
        ScenarioBuilder("big-frame")
        .batching("off")
        .service("target", n=4, app="echo")
        .service(
            "caller", n=1, app="async_caller", target="target",
            total_calls=calls, window=calls, body={"blob": "x" * (256 << 10)},
        )
        .build()
    )
    # run_on asserts worker_errors() == {}.
    metrics = run_on(ProcessRuntime(poll_interval_s=0.05), spec, until_s=60)
    assert metrics.processes == 5
    assert metrics.services["caller"].completed_calls == calls
    assert metrics.services["caller"].aborted_calls == 0


def test_unknown_transport_rejected():
    from repro.common.errors import ConfigurationError

    # Pipes are the one transport: "tcp" is refused like any made-up name.
    for transport in ("tcp", "carrier-pigeon"):
        with pytest.raises(ConfigurationError, match="transport"):
            ProcessRuntime(transport=transport)


def test_unknown_runtime_rejected():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        get_runtime("quantum")
