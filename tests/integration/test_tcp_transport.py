"""Integration: the process substrate's transports and worker bootstrap.

Two concerns meet here:

- the tcp transport (``ProcessRuntime(transport="tcp")``) completes
  the same scenarios over localhost sockets that the pipe transport
  runs — same frames, same router/egress code, length-prefixed by
  :mod:`repro.transport.socket_frame`. These carry the ``net`` marker
  (excluded from tier-1 via pytest.ini; run with ``-m net``);
- the latent parity gap the tcp path exposed: every worker start path
  must run :func:`repro.common.encoding.clear_wire_caches` before
  decoding its first frame. That contract used to be checkable only by
  monkeypatching bootstrap internals; now the hook bumps the
  ``wire_cache_clears`` METRICS counter, workers zero METRICS *before*
  the clear, and the summed worker stats prove exactly one clear per
  worker on every transport.
"""

import pytest

from repro.scenario.presets import echo_parity_scenario
from repro.scenario.process import ProcessRuntime
from tests.integration.conformance import run_on

TRANSPORTS = ("pipe", pytest.param("tcp", marks=pytest.mark.net))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_wire_caches_cleared_once_per_worker_start(transport):
    # 2 services x 4 replicas = 8 workers; each start path (process
    # spawn, tcp dial-back rendezvous) must clear the identity-keyed
    # caches exactly once, observed through summed worker counters —
    # no monkeypatching of bootstrap internals.
    spec = echo_parity_scenario(
        n=4, total_calls=3, name=f"wire-cache-{transport}"
    )
    metrics = run_on(
        ProcessRuntime(poll_interval_s=0.05, transport=transport),
        spec,
        until_s=60,
    )
    assert metrics.processes == 8
    assert metrics.counters["wire_cache_clears"] == 8
    assert metrics.services["caller"].completed_calls == 3


@pytest.mark.net
def test_tcp_transport_completes_echo_over_localhost_sockets():
    spec = echo_parity_scenario(n=4, total_calls=6, name="tcp-echo")
    metrics = run_on(
        ProcessRuntime(poll_interval_s=0.05, transport="tcp"),
        spec,
        until_s=60,
    )
    assert metrics.services["caller"].completed_calls == 6
    assert metrics.services["caller"].aborted_calls == 0
    assert metrics.services["target"].requests_served == 6
    assert metrics.processes == 8


@pytest.mark.net
def test_tcp_transport_runs_sharded_groups():
    from repro.scenario.presets import sharded_echo_scenario
    from tests.integration.conformance import assert_sharded_echo_shape

    spec = sharded_echo_scenario(
        group_count=2, n=4, total_calls=4, name="tcp-sharded"
    )
    metrics = run_on(
        ProcessRuntime(poll_interval_s=0.05, transport="tcp"),
        spec,
        until_s=60,
    )
    assert_sharded_echo_shape(metrics, 4)
    assert metrics.processes == 16


def test_unknown_transport_rejected():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="transport"):
        ProcessRuntime(transport="carrier-pigeon")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_frames_far_above_the_pipe_buffer_complete(transport):
    # A 256 KiB body makes every request, reply and pre-prepare (which
    # embeds the request as proof, base64-inflated) a frame four to six
    # times the 64 KiB pipe buffer, three calls at once, multicast to
    # four workers. The parent's router/egress split exists so that no
    # write can block the reader that would drain it; this is the run
    # that would deadlock without it. (Not 1 MiB: at that size one call
    # costs more CPU than the 250 ms retransmission and 500 ms
    # view-change timeouts allow on a loaded two-core host, and the run
    # then measures those timeouts, not the frames.)
    from repro.scenario.spec import ScenarioBuilder

    calls = 3
    spec = (
        ScenarioBuilder(f"big-frame-{transport}")
        .batching("off")
        .service("target", n=4, app="echo")
        .service(
            "caller", n=1, app="async_caller", target="target",
            total_calls=calls, window=calls, body={"blob": "x" * (256 << 10)},
        )
        .build()
    )
    # run_on asserts worker_errors() == {}.
    metrics = run_on(
        ProcessRuntime(poll_interval_s=0.05, transport=transport),
        spec,
        until_s=60,
    )
    assert metrics.processes == 5
    assert metrics.services["caller"].completed_calls == calls
    assert metrics.services["caller"].aborted_calls == 0
