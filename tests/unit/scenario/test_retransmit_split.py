"""The retransmission-timeout split between substrates, pinned.

One echo spec, deployed through each substrate's own builder: a driver's
first-attempt retransmission timeout is 100 ms on the in-process
real-clock substrates (threaded, asyncio) and the driver default of
250 ms on the simulator and inside a process worker. The split is
historical rather than designed, but ``failover`` and ``echo_window``
are measured with it — whoever aligns it must do so on purpose, with
numbers, and change this test.
"""

import pytest

from repro.common.encoding import canonical_encode
from repro.perpetual import group as perpetual_group
from repro.perpetual.driver import RETRANSMIT_TIMEOUT_US
from repro.scenario.presets import echo_parity_scenario
from repro.scenario.process import _worker_main
from repro.scenario.runtime import get_runtime


def echo_spec(tag):
    return echo_parity_scenario(n=4, total_calls=1, name=f"rtx-split-{tag}")


def test_simulator_keeps_the_driver_default():
    runtime = get_runtime("sim").deploy(echo_spec("sim"))
    drivers = runtime._groups["caller"].drivers
    assert RETRANSMIT_TIMEOUT_US == 250_000
    assert {d._retransmit_timeout_us for d in drivers} == {250_000}


@pytest.mark.parametrize("name", ["threaded", "asyncio"])
def test_in_process_substrates_retransmit_after_100_ms(name):
    runtime = get_runtime(name).deploy(echo_spec(name))
    try:
        drivers = [d for g in runtime._groups.values() for d in g.drivers]
        assert len(drivers) == 8
        assert {d._retransmit_timeout_us for d in drivers} == {100_000}
    finally:
        runtime.shutdown()


class _StopAtOnce:
    """A worker's connection whose parent says ``stop`` straight away."""

    def __init__(self):
        self._inbound = [canonical_encode(("stop",))]

    def poll(self, timeout=0.0):
        return bool(self._inbound)

    def recv_bytes(self):
        return self._inbound.pop(0)

    def send_bytes(self, data):
        pass

    def close(self):
        pass


def test_process_worker_keeps_the_driver_default(monkeypatch):
    built = []
    real = perpetual_group.build_replica

    def spy(**kwargs):
        pair = real(**kwargs)
        built.append(pair[1])
        return pair

    monkeypatch.setattr(perpetual_group, "build_replica", spy)
    _worker_main(echo_spec("process").to_json(), "caller", 0, _StopAtOnce())
    assert [d._retransmit_timeout_us for d in built] == [250_000]
