"""Deploying a spec onto the simulator: run bounds and topology lookups."""

import pytest

from repro.common.errors import ConfigurationError
from repro.perpetual.group import Topology
from repro.scenario.sim import SimRuntime
from repro.scenario.spec import ScenarioBuilder


def deploy(*services: tuple[str, int]) -> SimRuntime:
    builder = ScenarioBuilder("declared")
    for name, n in services:
        builder.service(name, n=n, app="echo")
    return SimRuntime().deploy(builder.build())


class TestDeclaration:
    def test_declare_then_add(self):
        runtime = deploy(("svc", 4))
        assert runtime._groups["svc"].n == 4
        assert len(runtime._adapters["svc"]) == 4

    def test_add_with_inline_degree(self):
        assert deploy(("svc", 7))._groups["svc"].n == 7

    def test_conflicting_degree_rejected(self):
        # One service, two degrees: a spec names each service once.
        with pytest.raises(ConfigurationError):
            deploy(("svc", 4), ("svc", 7))


class TestTopologyQueries:
    def test_unknown_service_spec_raises(self):
        topology = Topology()
        topology.add("svc", 4)
        with pytest.raises(ConfigurationError):
            topology.spec("ghost")


class TestRun:
    def test_run_bounded_by_time(self):
        spec = ScenarioBuilder("d8").service("svc", n=1, app="echo").build()
        runtime = SimRuntime().deploy(spec)
        runtime.run(until_s=0.5)
        assert runtime.sim.now_us == 500_000

    def test_run_bounded_by_events(self):
        spec = (
            ScenarioBuilder("d9")
            .service("svc", n=4, app="echo")
            .max_events(3)
            .build()
        )
        runtime = SimRuntime().deploy(spec)
        runtime.run()
        assert runtime.sim.events_processed <= 3
