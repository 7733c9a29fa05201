"""Unit tests for the simulator's imperative Deployment facade.

``Deployment`` lives in :mod:`repro.scenario.sim`; this file stays under
``tests/unit/ws`` because it checks the WS-level surface of the facade
(``replicas.xml`` declaration, registry resolution, adapter-per-replica
deployment), and its test ids are part of the recorded suite floor.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler


def idle_app():
    while True:
        request = yield MessageHandler.receive_request()
        yield MessageHandler.send_reply(MessageContext(body=None), request)


class TestDeclaration:
    def test_declare_then_add(self):
        deployment = Deployment(name="d1")
        deployment.declare("svc", 4)
        deployed = deployment.add_service("svc", idle_app)
        assert deployed.n == 4
        assert len(deployed.adapters) == 4

    def test_add_with_inline_degree(self):
        deployment = Deployment(name="d2")
        deployed = deployment.add_service("svc", idle_app, n=7)
        assert deployed.n == 7

    def test_undeclared_without_degree_rejected(self):
        deployment = Deployment(name="d3")
        with pytest.raises(ConfigurationError):
            deployment.add_service("svc", idle_app)

    def test_conflicting_degree_rejected(self):
        deployment = Deployment(name="d4")
        deployment.declare("svc", 4)
        with pytest.raises(ConfigurationError):
            deployment.add_service("svc", idle_app, n=7)

    def test_declare_from_xml(self):
        deployment = Deployment(name="d5")
        deployment.declare_from_xml(
            """
            <replicas>
              <service name="pge" replicas="4"/>
              <service name="bank" replicas="1"/>
            </replicas>
            """
        )
        assert deployment.topology.spec("pge").n == 4
        assert deployment.registry.resolve("perpetual://bank").n == 1
        pge = deployment.add_service("pge", idle_app)
        assert pge.n == 4


class TestTopologyQueries:
    def test_registry_mirrors_topology(self):
        deployment = Deployment(name="d6")
        deployment.declare("a", 4)
        deployment.declare("b", 1)
        assert deployment.registry.known_services() == ["a", "b"]

    def test_unknown_service_spec_raises(self):
        deployment = Deployment(name="d7")
        with pytest.raises(ConfigurationError):
            deployment.topology.spec("ghost")


class TestRun:
    def test_run_bounded_by_time(self):
        deployment = Deployment(name="d8")
        deployment.declare("svc", 1)
        deployment.add_service("svc", idle_app)
        deployment.run(seconds=0.5)
        assert deployment.now_us == 500_000

    def test_run_bounded_by_events(self):
        deployment = Deployment(name="d9")
        deployment.declare("svc", 4)
        deployment.add_service("svc", idle_app)
        processed = deployment.run(max_events=3)
        assert processed <= 3
