"""Integration: the same protocol nodes on real threads.

Substrate independence: voters and drivers built for the simulator run
unchanged on OS threads with racy interleavings, and the protocol still
converges — including under a crashed replica.
"""

import time

import pytest

from repro.crypto.keys import KeyStore
from repro.perpetual.group import Topology, deploy_service
from repro.runtime.cluster import ThreadedCluster
from repro.ws.adapter import WsAdapter
from repro.ws.api import MessageContext, MessageHandler


def make_ws_factory(service, app):
    def factory():
        return WsAdapter(service=service, app_factory=app).executor_app()()

    return factory


def counter_app():
    counter = 0
    while True:
        request = yield MessageHandler.receive_request()
        counter += 1
        yield MessageHandler.send_reply(
            MessageContext(body={"counter": counter}), request
        )


def wait_for(predicate, timeout_s=30.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def cluster():
    c = ThreadedCluster()
    yield c
    c.shutdown()


def test_two_tier_on_threads(cluster):
    topology = Topology()
    topology.add("caller", 4)
    topology.add("target", 4)
    keys = KeyStore.for_deployment("threads-1")

    def caller_app():
        for i in range(5):
            yield MessageHandler.send_receive(
                MessageContext(to="target", body={"i": i})
            )

    deploy_service(
        cluster, topology, keys, "target", make_ws_factory("target", counter_app)
    )
    callers = deploy_service(
        cluster, topology, keys, "caller", make_ws_factory("caller", caller_app)
    )
    cluster.start()
    assert wait_for(
        lambda: all(d.completed_calls >= 5 for d in callers.drivers)
    )
    assert cluster.errors() == []


def test_crashed_backup_tolerated_on_threads(cluster):
    topology = Topology()
    topology.add("caller", 1)
    topology.add("target", 4)
    keys = KeyStore.for_deployment("threads-2")

    def caller_app():
        for i in range(3):
            yield MessageHandler.send_receive(
                MessageContext(to="target", body={"i": i})
            )

    deploy_service(
        cluster, topology, keys, "target", make_ws_factory("target", counter_app)
    )
    callers = deploy_service(
        cluster, topology, keys, "caller", make_ws_factory("caller", caller_app)
    )
    # Crash one target replica (within f=1) before any traffic.
    cluster.drop_node("target/v2")
    cluster.drop_node("target/d2")
    cluster.start()
    assert wait_for(
        lambda: callers.drivers[0].completed_calls >= 3, timeout_s=45.0
    )
    assert cluster.errors() == []
