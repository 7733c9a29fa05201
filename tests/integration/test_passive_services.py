"""Integration: unmodified passive deterministic services (Figure 2 row 8).

A passive service written as a plain request handler runs under
Perpetual-WS via :func:`run_passive` with no Perpetual-specific code —
the paper's "replicate existing passive deterministic Web Services ...
without modification" claim.
"""

from collections import Counter

from repro.crypto.keys import KeyStore
from repro.perpetual.executor import run_passive
from repro.perpetual.group import Topology, deploy_service
from repro.scenario.apps import build_app
from repro.scenario.spec import AppSpec
from repro.soap.addressing import WsAddressing
from repro.soap.envelope import SoapEnvelope
from repro.ws.adapter import collecting_executor_factory
from tests.integration.scripted import SCRIPTED_CALLER


def passive_adder():
    """A 'legacy' handler: pure function of the request, no middleware API."""
    state = {"total": 0}

    def handle(event):
        envelope = SoapEnvelope.from_xml(event.payload)
        state["total"] += envelope.body.get("seq", 0)
        reply = SoapEnvelope(body={"total": state["total"]})
        WsAddressing.set_relates_to(
            reply, WsAddressing.message_id(envelope)
        )
        return reply.to_xml()

    return handle


def deploy_passive(sim, name: str, n_caller: int, calls: int):
    """A 4-replica passive ``legacy`` service, deployed at the executor
    level (no SOAP adapter), and a scripted caller; returns the caller's
    group and its built app."""
    topology = Topology()
    topology.add("legacy", 4)
    topology.add("caller", n_caller)
    keys = KeyStore.for_deployment(name)
    deploy_service(
        sim, topology, keys, "legacy",
        lambda: run_passive(passive_adder())(),
    )
    built = build_app(
        AppSpec(SCRIPTED_CALLER, {"target": "legacy", "calls": calls})
    )
    caller = deploy_service(
        sim, topology, keys, "caller",
        collecting_executor_factory("caller", built.factory, []),
    )
    return caller, built


def test_passive_handler_replicated(sim):
    caller, built = deploy_passive(sim, "passive", n_caller=1, calls=4)
    sim.run(until_us=60_000_000)
    assert caller.drivers[0].completed_calls == 4
    assert [r["total"] for r in built.probe()["replies"]] == [0, 1, 3, 6]


def test_passive_handler_state_consistent(sim):
    caller, built = deploy_passive(sim, "passive2", n_caller=4, calls=3)
    sim.run(until_us=60_000_000)
    # Replicated caller: every replica sees the same totals.
    totals = Counter(r["total"] for r in built.probe()["replies"])
    assert totals == {0: 4, 1: 4, 3: 4}
