"""Integration: unmodified passive deterministic services (Figure 2 row 8).

A passive service written as a plain request handler runs under
Perpetual-WS via :func:`run_passive` with no Perpetual-specific code —
the paper's "replicate existing passive deterministic Web Services ...
without modification" claim.
"""

from repro.perpetual.executor import run_passive
from repro.soap.envelope import SoapEnvelope
from repro.soap.addressing import WsAddressing
from repro.scenario.sim import Deployment
from tests.integration.helpers import scripted_caller


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


def test_passive_handler_replicated():
    deployment = Deployment(name="passive")
    deployment.declare("legacy", 4)
    deployment.declare("caller", 1)
    deployment.add_raw_service("legacy", lambda: run_passive(passive_adder())())
    results = []
    caller = deployment.add_service(
        "caller", scripted_caller("legacy", calls=4, results=results)
    )
    deployment.run(seconds=60)
    assert caller.group.drivers[0].completed_calls == 4
    assert [r["total"] for r in results] == [0, 1, 3, 6]


def test_passive_handler_state_consistent():
    deployment = Deployment(name="passive2")
    deployment.declare("legacy", 4)
    deployment.declare("caller", 4)
    deployment.add_raw_service("legacy", lambda: run_passive(passive_adder())())
    results = []
    caller = deployment.add_service(
        "caller", scripted_caller("legacy", calls=3, results=results)
    )
    deployment.run(seconds=60)
    # Replicated caller: every replica sees the same totals.
    from collections import Counter

    totals = Counter(r["total"] for r in results)
    assert totals == {0: 4, 1: 4, 3: 4}
