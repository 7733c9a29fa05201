"""Integration: the n-tier chain of Figure 5 (store -> PGE -> bank).

Replicated-to-replicated-to-replicated: every tier at n=4 with both sync
and async PGE variants, checking end-to-end business outcomes and replica
consistency at every tier.
"""

import pytest

from repro.apps.payment import bank_app, pge_app
from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler


def build_chain(n_store=1, n_pge=4, n_bank=4, synchronous=False, payments=4):
    deployment = Deployment(name=f"chain-{synchronous}")
    deployment.declare("store", n_store)
    deployment.declare("pge", n_pge)
    deployment.declare("bank", n_bank)
    deployment.add_service("bank", bank_app)
    deployment.add_service(
        "pge", pge_app(bank_endpoint="bank", synchronous=synchronous)
    )
    outcomes = []

    def store_app():
        for i in range(payments):
            reply = yield MessageHandler.send_receive(
                MessageContext(
                    to="pge",
                    body={"card": f"4{i:03d}", "amount_cents": 100 * (i + 1)},
                )
            )
            outcomes.append(
                "FAULT" if reply.is_fault else reply.body["approved"]
            )

    store = deployment.add_service("store", store_app)
    return deployment, outcomes, store


@pytest.mark.parametrize("synchronous", [False, True])
def test_payments_flow_through_both_tiers(synchronous):
    deployment, outcomes, store = build_chain(synchronous=synchronous)
    deployment.run(seconds=120)
    assert store.group.drivers[0].completed_calls == 4
    assert outcomes == [True, True, True, True]


def test_replicated_store_chain():
    deployment, outcomes, store = build_chain(n_store=4, payments=3)
    deployment.run(seconds=120)
    assert store.group.drivers[0].completed_calls == 3
    assert len(outcomes) == 12
    assert all(o is True for o in outcomes)


def test_gateway_volume_consistent_across_pge_replicas():
    deployment, outcomes, store = build_chain(payments=5)
    pge = deployment.services["pge"]
    deployment.run(seconds=120)
    served = {adapter.requests_served for adapter in pge.adapters}
    assert served == {5}


def test_mixed_degrees_along_chain():
    deployment = Deployment(name="mixed-chain")
    deployment.declare("store", 1)
    deployment.declare("pge", 7)
    deployment.declare("bank", 4)
    deployment.add_service("bank", bank_app)
    deployment.add_service("pge", pge_app())
    results = []

    def store_app():
        reply = yield MessageHandler.send_receive(
            MessageContext(to="pge", body={"card": "4", "amount_cents": 5})
        )
        results.append(reply.body["approved"])

    deployment.add_service("store", store_app)
    deployment.run(seconds=120)
    assert results == [True]
