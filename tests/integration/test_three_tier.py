"""Integration: the n-tier chain of Figure 5 (store -> PGE -> bank).

Replicated-to-replicated-to-replicated: every tier at n=4 with both sync
and async PGE variants, checking end-to-end business outcomes and replica
consistency at every tier.
"""

import pytest

from repro.scenario.apps import BuiltApp, register_app
from repro.scenario.spec import ScenarioBuilder
from repro.ws.api import MessageContext, MessageHandler
from tests.integration.scripted import run_sim


@register_app("test_store")
def _build_store(params: dict) -> BuiltApp:
    """``payments`` payments through ``pge``; the probe's ``outcomes``
    holds each approval, or ``"FAULT"``."""
    payments = params["payments"]
    outcomes = []

    def app():
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

    return BuiltApp(factory=app, probe=lambda: {"outcomes": outcomes})


def run_chain(n_store=1, n_pge=4, n_bank=4, synchronous=False, payments=4):
    spec = (
        ScenarioBuilder(f"chain-{synchronous}")
        .service("bank", n=n_bank, app="bank")
        .service("pge", n=n_pge, app="pge", bank_endpoint="bank",
                 synchronous=synchronous)
        .service("store", n=n_store, app="test_store", payments=payments)
        .build()
    )
    return run_sim(spec, until_s=120)


def store_outcomes(runtime) -> list:
    return runtime.metrics().services["store"].app["outcomes"]


@pytest.mark.parametrize("synchronous", [False, True])
def test_payments_flow_through_both_tiers(synchronous):
    runtime = run_chain(synchronous=synchronous)
    assert runtime._groups["store"].drivers[0].completed_calls == 4
    assert store_outcomes(runtime) == [True, True, True, True]


def test_replicated_store_chain():
    runtime = run_chain(n_store=4, payments=3)
    assert runtime._groups["store"].drivers[0].completed_calls == 3
    outcomes = store_outcomes(runtime)
    assert len(outcomes) == 12
    assert all(o is True for o in outcomes)


def test_gateway_volume_consistent_across_pge_replicas():
    runtime = run_chain(payments=5)
    served = {adapter.requests_served for adapter in runtime._adapters["pge"]}
    assert served == {5}


def test_mixed_degrees_along_chain():
    spec = (
        ScenarioBuilder("mixed-chain")
        .service("bank", n=4, app="bank")
        .service("pge", n=7, app="pge")
        .service("store", n=1, app="test_store", payments=1)
        .build()
    )
    assert store_outcomes(run_sim(spec, until_s=120)) == [True]
