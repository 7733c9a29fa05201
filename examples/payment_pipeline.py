#!/usr/bin/env python3
"""The paper's n-tier scenario: store -> payment gateway -> bank.

Reproduces the Figure 5 chain (minus the RBE farm): an unreplicated
storefront calls a replicated Payment Gateway Emulator, which calls a
replicated issuing bank — different replication degrees interoperating,
with the PGE fully asynchronous (it keeps serving new authorisations
while bank calls are in flight).

The second half crashes a PGE replica mid-run to show the pipeline
absorbing a fault within its tolerance.

Run:  python examples/payment_pipeline.py
"""

from repro.apps.payment import bank_app, pge_app
from repro.scenario.sim import Deployment
from repro.sim.network import LanModel, PartitionModel
from repro.ws.api import MessageContext, MessageHandler


def make_store(outcomes, payments):
    def app():
        for i, (card, cents) in enumerate(payments):
            reply = yield MessageHandler.send_receive(
                MessageContext(
                    to="pge", body={"card": card, "amount_cents": cents}
                )
            )
            if reply.is_fault:
                outcomes.append((i, "fault"))
            else:
                outcomes.append(
                    (i, "approved" if reply.body["approved"] else "declined")
                )

    return app


def run(crash_pge_replica: bool) -> list:
    network = PartitionModel(LanModel())
    deployment = Deployment(name="payment-pipeline", network=network)
    deployment.declare("store", 1)
    deployment.declare("pge", 4)   # tolerates 1 Byzantine fault
    deployment.declare("bank", 7)  # tolerates 2

    deployment.add_service("bank", lambda: bank_app(card_limit_cents=100_000))
    deployment.add_service("pge", pge_app(bank_endpoint="bank"))

    payments = [
        ("4111-aaaa", 25_000),
        ("4111-bbbb", 60_000),
        ("4111-aaaa", 90_000),   # pushes card aaaa past its limit
        ("4111-cccc", 10_000),
    ]
    outcomes: list = []
    deployment.add_service("store", make_store(outcomes, payments))

    if crash_pge_replica:
        network.kill("pge/v2")
        network.kill("pge/d2")

    deployment.run(seconds=120)
    return outcomes


def main() -> None:
    print("-- healthy run")
    healthy = run(crash_pge_replica=False)
    for i, outcome in healthy:
        print(f"   payment {i}: {outcome}")
    assert [o for _, o in healthy] == [
        "approved", "approved", "declined", "approved",
    ]

    print("-- with one crashed PGE replica (within f=1)")
    degraded = run(crash_pge_replica=True)
    for i, outcome in degraded:
        print(f"   payment {i}: {outcome}")
    assert degraded == healthy, "fault within tolerance must be invisible"
    print("OK: identical business outcomes despite the crashed replica.")


if __name__ == "__main__":
    main()
