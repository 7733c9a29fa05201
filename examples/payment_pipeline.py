#!/usr/bin/env python3
"""The paper's n-tier scenario: store -> payment gateway -> bank.

Reproduces the Figure 5 chain (minus the RBE farm): an unreplicated
storefront calls a replicated Payment Gateway Emulator, which calls a
replicated issuing bank — different replication degrees interoperating,
with the PGE fully asynchronous (it keeps serving new authorisations
while bank calls are in flight).

The second half crashes a PGE replica to show the pipeline absorbing a
fault within its tolerance.

Run:  python examples/payment_pipeline.py
"""

from repro import MessageContext, MessageHandler, ScenarioBuilder, run_scenario
from repro.scenario import BuiltApp, register_app

PAYMENTS = [
    ("4111-aaaa", 25_000),
    ("4111-bbbb", 60_000),
    ("4111-aaaa", 90_000),   # pushes card aaaa past its limit
    ("4111-cccc", 10_000),
]


@register_app("pipeline_store")
def _build_store(params: dict) -> BuiltApp:
    """The storefront: one authorisation per payment; the probe reports
    each ``(index, outcome)``."""
    outcomes: list = []

    def app():
        for i, (card, cents) in enumerate(PAYMENTS):
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

    return BuiltApp(factory=app, probe=lambda: {"outcomes": outcomes})


def run(crash_pge_replica: bool) -> list:
    builder = (
        ScenarioBuilder("payment-pipeline")
        .service("bank", n=7, app="bank",  # tolerates 2
                 card_limit_cents=100_000)
        .service("pge", n=4, app="pge",    # tolerates 1 Byzantine fault
                 bank_endpoint="bank")
        .service("store", n=1, app="pipeline_store")
        .duration(120)
    )
    if crash_pge_replica:
        builder.crash("pge", 2)
    return run_scenario(builder.build()).services["store"].app["outcomes"]


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
