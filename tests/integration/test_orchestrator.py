"""Integration: the SOA orchestrator (long-running active thread).

The Figure 2 "long-running active threads of computation" probe: a
replicated orchestrator drives a saga across three services of different
replication degrees, consults the agreed clock, and compensates failures
deterministically.
"""

from repro.apps.orchestrator import inventory_app, orchestrator_app, shipping_app
from repro.apps.payment import bank_app
from repro.scenario.sim import Deployment

ORDERS = [
    {"order_id": 1, "item": "widget", "qty": 2, "card": "4111",
     "amount_cents": 1_000},
    {"order_id": 2, "item": "widget", "qty": 100, "card": "4222",
     "amount_cents": 2_000},                       # exceeds stock
    {"order_id": 3, "item": "gadget", "qty": 1, "card": "4333",
     "amount_cents": 600_000_00},                   # exceeds card limit
    {"order_id": 4, "item": "gadget", "qty": 1, "card": "4444",
     "amount_cents": 3_000},
]


def build(n_orchestrator=4):
    deployment = Deployment(name="saga")
    deployment.declare("orchestrator", n_orchestrator)
    deployment.declare("inventory", 4)
    deployment.declare("payment", 1)
    deployment.declare("shipping", 1)
    stock = {"widget": 10, "gadget": 1}
    deployment.add_service("inventory", inventory_app(stock))
    deployment.add_service("payment", lambda: bank_app(card_limit_cents=5_000_00))
    deployment.add_service("shipping", shipping_app())
    log = []
    deployment.add_service(
        "orchestrator",
        orchestrator_app(
            ORDERS,
            inventory_endpoint="inventory",
            payment_endpoint="payment",
            shipping_endpoint="shipping",
            log=log,
        ),
    )
    return deployment, log


def test_saga_outcomes():
    deployment, log = build()
    deployment.run(seconds=120)
    # 4 replicas each log 4 sagas (entries interleave across replicas).
    assert len(log) == 16
    outcomes = {oid: out for oid, out, _ in log}
    assert outcomes == {
        1: "shipped",
        2: "no-stock",
        3: "payment-declined",
        4: "shipped",
    }


def test_saga_deterministic_across_replicas():
    deployment, log = build()
    deployment.run(seconds=120)
    # Every (order, outcome, started_at) entry appears exactly once per
    # replica -- i.e. exactly 4 identical copies of 4 distinct entries.
    from collections import Counter

    counts = Counter(log)
    assert len(counts) == 4
    assert all(count == 4 for count in counts.values())


def test_compensation_releases_inventory():
    # Order 3's payment declines; its gadget reservation must be released
    # so order 4 (the only other gadget) can still ship.
    deployment, log = build()
    deployment.run(seconds=120)
    outcomes = {oid: out for oid, out, _ in log}
    assert outcomes[3] == "payment-declined"
    assert outcomes[4] == "shipped"


def test_started_timestamps_agreed():
    deployment, log = build()
    deployment.run(seconds=120)
    starts = {}
    for oid, _, started_at in log:
        starts.setdefault(oid, set()).add(started_at)
    # Each order's agreed start time is identical on every replica.
    assert all(len(values) == 1 for values in starts.values())
