"""Integration: the SOA orchestrator (long-running active thread).

The Figure 2 "long-running active threads of computation" probe: a
replicated orchestrator drives a saga across three services of different
replication degrees, consults the agreed clock, and compensates failures
deterministically.
"""

from collections import Counter

from repro.scenario.spec import ScenarioBuilder
from tests.integration.scripted import run_sim

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


def run_saga(n_orchestrator=4) -> list:
    """Run the saga; one ``(order_id, outcome, started_at)`` entry per
    completed saga and orchestrator replica."""
    spec = (
        ScenarioBuilder("saga")
        .service("inventory", n=4, app="inventory",
                 stock={"widget": 10, "gadget": 1})
        .service("payment", n=1, app="bank", card_limit_cents=5_000_00)
        .service("shipping", n=1, app="shipping")
        .service("orchestrator", n=n_orchestrator, app="orchestrator",
                 orders=ORDERS)
        .build()
    )
    services = run_sim(spec, until_s=120).metrics().services
    return [tuple(entry) for entry in services["orchestrator"].app["sagas"]]


def test_saga_outcomes():
    log = run_saga()
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
    log = run_saga()
    # Every (order, outcome, started_at) entry appears exactly once per
    # replica -- i.e. exactly 4 identical copies of 4 distinct entries.
    counts = Counter(log)
    assert len(counts) == 4
    assert all(count == 4 for count in counts.values())


def test_compensation_releases_inventory():
    # Order 3's payment declines; its gadget reservation must be released
    # so order 4 (the only other gadget) can still ship.
    log = run_saga()
    outcomes = {oid: out for oid, out, _ in log}
    assert outcomes[3] == "payment-declined"
    assert outcomes[4] == "shipped"


def test_started_timestamps_agreed():
    log = run_saga()
    starts = {}
    for oid, _, started_at in log:
        starts.setdefault(oid, set()).add(started_at)
    # Each order's agreed start time is identical on every replica.
    assert all(len(values) == 1 for values in starts.values())
