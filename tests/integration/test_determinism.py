"""Integration: whole-system determinism.

The simulator plus the deterministic application model make entire
multi-tier runs reproducible: identical configuration -> identical event
counts, timings, and application outcomes. This is what makes the
benchmark figures stable and the fault tests meaningful.
"""

from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler, Utils


def build_and_run(name: str):
    deployment = Deployment(name=name)
    deployment.declare("caller", 4)
    deployment.declare("target", 4)

    def target_app():
        total = 0
        while True:
            request = yield MessageHandler.receive_request()
            total += request.body.get("x", 0)
            yield MessageHandler.send_reply(
                MessageContext(body={"total": total}), request
            )

    deployment.add_service("target", target_app)
    trace = []

    def caller_app():
        rng = yield Utils.random()
        for i in range(5):
            x = rng.randint(0, 100)
            reply = yield MessageHandler.send_receive(
                MessageContext(to="target", body={"x": x})
            )
            trace.append((x, reply.body["total"]))

    deployment.add_service("caller", caller_app)
    deployment.run(seconds=120)
    return deployment, trace


def test_identical_runs_identical_traces():
    d1, t1 = build_and_run("det")
    d2, t2 = build_and_run("det")
    assert t1 == t2
    assert d1.sim.events_processed == d2.sim.events_processed
    assert d1.sim.now_us == d2.sim.now_us


def test_different_deployment_names_differ_only_in_keys():
    # Key material differs but behaviour must not (crypto is opaque).
    __, t1 = build_and_run("det-a")
    __, t2 = build_and_run("det-b")
    assert t1 == t2


def test_agreed_randomness_drives_consistent_totals():
    __, trace = build_and_run("det-rand")
    # 4 replicas x 5 calls; each (x, total) pair appears exactly 4 times.
    from collections import Counter

    counts = Counter(trace)
    assert len(counts) == 5
    assert all(v == 4 for v in counts.values())
    # Totals really accumulate the agreed random xs.
    ordered = sorted(counts, key=lambda pair: pair[1])
    running = 0
    for x, total in ordered:
        running += x
        assert total == running
