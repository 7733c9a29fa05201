"""Integration: whole-system determinism.

The simulator plus the deterministic application model make entire
multi-tier runs reproducible: identical configuration -> identical event
counts, timings, and application outcomes. This is what makes the
benchmark figures stable and the fault tests meaningful.
"""

from collections import Counter

from repro.scenario.apps import BuiltApp, register_app
from repro.scenario.spec import ScenarioBuilder
from repro.ws.api import MessageContext, MessageHandler, Utils
from tests.integration.scripted import run_sim


@register_app("test_summing_target")
def _build_summing_target(params: dict) -> BuiltApp:
    """Replies with the running total of every request's ``x``."""

    def app():
        total = 0
        while True:
            request = yield MessageHandler.receive_request()
            total += request.body.get("x", 0)
            yield MessageHandler.send_reply(
                MessageContext(body={"total": total}), request
            )

    return BuiltApp(factory=app)


@register_app("test_random_caller")
def _build_random_caller(params: dict) -> BuiltApp:
    """Five calls carrying agreed random ``x``; the probe's ``trace``
    holds each ``(x, total)``."""
    trace = []

    def app():
        rng = yield Utils.random()
        for i in range(5):
            x = rng.randint(0, 100)
            reply = yield MessageHandler.send_receive(
                MessageContext(to="target", body={"x": x})
            )
            trace.append((x, reply.body["total"]))

    return BuiltApp(factory=app, probe=lambda: {"trace": trace})


def build_and_run(name: str):
    spec = (
        ScenarioBuilder(name)
        .service("target", n=4, app="test_summing_target")
        .service("caller", n=4, app="test_random_caller")
        .build()
    )
    runtime = run_sim(spec, until_s=120)
    return runtime, runtime.metrics().services["caller"].app["trace"]


def test_identical_runs_identical_traces():
    r1, t1 = build_and_run("det")
    r2, t2 = build_and_run("det")
    assert t1 == t2
    assert r1.sim.events_processed == r2.sim.events_processed
    assert r1.sim.now_us == r2.sim.now_us


def test_different_deployment_names_differ_only_in_keys():
    # Key material differs but behaviour must not (crypto is opaque).
    __, t1 = build_and_run("det-a")
    __, t2 = build_and_run("det-b")
    assert t1 == t2


def test_agreed_randomness_drives_consistent_totals():
    __, trace = build_and_run("det-rand")
    # 4 replicas x 5 calls; each (x, total) pair appears exactly 4 times.
    counts = Counter(trace)
    assert len(counts) == 5
    assert all(v == 4 for v in counts.values())
    # Totals really accumulate the agreed random xs.
    ordered = sorted(counts, key=lambda pair: pair[1])
    running = 0
    for x, total in ordered:
        running += x
        assert total == running
