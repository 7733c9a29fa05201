"""Integration: fully asynchronous communication (Figure 2 row 4).

The caller issues parallel requests without blocking; the target starts
serving new requests while earlier ones are still awaiting its own
out-calls. Both sides stay consistent across replicas.
"""

from collections import Counter

from repro.scenario.apps import BuiltApp, register_app
from repro.scenario.spec import ScenarioBuilder
from repro.ws.api import MessageContext, MessageHandler
from tests.integration.scripted import run_sim


@register_app("test_window_caller")
def _build_window_caller(params: dict) -> BuiltApp:
    """Six sends to ``target`` before the first reply is read."""
    received = []

    def app():
        mids = []
        for i in range(6):
            mid = yield MessageHandler.send(
                MessageContext(to="target", body={"i": i})
            )
            mids.append(mid)
        for _ in mids:
            reply = yield MessageHandler.receive_reply()
            received.append(reply.body["counter"])

    return BuiltApp(factory=app, probe=lambda: {"received": received})


@register_app("test_reverse_receiver")
def _build_reverse_receiver(params: dict) -> BuiltApp:
    """Two sends whose replies are read in reverse issue order."""
    order = []

    def app():
        first = MessageContext(to="target", body={"tag": "first"})
        second = MessageContext(to="target", body={"tag": "second"})
        yield MessageHandler.send(first)
        yield MessageHandler.send(second)
        # Consume in reverse issue order.
        reply2 = yield MessageHandler.receive_reply(second)
        order.append(("second", reply2.body["counter"]))
        reply1 = yield MessageHandler.receive_reply(first)
        order.append(("first", reply1.body["counter"]))

    return BuiltApp(factory=app, probe=lambda: {"order": order})


@register_app("test_middle")
def _build_middle(params: dict) -> BuiltApp:
    """Answers a fast request itself and a slow one after a ``back`` call."""
    log = []

    def app():
        pending = {}
        while True:
            event = yield MessageHandler.receive_any()
            if event.kind == "reply":
                original = pending.pop(event.relates_to)
                log.append("reply")
                yield MessageHandler.send_reply(
                    MessageContext(body={"via": "back",
                                         "c": event.body["counter"]}),
                    original,
                )
            else:
                body = event.body or {}
                if body.get("fast"):
                    log.append("fast")
                    yield MessageHandler.send_reply(
                        MessageContext(body={"via": "middle"}), event
                    )
                else:
                    log.append("slow-start")
                    mid = yield MessageHandler.send(
                        MessageContext(to="back", body={})
                    )
                    pending[mid] = event

    return BuiltApp(factory=app, probe=lambda: {"log": log})


@register_app("test_front")
def _build_front(params: dict) -> BuiltApp:
    """A slow then a fast request to ``middle``; reads the fast reply first."""
    outcomes = []

    def app():
        slow = MessageContext(to="middle", body={"fast": False})
        fast = MessageContext(to="middle", body={"fast": True})
        yield MessageHandler.send(slow)
        yield MessageHandler.send(fast)
        fast_reply = yield MessageHandler.receive_reply(fast)
        outcomes.append(fast_reply.body)
        slow_reply = yield MessageHandler.receive_reply(slow)
        outcomes.append(slow_reply.body)

    return BuiltApp(factory=app, probe=lambda: {"outcomes": outcomes})


def two_tier_with(caller_app: str, name: str):
    spec = (
        ScenarioBuilder(name)
        .service("target", n=4, app="counter")
        .service("caller", n=4, app=caller_app)
        .build()
    )
    return run_sim(spec, until_s=60)


def test_parallel_requests_complete_out_of_lockstep():
    runtime = two_tier_with("test_window_caller", "async-win")
    caller = runtime.metrics().services["caller"]
    assert caller.completed_calls == 6
    # All 6 arrived on every replica: each counter value appears 4 times.
    assert Counter(caller.app["received"]) == {k: 4 for k in range(1, 7)}


def test_specific_reply_receives_out_of_order():
    runtime = two_tier_with("test_reverse_receiver", "async-specific")
    order = runtime.metrics().services["caller"].app["order"]
    assert len(order) == 8  # 2 per replica
    assert order[0][0] == "second"


def test_target_serves_while_its_out_call_is_in_flight():
    """Three-tier async: the middle tier keeps serving new front requests
    while its back-tier call is outstanding (the paper's long-running /
    async model; impossible in a blocking middleware)."""
    spec = (
        ScenarioBuilder("async-middle")
        .service("back", n=4, app="counter")
        .service("middle", n=4, app="test_middle")
        .service("front", n=1, app="test_front")
        .build()
    )
    services = run_sim(spec, until_s=60).metrics().services
    outcomes = services["front"].app["outcomes"]
    middle_log = services["middle"].app["log"]
    assert outcomes == [{"via": "middle"}, {"via": "back", "c": 1}]
    # Replica 0's middle log shows the fast request served between the
    # slow request's start and its completion.
    assert "slow-start" in middle_log and "fast" in middle_log
    first_slow = middle_log.index("slow-start")
    first_fast = middle_log.index("fast")
    first_reply = middle_log.index("reply")
    assert first_slow < first_fast < first_reply
