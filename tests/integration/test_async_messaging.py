"""Integration: fully asynchronous communication (Figure 2 row 4).

The caller issues parallel requests without blocking; the target starts
serving new requests while earlier ones are still awaiting its own
out-calls. Both sides stay consistent across replicas.
"""

from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler
from tests.integration.helpers import counter_service


def test_parallel_requests_complete_out_of_lockstep():
    deployment = Deployment(name="async-win")
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service("target", counter_service())
    received = []

    def window_caller():
        mids = []
        for i in range(6):
            mid = yield MessageHandler.send(
                MessageContext(to="target", body={"i": i})
            )
            mids.append(mid)
        for _ in mids:
            reply = yield MessageHandler.receive_reply()
            received.append(reply.body["counter"])

    caller = deployment.add_service("caller", window_caller)
    deployment.run(seconds=60)
    assert caller.group.drivers[0].completed_calls == 6
    # All 6 arrived on every replica: each counter value appears 4 times.
    from collections import Counter

    assert Counter(received) == {k: 4 for k in range(1, 7)}


def test_specific_reply_receives_out_of_order():
    deployment = Deployment(name="async-specific")
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service("target", counter_service())
    order = []

    def caller_app():
        first = MessageContext(to="target", body={"tag": "first"})
        second = MessageContext(to="target", body={"tag": "second"})
        yield MessageHandler.send(first)
        yield MessageHandler.send(second)
        # Consume in reverse issue order.
        reply2 = yield MessageHandler.receive_reply(second)
        order.append(("second", reply2.body["counter"]))
        reply1 = yield MessageHandler.receive_reply(first)
        order.append(("first", reply1.body["counter"]))

    deployment.add_service("caller", caller_app)
    deployment.run(seconds=60)
    assert len(order) == 8  # 2 per replica
    assert order[0][0] == "second"


def test_target_serves_while_its_out_call_is_in_flight():
    """Three-tier async: the middle tier keeps serving new front requests
    while its back-tier call is outstanding (the paper's long-running /
    async model; impossible in a blocking middleware)."""
    deployment = Deployment(name="async-middle")
    deployment.declare("front", 1)
    deployment.declare("middle", 4)
    deployment.declare("back", 4)
    deployment.add_service("back", counter_service())
    middle_log = []

    def middle_app():
        pending = {}
        while True:
            event = yield MessageHandler.receive_any()
            if event.kind == "reply":
                original = pending.pop(event.relates_to)
                middle_log.append("reply")
                yield MessageHandler.send_reply(
                    MessageContext(body={"via": "back",
                                         "c": event.body["counter"]}),
                    original,
                )
            else:
                body = event.body or {}
                if body.get("fast"):
                    middle_log.append("fast")
                    yield MessageHandler.send_reply(
                        MessageContext(body={"via": "middle"}), event
                    )
                else:
                    middle_log.append("slow-start")
                    mid = yield MessageHandler.send(
                        MessageContext(to="back", body={})
                    )
                    pending[mid] = event

    deployment.add_service("middle", middle_app)
    outcomes = []

    def front_app():
        slow = MessageContext(to="middle", body={"fast": False})
        fast = MessageContext(to="middle", body={"fast": True})
        yield MessageHandler.send(slow)
        yield MessageHandler.send(fast)
        fast_reply = yield MessageHandler.receive_reply(fast)
        outcomes.append(fast_reply.body)
        slow_reply = yield MessageHandler.receive_reply(slow)
        outcomes.append(slow_reply.body)

    deployment.add_service("front", front_app)
    deployment.run(seconds=60)
    assert outcomes == [{"via": "middle"}, {"via": "back", "c": 1}]
    # Replica 0's middle log shows the fast request served between the
    # slow request's start and its completion.
    replica0 = middle_log[: len(middle_log) // 4] if middle_log else []
    assert "slow-start" in middle_log and "fast" in middle_log
    first_slow = middle_log.index("slow-start")
    first_fast = middle_log.index("fast")
    first_reply = middle_log.index("reply")
    assert first_slow < first_fast < first_reply
