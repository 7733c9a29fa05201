"""Unit tests for the executor runtime (the deterministic app model)."""

import itertools

import pytest

from repro.common.errors import ExecutorViolation
from repro.common.ids import RequestId, ServiceId
from repro.perpetual.executor import (
    Compute,
    CurrentTime,
    ExecutorRuntime,
    Random,
    ReceiveAny,
    ReceiveReply,
    ReceiveRequest,
    ReplyEvent,
    RequestEvent,
    Send,
    SendReply,
    Sleep,
    Timestamp,
    run_passive,
)


def make_runtime(app_factory):
    counter = itertools.count(1)
    return ExecutorRuntime(
        app_factory=app_factory,
        allocate_request_id=lambda: RequestId(ServiceId("me"), next(counter)),
    )


def request_event(seqno: int = 1, payload=None):
    return RequestEvent(
        request_id=RequestId(ServiceId("caller"), seqno),
        caller="caller",
        payload=payload if payload is not None else {"n": seqno},
    )


class TestNonBlockingEffects:
    def test_send_resumes_with_request_id(self):
        seen = []

        def app():
            rid = yield Send("target", {"x": 1})
            seen.append(rid)

        runtime = make_runtime(app)
        runtime.step()
        assert seen == [RequestId(ServiceId("me"), 1)]
        outbox = runtime.take_outbox()
        assert len(outbox.sends) == 1
        assert outbox.sends[0][1].payload == {"x": 1}
        assert runtime.finished

    def test_sequential_sends_get_sequential_ids(self):
        ids = []

        def app():
            for _ in range(3):
                ids.append((yield Send("t", {})))

        runtime = make_runtime(app)
        runtime.step()
        assert [r.seqno for r in ids] == [1, 2, 3]

    def test_compute_accumulates(self):
        def app():
            yield Compute(100)
            yield Compute(250)

        runtime = make_runtime(app)
        runtime.step()
        assert runtime.take_outbox().compute_us == 350

    def test_negative_compute_rejected(self):
        def app():
            yield Compute(-1)

        runtime = make_runtime(app)
        with pytest.raises(ExecutorViolation):
            runtime.step()

    def test_send_reply_recorded(self):
        def app():
            event = yield ReceiveRequest()
            yield SendReply(event, {"ok": True})

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_request(request_event())
        runtime.step()
        outbox = runtime.take_outbox()
        assert len(outbox.replies) == 1
        assert outbox.replies[0].payload == {"ok": True}


class TestBlockingReceives:
    def test_receive_request_blocks_until_delivery(self):
        def app():
            event = yield ReceiveRequest()
            yield SendReply(event, event.payload)

        runtime = make_runtime(app)
        runtime.step()
        assert isinstance(runtime.blocked_on, ReceiveRequest)
        runtime.deliver_request(request_event(payload={"v": 7}))
        runtime.step()
        assert runtime.take_outbox().replies[0].payload == {"v": 7}

    def test_receive_specific_reply(self):
        got = []

        def app():
            rid1 = yield Send("t", 1)
            rid2 = yield Send("t", 2)
            got.append((yield ReceiveReply(rid2)))
            got.append((yield ReceiveReply(rid1)))

        runtime = make_runtime(app)
        runtime.step()
        rid1 = RequestId(ServiceId("me"), 1)
        rid2 = RequestId(ServiceId("me"), 2)
        runtime.deliver_reply(ReplyEvent(rid1, payload="one"))
        runtime.step()
        assert got == []  # still blocked on rid2
        runtime.deliver_reply(ReplyEvent(rid2, payload="two"))
        runtime.step()
        assert [e.payload for e in got] == ["two", "one"]

    def test_receive_any_reply_in_agreement_order(self):
        got = []

        def app():
            yield Send("t", 1)
            yield Send("t", 2)
            got.append((yield ReceiveReply()))
            got.append((yield ReceiveReply()))

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("me"), 2), "b"))
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("me"), 1), "a"))
        runtime.step()
        assert [e.payload for e in got] == ["b", "a"]

    def test_reply_for_unknown_request_rejected(self):
        def app():
            yield ReceiveReply(RequestId(ServiceId("me"), 99))

        runtime = make_runtime(app)
        with pytest.raises(ExecutorViolation):
            runtime.step()

    def test_duplicate_reply_delivery_ignored(self):
        got = []

        def app():
            rid = yield Send("t", 1)
            got.append((yield ReceiveReply(rid)))

        runtime = make_runtime(app)
        runtime.step()
        rid = RequestId(ServiceId("me"), 1)
        runtime.deliver_reply(ReplyEvent(rid, "first"))
        runtime.deliver_reply(ReplyEvent(rid, "second"))
        runtime.step()
        assert [e.payload for e in got] == ["first"]

    def test_duplicate_after_claim_ignored(self):
        got = []

        def app():
            rid = yield Send("t", 1)
            got.append((yield ReceiveReply(rid)))
            got.append((yield ReceiveAny()))

        runtime = make_runtime(app)
        runtime.step()
        rid = RequestId(ServiceId("me"), 1)
        runtime.deliver_reply(ReplyEvent(rid, "first"))
        runtime.step()
        runtime.deliver_reply(ReplyEvent(rid, "late copy"))
        runtime.step()
        assert [e.payload for e in got] == ["first"]

    def test_reply_for_request_never_sent_dropped(self):
        got = []

        def app():
            yield Send("t", 1)
            got.append((yield ReceiveAny()))

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("me"), 2), "x"))
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("other"), 1), "y"))
        runtime.step()
        assert got == []

    def test_claimed_request_still_counts_as_sent(self):
        got = []

        def app():
            rid = yield Send("t", 1)
            got.append((yield ReceiveReply(rid)))
            got.append((yield ReceiveReply(rid)))

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("me"), 1), "r"))
        runtime.step()  # the second wait blocks; it does not raise
        assert [e.payload for e in got] == ["r"]
        assert not runtime.finished

    @pytest.mark.parametrize("claim", ["by_id", "any"])
    def test_call_state_bounded_by_window(self, claim):
        calls, window = 500, 10

        def app():
            issued = []
            for _ in range(window):
                issued.append((yield Send("t", 0)))
            for _ in range(calls):
                if claim == "by_id":
                    yield ReceiveReply(issued.pop(0))
                else:
                    yield ReceiveAny()
                issued.append((yield Send("t", 0)))

        runtime = make_runtime(app)
        in_flight = []
        for _ in range(calls):
            runtime.step()
            in_flight += [rid for rid, _ in runtime.take_outbox().sends]
            # Replies land newest first, each delivered twice.
            rid = in_flight.pop()
            runtime.deliver_reply(ReplyEvent(rid, "r"))
            runtime.deliver_reply(ReplyEvent(rid, "dup"))
            assert len(runtime._open) <= window
        runtime.step()
        assert len(runtime._open) == window
        assert len(runtime._events) == 0

    def test_receive_any_interleaves_requests_and_replies(self):
        log = []

        def app():
            yield Send("t", 1)
            for _ in range(2):
                event = yield ReceiveAny()
                log.append(type(event).__name__)

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_request(request_event())
        runtime.deliver_reply(ReplyEvent(RequestId(ServiceId("me"), 1), "r"))
        runtime.step()
        assert log == ["RequestEvent", "ReplyEvent"]

    def test_aborted_reply_flag_visible(self):
        got = []

        def app():
            rid = yield Send("t", 1, timeout_ms=50)
            got.append((yield ReceiveReply(rid)))

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_reply(
            ReplyEvent(RequestId(ServiceId("me"), 1), None, aborted=True)
        )
        runtime.step()
        assert got[0].aborted


class TestUtilities:
    @pytest.mark.parametrize(
        "effect,utility", [(CurrentTime(), "time"), (Timestamp(), "timestamp")]
    )
    def test_time_utilities(self, effect, utility):
        got = []

        def app():
            got.append((yield effect))

        runtime = make_runtime(app)
        runtime.step()
        assert runtime.take_outbox().utility == utility
        runtime.deliver_utility(utility, 123456)
        runtime.step()
        assert got == [123456]

    def test_random_returns_seeded_rng(self):
        got = []

        def app():
            got.append((yield Random()))

        runtime = make_runtime(app)
        runtime.step()
        assert runtime.take_outbox().utility == "random"
        runtime.deliver_utility("random", 42)
        runtime.step()
        import random as stdlib_random

        assert got[0].random() == stdlib_random.Random(42).random()

    def test_utility_requested_only_once(self):
        def app():
            yield CurrentTime()

        runtime = make_runtime(app)
        runtime.step()
        assert runtime.take_outbox().utility == "time"
        runtime.step()  # extra step before the value arrives
        assert runtime.take_outbox().utility is None

    def test_mismatched_utility_kind_rejected(self):
        def app():
            yield CurrentTime()

        runtime = make_runtime(app)
        runtime.step()
        runtime.deliver_utility("random", 1)
        with pytest.raises(ExecutorViolation):
            runtime.step()


class TestSleep:
    def test_sleep_blocks_until_wakeup(self):
        woke = []

        def app():
            yield Sleep(5_000)
            woke.append(True)

        runtime = make_runtime(app)
        runtime.step()
        assert runtime.take_outbox().sleep_us == 5_000
        assert not woke
        runtime.deliver_wakeup()
        runtime.step()
        assert woke == [True]

    def test_sleep_requested_once(self):
        def app():
            yield Sleep(1_000)

        runtime = make_runtime(app)
        runtime.step()
        runtime.take_outbox()
        runtime.step()
        assert runtime.take_outbox().sleep_us is None


class TestDeterminism:
    def test_identical_event_sequences_identical_behaviour(self):
        def make_app(log):
            def app():
                while True:
                    event = yield ReceiveAny()
                    if isinstance(event, RequestEvent):
                        rid = yield Send("t", event.payload)
                        log.append(("sent", rid.seqno))
                        yield SendReply(event, {"ok": True})
                    else:
                        log.append(("reply", event.payload))

            return app

        logs = ([], [])
        runtimes = [make_runtime(make_app(log)) for log in logs]
        events = [
            request_event(1, {"a": 1}),
            request_event(2, {"a": 2}),
        ]
        for runtime in runtimes:
            runtime.step()
            for event in events:
                runtime.deliver_request(event)
                runtime.step()
            runtime.deliver_reply(
                ReplyEvent(RequestId(ServiceId("me"), 1), "done")
            )
            runtime.step()
        assert logs[0] == logs[1]


class TestRunPassive:
    def test_passive_handler_loop(self):
        def handler(event):
            return {"echo": event.payload}

        runtime = make_runtime(run_passive(handler))
        runtime.step()
        runtime.deliver_request(request_event(payload="hi"))
        runtime.step()
        replies = runtime.take_outbox().replies
        assert replies[0].payload == {"echo": "hi"}
        assert not runtime.finished  # endless service loop

    def test_non_effect_yield_rejected(self):
        def app():
            yield "not an effect"

        runtime = make_runtime(app)
        with pytest.raises(ExecutorViolation):
            runtime.step()
