"""Integration: deterministic host-specific information (section 4.2).

Replicas on hosts with different clocks must observe identical values
from currentTimeMillis / timestamp / random — the voter group agrees on
the primary's proposal.
"""

import datetime

from repro.perpetual.voter import EPOCH_MS
from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler, Utils


def test_current_time_consistent_across_replicas():
    deployment = Deployment(name="utils-time")
    deployment.declare("svc", 4)
    observed = []

    def app():
        for call_index in range(3):
            now = yield Utils.current_time_millis()
            observed.append((call_index, now))

    deployment.add_service("svc", app)
    deployment.run(seconds=60)
    assert len(observed) == 12  # 3 values x 4 replicas
    by_call: dict[int, set] = {}
    for call_index, value in observed:
        by_call.setdefault(call_index, set()).add(value)
    # Every replica saw the identical value for each call.
    assert all(len(values) == 1 for values in by_call.values())
    values = [next(iter(by_call[i])) for i in range(3)]
    # Monotone non-decreasing and wall-clock-like (epoch offset applied).
    assert values == sorted(values)
    assert all(v >= EPOCH_MS for v in values)


def test_timestamp_returns_agreed_datetime():
    deployment = Deployment(name="utils-ts")
    deployment.declare("svc", 4)
    stamps = []

    def app():
        ts = yield Utils.timestamp()
        stamps.append(ts)

    deployment.add_service("svc", app)
    deployment.run(seconds=60)
    assert len(stamps) == 4
    assert len(set(stamps)) == 1
    assert isinstance(stamps[0], datetime.datetime)


def test_random_seeded_identically():
    deployment = Deployment(name="utils-rand")
    deployment.declare("svc", 4)
    draws = []

    def app():
        rng = yield Utils.random()
        draws.append(tuple(rng.randint(0, 10**9) for _ in range(5)))

    deployment.add_service("svc", app)
    deployment.run(seconds=60)
    assert len(draws) == 4
    assert len(set(draws)) == 1  # identical streams on every replica


def test_utilities_interleave_with_messaging():
    deployment = Deployment(name="utils-mixed")
    deployment.declare("svc", 4)
    deployment.declare("sink", 4)

    def sink_app():
        while True:
            request = yield MessageHandler.receive_request()
            yield MessageHandler.send_reply(
                MessageContext(body={"ok": True}), request
            )

    deployment.add_service("sink", sink_app)
    log = []

    def app():
        t1 = yield Utils.current_time_millis()
        reply = yield MessageHandler.send_receive(
            MessageContext(to="sink", body={})
        )
        t2 = yield Utils.current_time_millis()
        log.append((t1, reply.body["ok"], t2))

    deployment.add_service("svc", app)
    deployment.run(seconds=60)
    assert len(log) == 4
    assert len(set(log)) == 1
    t1, ok, t2 = log[0]
    assert ok is True
    assert t2 >= t1
