"""Integration: deterministic host-specific information (section 4.2).

Replicas on hosts with different clocks must observe identical values
from currentTimeMillis / timestamp / random — the voter group agrees on
the primary's proposal.
"""

import datetime

from repro.perpetual.voter import EPOCH_MS
from repro.scenario.apps import BuiltApp, register_app
from repro.scenario.spec import ScenarioBuilder
from repro.ws.api import MessageContext, MessageHandler, Utils
from tests.integration.scripted import run_sim


@register_app("test_clock_reader")
def _build_clock_reader(params: dict) -> BuiltApp:
    """Three clock reads, logged as ``(call_index, value)``."""
    observed = []

    def app():
        for call_index in range(3):
            now = yield Utils.current_time_millis()
            observed.append((call_index, now))

    return BuiltApp(factory=app, probe=lambda: {"observed": observed})


@register_app("test_timestamp_reader")
def _build_timestamp_reader(params: dict) -> BuiltApp:
    stamps = []

    def app():
        ts = yield Utils.timestamp()
        stamps.append(ts)

    return BuiltApp(factory=app, probe=lambda: {"stamps": stamps})


@register_app("test_random_reader")
def _build_random_reader(params: dict) -> BuiltApp:
    draws = []

    def app():
        rng = yield Utils.random()
        draws.append(tuple(rng.randint(0, 10**9) for _ in range(5)))

    return BuiltApp(factory=app, probe=lambda: {"draws": draws})


@register_app("test_ok_sink")
def _build_ok_sink(params: dict) -> BuiltApp:
    def app():
        while True:
            request = yield MessageHandler.receive_request()
            yield MessageHandler.send_reply(
                MessageContext(body={"ok": True}), request
            )

    return BuiltApp(factory=app)


@register_app("test_clock_around_call")
def _build_clock_around_call(params: dict) -> BuiltApp:
    """A clock read, a call to ``sink``, another clock read."""
    log = []

    def app():
        t1 = yield Utils.current_time_millis()
        reply = yield MessageHandler.send_receive(
            MessageContext(to="sink", body={})
        )
        t2 = yield Utils.current_time_millis()
        log.append((t1, reply.body["ok"], t2))

    return BuiltApp(factory=app, probe=lambda: {"log": log})


def probe_of(name: str, app: str) -> dict:
    """Run a 4-replica ``svc`` of ``app``; its probe output."""
    spec = ScenarioBuilder(name).service("svc", n=4, app=app).build()
    return run_sim(spec, until_s=60).metrics().services["svc"].app


def test_current_time_consistent_across_replicas():
    observed = probe_of("utils-time", "test_clock_reader")["observed"]
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
    stamps = probe_of("utils-ts", "test_timestamp_reader")["stamps"]
    assert len(stamps) == 4
    assert len(set(stamps)) == 1
    assert isinstance(stamps[0], datetime.datetime)


def test_random_seeded_identically():
    draws = probe_of("utils-rand", "test_random_reader")["draws"]
    assert len(draws) == 4
    assert len(set(draws)) == 1  # identical streams on every replica


def test_utilities_interleave_with_messaging():
    spec = (
        ScenarioBuilder("utils-mixed")
        .service("sink", n=4, app="test_ok_sink")
        .service("svc", n=4, app="test_clock_around_call")
        .build()
    )
    log = run_sim(spec, until_s=60).metrics().services["svc"].app["log"]
    assert len(log) == 4
    assert len(set(log)) == 1
    t1, ok, t2 = log[0]
    assert ok is True
    assert t2 >= t1
