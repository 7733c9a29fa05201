#!/usr/bin/env python3
"""Quickstart: a Byzantine fault-tolerant web service in ~50 lines.

Deploys a 4-replica counter service (tolerating 1 Byzantine fault) and a
4-replica caller, exchanges a few requests, and shows that every replica
observed the identical state — all on the deterministic simulator, no
network or containers required.

A service is a generator application registered under an app kind; the
deployment is one declarative scenario naming those kinds.

Run:  python examples/quickstart.py
"""

from repro import MessageContext, MessageHandler, ScenarioBuilder, run_scenario
from repro.scenario import BuiltApp, register_app


def counter_service():
    """The target: the paper's `increment` micro-benchmark operation."""
    counter = 0
    while True:
        request = yield MessageHandler.receive_request()
        old = counter
        counter += 1
        reply = MessageContext(body={"old": old, "new": counter})
        yield MessageHandler.send_reply(reply, request)


@register_app("quickstart_counter")
def _build_counter(params: dict) -> BuiltApp:
    return BuiltApp(factory=counter_service)


@register_app("quickstart_caller")
def _build_caller(params: dict) -> BuiltApp:
    """The caller: five synchronous increments. Its probe reports the
    values every caller replica observed."""
    observed: list[int] = []

    def app():
        for i in range(5):
            reply = yield MessageHandler.send_receive(
                MessageContext(to="counter", body={"call": i})
            )
            observed.append(reply.body["new"])

    return BuiltApp(factory=app, probe=lambda: {"observed": observed})


def main() -> None:
    spec = (
        ScenarioBuilder("quickstart")
        .service("counter", n=4, app="quickstart_counter")  # 3f+1 with f=1
        .service("caller", n=4, app="quickstart_caller")
        .duration(30)
        .build()
    )
    caller = run_scenario(spec).services["caller"]
    observed = caller.app["observed"]

    print("completed calls (replica 0):", caller.completed_calls)
    print("counter values seen, across all 4 caller replicas:", sorted(observed))
    per_value = {v: observed.count(v) for v in set(observed)}
    print("each value observed once per replica:", per_value)
    assert per_value == {1: 4, 2: 4, 3: 4, 4: 4, 5: 4}
    print("OK: all replicas agreed on every reply.")


if __name__ == "__main__":
    main()
