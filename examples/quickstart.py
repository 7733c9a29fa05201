#!/usr/bin/env python3
"""Quickstart: a Byzantine fault-tolerant web service in ~40 lines.

Deploys a 4-replica counter service (tolerating 1 Byzantine fault) and a
4-replica caller, exchanges a few requests, and shows that every replica
observed the identical state — all on the deterministic simulator, no
network or containers required.

Run:  python examples/quickstart.py
"""

from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler


def counter_service():
    """The target: the paper's `increment` micro-benchmark operation."""
    counter = 0
    while True:
        request = yield MessageHandler.receive_request()
        old = counter
        counter += 1
        reply = MessageContext(body={"old": old, "new": counter})
        yield MessageHandler.send_reply(reply, request)


def make_caller(observed):
    """The caller: five synchronous increments."""

    def app():
        for i in range(5):
            reply = yield MessageHandler.send_receive(
                MessageContext(to="counter", body={"call": i})
            )
            observed.append(reply.body["new"])

    return app


def main() -> None:
    deployment = Deployment(name="quickstart")
    deployment.declare("counter", 4)  # 3f+1 with f=1
    deployment.declare("caller", 4)

    deployment.add_service("counter", counter_service)
    observed: list[int] = []
    caller = deployment.add_service("caller", make_caller(observed))

    deployment.run(seconds=30)

    print("completed calls (replica 0):", caller.group.drivers[0].completed_calls)
    print("counter values seen, across all 4 caller replicas:", sorted(observed))
    per_value = {v: observed.count(v) for v in set(observed)}
    print("each value observed once per replica:", per_value)
    assert per_value == {1: 4, 2: 4, 3: 4, 4: 4, 5: 4}
    print("OK: all replicas agreed on every reply.")


if __name__ == "__main__":
    main()
