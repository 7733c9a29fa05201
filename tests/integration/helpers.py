"""Shared helpers for integration tests: small deployable apps."""

from __future__ import annotations

from repro.scenario.sim import Deployment
from repro.ws.api import MessageContext, MessageHandler, Options


def counter_service():
    """Stateful increment service (the paper's null-op target)."""

    def app():
        counter = 0
        while True:
            request = yield MessageHandler.receive_request()
            counter += 1
            yield MessageHandler.send_reply(
                MessageContext(body={"counter": counter}), request
            )

    return app


def scripted_caller(target: str, calls: int, results: list,
                    timeout_ms: int | None = None):
    """Synchronous caller appending every reply body (or fault marker)."""

    def app():
        for i in range(calls):
            reply = yield MessageHandler.send_receive(
                MessageContext(
                    to=target,
                    body={"seq": i},
                    options=Options(timeout_ms=timeout_ms),
                )
            )
            results.append("FAULT" if reply.is_fault else reply.body)

    return app


def build_two_tier(nc: int, nt: int, calls: int = 5, name: str = "it",
                   timeout_ms: int | None = None):
    """Standard two-tier deployment; returns (deployment, results, caller)."""
    deployment = Deployment(name=name)
    deployment.declare("caller", nc)
    deployment.declare("target", nt)
    target = deployment.add_service("target", counter_service())
    results: list = []
    caller = deployment.add_service(
        "caller", scripted_caller("target", calls, results, timeout_ms)
    )
    return deployment, results, caller, target


def drivers_done(service, calls: int) -> bool:
    return all(
        d.completed_calls + d.aborted_calls >= calls
        for d in service.group.drivers
    )
