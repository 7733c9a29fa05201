#!/usr/bin/env python3
"""Fault-tolerance tour: crash faults, a dead primary, and deterministic aborts.

Three scenarios on the same two-tier deployment (4-replica caller,
4-replica target):

1. one crashed target replica — invisible to the caller;
2. a crashed target *primary* — the target's CLBFT view change restores
   liveness and the caller never notices beyond latency;
3. a fully compromised target (all replicas dead, beyond any fault
   bound) — callers with a timeout abort *deterministically*: every
   caller replica raises the same SOAP fault at the same logical point,
   so the calling service stays consistent and live (the paper's fault
   isolation guarantee).

Run:  python examples/fault_tolerance_demo.py
"""

from repro.scenario.sim import Deployment
from repro.sim.network import LanModel, PartitionModel
from repro.ws.api import MessageContext, MessageHandler, Options


def counter_service():
    counter = 0
    while True:
        request = yield MessageHandler.receive_request()
        counter += 1
        yield MessageHandler.send_reply(
            MessageContext(body={"counter": counter}), request
        )


def make_caller(outcomes, calls, timeout_ms=None):
    def app():
        for i in range(calls):
            reply = yield MessageHandler.send_receive(
                MessageContext(
                    to="target",
                    body={"i": i},
                    options=Options(timeout_ms=timeout_ms),
                )
            )
            outcomes.append("fault" if reply.is_fault else reply.body["counter"])

    return app


def build(timeout_ms=None, calls=3):
    network = PartitionModel(LanModel())
    deployment = Deployment(name="fault-demo", network=network)
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service(
        "target",
        counter_service,
        clbft_overrides={"view_change_timeout_us": 150_000},
    )
    outcomes: list = []
    caller = deployment.add_service(
        "caller", make_caller(outcomes, calls, timeout_ms)
    )
    return deployment, network, outcomes, caller


def main() -> None:
    print("-- scenario 1: one crashed target backup (within f=1)")
    deployment, network, outcomes, caller = build()
    network.kill("target/v3")
    network.kill("target/d3")
    deployment.run(seconds=120)
    print(f"   outcomes: {sorted(set(outcomes))}, "
          f"completed={caller.group.drivers[0].completed_calls}")
    assert caller.group.drivers[0].completed_calls == 3

    print("-- scenario 2: crashed target PRIMARY (view change inside target)")
    deployment, network, outcomes, caller = build()
    network.kill("target/v0")
    network.kill("target/d0")
    deployment.run(seconds=300)
    views = {v.replica.view for v in
             deployment.services["target"].group.voters[1:]}
    print(f"   completed={caller.group.drivers[0].completed_calls}, "
          f"target views now {views}")
    assert caller.group.drivers[0].completed_calls == 3
    assert min(views) >= 1

    print("-- scenario 3: compromised target, callers abort deterministically")
    deployment, network, outcomes, caller = build(timeout_ms=400, calls=2)
    for i in range(4):
        network.kill(f"target/v{i}")
        network.kill(f"target/d{i}")
    deployment.run(seconds=120)
    print(f"   outcomes across all 4 caller replicas: {outcomes}")
    assert outcomes == ["fault"] * 8
    assert caller.group.drivers[0].aborted_calls == 2
    print("OK: liveness and replica consistency held in all three scenarios.")


if __name__ == "__main__":
    main()
