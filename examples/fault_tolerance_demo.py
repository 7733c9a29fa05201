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

Each scenario is the same spec with different ``crash`` faults.

Run:  python examples/fault_tolerance_demo.py
"""

from repro import MessageContext, MessageHandler, ScenarioBuilder, run_scenario
from repro.scenario import BuiltApp, register_app
from repro.ws.api import Options


@register_app("demo_caller")
def _build_caller(params: dict) -> BuiltApp:
    """``calls`` calls to ``target``; the probe reports every outcome."""
    outcomes: list = []
    options = Options(timeout_ms=params.get("timeout_ms"))

    def app():
        for i in range(params["calls"]):
            reply = yield MessageHandler.send_receive(
                MessageContext(to="target", body={"i": i}, options=options)
            )
            outcomes.append("fault" if reply.is_fault else reply.body["counter"])

    return BuiltApp(factory=app, probe=lambda: {"outcomes": outcomes})


def run(crashed: list[int], seconds: float, timeout_ms=None, calls=3):
    """Crash the target replicas ``crashed``; the caller's metrics."""
    builder = (
        ScenarioBuilder("fault-demo")
        .service("target", n=4, app="counter",
                 clbft={"view_change_timeout_us": 150_000})
        .service("caller", n=4, app="demo_caller",
                 calls=calls, timeout_ms=timeout_ms)
        .duration(seconds)
    )
    for index in crashed:
        builder.crash("target", index)
    return run_scenario(builder.build()).services


def main() -> None:
    print("-- scenario 1: one crashed target backup (within f=1)")
    caller = run(crashed=[3], seconds=120)["caller"]
    print(f"   outcomes: {sorted(set(caller.app['outcomes']))}, "
          f"completed={caller.completed_calls}")
    assert caller.completed_calls == 3

    print("-- scenario 2: crashed target PRIMARY (view change inside target)")
    services = run(crashed=[0], seconds=300)
    caller, target = services["caller"], services["target"]
    print(f"   completed={caller.completed_calls}, "
          f"target view changes={target.view_changes}, "
          f"view lag={target.view_lag}")
    assert caller.completed_calls == 3
    # Every live target replica moved past view 0 and into one view.
    assert target.view_changes >= 1 and target.view_lag == 0

    print("-- scenario 3: compromised target, callers abort deterministically")
    caller = run(crashed=[0, 1, 2, 3], seconds=120, timeout_ms=400,
                 calls=2)["caller"]
    outcomes = caller.app["outcomes"]
    print(f"   outcomes across all 4 caller replicas: {outcomes}")
    assert outcomes == ["fault"] * 8
    assert caller.aborted_calls == 2
    print("OK: liveness and replica consistency held in all three scenarios.")


if __name__ == "__main__":
    main()
