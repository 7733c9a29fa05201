"""The scripted caller app kind and the forged-message injector.

Integration tests deploy a :class:`~repro.scenario.spec.ScenarioSpec` on
:class:`~repro.scenario.sim.SimRuntime`, like every other entry point.
An application only tests need registers as an app kind through
:func:`repro.scenario.apps.register_app`; importing this module registers
:data:`SCRIPTED_CALLER`. Its probe returns the reply bodies every caller
replica received, in arrival order.

:func:`inject` is the one way a test forges traffic: it posts a message
MAC'd with a principal's keys straight onto the simulated network, which
is what a faulty principal holding those keys could send.
"""

from __future__ import annotations

import pytest

from repro.clbft.messages import decode_message, encode_message
from repro.common.errors import ProtocolError
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.scenario.apps import BuiltApp, register_app
from repro.scenario.sim import SimRuntime
from repro.scenario.spec import ScenarioBuilder
from repro.transport.wire import WireEnvelope
from repro.ws.api import MessageContext, MessageHandler, Options

SCRIPTED_CALLER = "test_scripted_caller"


@register_app(SCRIPTED_CALLER)
def _build_scripted_caller(params: dict) -> BuiltApp:
    """``calls`` synchronous calls to ``target``; the probe's ``replies``
    holds every reply body, or ``"FAULT"`` for a fault."""
    target, calls = params["target"], params["calls"]
    options = Options(timeout_ms=params.get("timeout_ms"))
    replies: list = []

    def app():
        for i in range(calls):
            reply = yield MessageHandler.send_receive(
                MessageContext(to=target, body={"seq": i}, options=options)
            )
            replies.append("FAULT" if reply.is_fault else reply.body)

    return BuiltApp(factory=app, probe=lambda: {"replies": replies})


def two_tier(nc: int, nt: int, calls: int = 5, name: str = "it",
             timeout_ms: int | None = None,
             target_clbft: dict | None = None) -> ScenarioBuilder:
    """A ``counter`` target of ``nt`` replicas and a scripted caller of
    ``nc``; the builder is returned so a test can add its faults."""
    return (
        ScenarioBuilder(name)
        .service("target", n=nt, app="counter", clbft=target_clbft)
        .service("caller", n=nc, app=SCRIPTED_CALLER, target="target",
                 calls=calls, timeout_ms=timeout_ms)
    )


def run_sim(spec, until_s: float) -> SimRuntime:
    """Deploy ``spec`` on the simulator and run it for ``until_s``."""
    runtime = SimRuntime().deploy(spec)
    runtime.run(until_s=until_s)
    return runtime


def replies(runtime: SimRuntime, service: str = "caller") -> list:
    """The scripted caller's reply bodies, across all its replicas."""
    return runtime.metrics().services[service].app["replies"]


def inject(runtime: SimRuntime, sender: str, receivers: list[str], message,
           keys: KeyStore | None = None,
           refused_by_codec: bool = False) -> None:
    """Post ``message`` from ``sender`` to each of ``receivers``.

    It is MAC'd with ``sender``'s keys from ``keys``; the default is the
    runtime's own store (the same deployment name gives the same keys),
    so the forgery is what a faulty ``sender`` could send. An outsider
    test passes a store of its own. The encoded bytes must decode back
    to ``message`` — or, with ``refused_by_codec``, the codec must
    refuse them.
    """
    payload = encode_message(message)
    if refused_by_codec:
        with pytest.raises(ProtocolError):
            decode_message(payload)
    else:
        assert decode_message(payload) == message
    if keys is None:
        keys = KeyStore.for_deployment(runtime._spec.name)
    auth = AuthenticatorFactory(keys, sender).sign(payload, receivers)
    envelope = WireEnvelope(payload=payload, auth=auth)
    for receiver in receivers:
        runtime.sim.post_message(sender, receiver, envelope, 512)
