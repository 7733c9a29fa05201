"""Integration: faulty responder handling (Figure 1 stages 5-6).

The responder is a single target voter, so a faulty one can swallow reply
bundles. The caller's retransmission path rotates the designated
responder deterministically, so any correct target voter eventually
serves the bundle — liveness without weakening the ft+1 voucher check.
"""

from repro.scenario.sim import Deployment
from repro.sim.network import FaultyLink, LanModel
from tests.integration.helpers import counter_service, scripted_caller


def test_mute_responder_routed_around():
    network = FaultyLink(LanModel())
    # Target voter 1 never talks to any calling driver: every bundle it
    # should send as responder is lost.
    for d in range(4):
        network.add_rule("target/v1", f"caller/d{d}", drop=1.0)
    deployment = Deployment(name="mute-responder", network=network)
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service("target", counter_service())
    results = []
    caller = deployment.add_service(
        "caller", scripted_caller("target", 4, results)
    )
    deployment.run(seconds=240)
    # Requests whose responder rotation starts at voter 1 recover via
    # retries; all calls complete, exactly once.
    assert caller.group.drivers[0].completed_calls == 4
    from collections import Counter

    counts = Counter(r["counter"] for r in results)
    assert counts == {k: 4 for k in range(1, 5)}


def test_responder_cannot_forge_results():
    """A responder can only bundle replies carrying valid voter MACs: a
    bundle with vouchers below ft+1 (or with tampered results) never
    reaches the application."""
    from repro.common.ids import RequestId, ServiceId
    from repro.clbft.messages import decode_message, encode_message
    from repro.perpetual.messages import ReplyBundle
    from repro.transport.channel import ChannelAdapter
    from repro.transport.connection import SimConnection

    deployment = Deployment(name="forge-bundle")
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service("target", counter_service())
    results = []
    caller = deployment.add_service(
        "caller", scripted_caller("target", 1, results)
    )
    deployment.run(seconds=30)
    completed = caller.group.drivers[0].completed_calls
    assert completed == 1

    # A faulty target voter fabricates a bundle for a request id the
    # caller has outstanding=none; and even for outstanding ids the
    # voucher check requires ft+1 valid MACs, which it cannot mint alone.
    forged = ReplyBundle(
        request_id=RequestId(ServiceId("caller"), 2),
        result=b"<forged/>",
        vouchers=((1, ["target/v1", [["caller/d0", b"f" * 16]]]),),
    )
    env = deployment.sim.env("target/v1")
    assert decode_message(encode_message(forged)) == forged
    channel = ChannelAdapter(
        me="target/v1",
        keys=deployment.keys,
        connection=SimConnection(env),
        encode=encode_message,
        decode=decode_message,
    )
    channel.send("caller/d0", forged)
    deployment.run(seconds=30)
    assert caller.group.drivers[0].completed_calls == 1  # nothing new
    assert caller.group.drivers[0].aborted_calls == 0
