"""Integration: faulty responder handling (Figure 1 stages 5-6).

The responder is a single target voter, so a faulty one can swallow reply
bundles. The caller's retransmission path rotates the designated
responder deterministically, so any correct target voter eventually
serves the bundle — liveness without weakening the ft+1 voucher check.
"""

from collections import Counter

from repro.common.ids import RequestId, ServiceId
from repro.perpetual.messages import ReplyBundle
from tests.integration.scripted import inject, replies, run_sim, two_tier


def test_mute_responder_routed_around():
    spec = two_tier(4, 4, calls=4, name="mute-responder")
    # Target voter 1 never talks to any calling driver: every bundle it
    # should send as responder is lost.
    for d in range(4):
        spec.link_fault("target/v1", f"caller/d{d}", drop=1.0)
    runtime = run_sim(spec.build(), until_s=240)
    # Requests whose responder rotation starts at voter 1 recover via
    # retries; all calls complete, exactly once.
    assert runtime._groups["caller"].drivers[0].completed_calls == 4
    counts = Counter(r["counter"] for r in replies(runtime))
    assert counts == {k: 4 for k in range(1, 5)}


def test_responder_cannot_forge_results():
    """A responder can only bundle replies carrying valid voter MACs: a
    bundle with vouchers below ft+1 (or with tampered results) never
    reaches the application."""
    runtime = run_sim(two_tier(4, 4, calls=1, name="forge-bundle").build(),
                      until_s=30)
    driver = runtime._groups["caller"].drivers[0]
    assert driver.completed_calls == 1

    # A faulty target voter fabricates a bundle for a request id the
    # caller has outstanding=none; and even for outstanding ids the
    # voucher check requires ft+1 valid MACs, which it cannot mint alone.
    forged = ReplyBundle(
        request_id=RequestId(ServiceId("caller"), 2),
        result=b"<forged/>",
        vouchers=((1, ["target/v1", [["caller/d0", b"f" * 16]]]),),
    )
    inject(runtime, "target/v1", ["caller/d0"], forged)
    runtime.run(until_s=30)
    assert driver.completed_calls == 1  # nothing new
    assert driver.aborted_calls == 0
