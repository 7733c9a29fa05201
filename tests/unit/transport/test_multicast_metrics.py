"""Regression: the encode-once/digest-once multicast contract.

The seed signed a multicast by re-hashing the full payload once per
receiver, and several call sites re-encoded the message per destination.
These tests pin the fast-path behaviour with the metrics counters: a
multicast to ``n`` receivers performs exactly one canonical encode and
one payload digest, with per-receiver work limited to one short MAC each.
"""

import pytest

from repro.clbft.messages import decode_message
from repro.common.metrics import METRICS
from repro.crypto.keys import KeyStore
from repro.transport.channel import ChannelAdapter
from repro.transport.connection import Connection


class CapturingConnection(Connection):
    def __init__(self):
        self.transmitted = []

    def transmit(self, dst, envelope):
        self.transmitted.append((str(dst), envelope))


@pytest.fixture(autouse=True)
def _fresh():
    METRICS.reset()
    yield
    METRICS.reset()


@pytest.fixture
def keys():
    return KeyStore.for_deployment("metrics-test")


def test_multicast_one_encode_one_digest(keys):
    conn = CapturingConnection()
    channel = ChannelAdapter("sender", keys, conn)
    receivers = [f"r{i}" for i in range(5)]
    METRICS.reset()
    channel.multicast(receivers, {"op": "commit", "seqno": 42})
    assert METRICS.encode_calls == 1
    assert METRICS.digest_calls == 1
    # One short-input MAC per receiver, derived from the single digest.
    assert METRICS.mac_computations == len(receivers)
    assert len(conn.transmitted) == len(receivers)
    # Every receiver gets the same envelope object (signed once).
    assert len({id(e) for _, e in conn.transmitted}) == 1


def test_multicast_with_fused_codec_still_one_encode(keys):
    conn = CapturingConnection()
    channel = ChannelAdapter(
        "sender", keys, conn, decode=decode_message
    )
    METRICS.reset()
    channel.multicast(["a", "b", "c"], {"payload": (1, 2, b"x")})
    assert METRICS.encode_calls == 1
    assert METRICS.digest_calls == 1
    assert METRICS.mac_computations == 3


def test_each_receiver_verifies_and_decodes_shared_envelope(keys):
    conn = CapturingConnection()
    sender = ChannelAdapter("sender", keys, conn)
    receivers = ["a", "b", "c"]
    sender.multicast(receivers, {"n": 1})
    _, envelope = conn.transmitted[0]
    for name in receivers:
        receiver = ChannelAdapter(name, keys, CapturingConnection())
        assert receiver.accept(envelope) == {"n": 1}
    # Decode is memoized on the envelope: one decode serves all receivers,
    # but every receiver still verified its own MAC entry.
    assert METRICS.mac_verifications == len(receivers)


def test_multicast_to_signs_for_audience_sends_to_recipients(keys):
    conn = CapturingConnection()
    channel = ChannelAdapter("sender", keys, conn)
    METRICS.reset()
    channel.multicast_to(["a", "b", "c", "d"], ["a"], {"req": 1})
    assert METRICS.encode_calls == 1
    assert METRICS.mac_computations == 4  # authenticated for all four
    assert len(conn.transmitted) == 1  # transmitted to one
    _, envelope = conn.transmitted[0]
    for name in ("a", "b", "c", "d"):
        receiver = ChannelAdapter(name, keys, CapturingConnection())
        assert receiver.accept(envelope) == {"req": 1}
