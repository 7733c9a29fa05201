"""Channel-layer batching: one MAC vector per (sender, receiver) batch.

These tests pin the tentpole contract of the batching stage:

- a batch of N messages decodes to exactly the sequence the N unbatched
  envelopes would have produced (property test, random payloads);
- receiving a batch costs ONE MAC verification — not one per message;
- a message alone in every destination's flush leaves as a classic
  shared :class:`WireEnvelope` (batching never pessimises singletons);
- proof-path messages (audience beyond recipients) keep their own
  full-audience authenticator inside the batch;
- a tampered batch is rejected wholesale (every inner message dropped).
"""

import random

import pytest

from repro.common.encoding import canonical_encode, decode_payload
from repro.common.metrics import METRICS
from repro.crypto.keys import KeyStore
from repro.transport.channel import ChannelAdapter
from repro.transport.connection import Connection
from repro.transport.wire import (
    BatchEnvelope,
    WireEnvelope,
    envelope_from_wire,
    envelope_to_wire,
)


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
    return KeyStore.for_deployment("batch-test")


def make_channel(keys, me="alice", batching="off", **kwargs):
    conn = CapturingConnection()
    return ChannelAdapter(me, keys, conn, batching=batching, **kwargs), conn


def random_messages(rng, count):
    return [
        {"op": rng.choice(["ping", "commit", "reply"]),
         "seq": rng.randint(0, 10_000),
         "body": [rng.randint(0, 255) for _ in range(rng.randint(0, 8))]}
        for _ in range(count)
    ]


class TestBatchEqualsUnbatched:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_batch_of_n_decodes_to_same_sequence(self, keys, seed):
        rng = random.Random(seed)
        messages = random_messages(rng, rng.randint(2, 12))

        plain, plain_conn = make_channel(keys, batching="off")
        for msg in messages:
            plain.send("bob", msg)
        receiver = ChannelAdapter("bob", keys, CapturingConnection())
        unbatched = [receiver.accept(env) for _, env in plain_conn.transmitted]

        batched, batched_conn = make_channel(keys, batching="tick")
        for msg in messages:
            batched.send("bob", msg)
        assert batched_conn.transmitted == []  # buffered until flush
        assert batched.pending_count == len(messages)
        batched.flush()
        (dst, batch), = batched_conn.transmitted
        assert dst == "bob"
        assert isinstance(batch, BatchEnvelope)
        receiver2 = ChannelAdapter("bob", keys, CapturingConnection())
        decoded = [msg for _, _, msg in receiver2.open_batch(batch)]

        assert decoded == unbatched == messages

    def test_flush_is_idempotent_and_resets_pending(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.send("bob", {"n": 1})
        channel.flush()
        channel.flush()  # nothing pending: no second transmission
        assert len(conn.transmitted) == 1
        assert channel.pending_count == 0


class TestOneMacPerBatch:
    def test_receive_verifies_once_per_batch(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        for i in range(6):
            channel.send("bob", {"seq": i})
        channel.flush()
        (_, batch), = conn.transmitted
        receiver = ChannelAdapter("bob", keys, CapturingConnection())
        METRICS.reset()
        inner = receiver.open_batch(batch)
        for sender, envelope, msg in inner:
            assert (sender, envelope) == ("alice", None) and msg is not None
        # One verification for the whole batch; the six plain items are
        # vouched for by it and charge no further MAC work.
        assert METRICS.mac_verifications == 1
        assert len(inner) == 6

    def test_send_signs_once_per_batch(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        for i in range(5):
            channel.send("bob", {"seq": i})
        METRICS.reset()
        channel.flush()
        # One single-receiver authenticator for the batch: one digest of
        # the batch frame, one short-input MAC.
        assert METRICS.mac_computations == 1
        assert METRICS.batches_sent == 1
        assert METRICS.batch_messages == 5

    def test_co_resident_receivers_decode_a_plain_item_once(self, keys):
        # Every destination's batch of one multicast shares its plain
        # items, so three receivers in one process decode each once.
        channel, conn = make_channel(keys, batching="tick")
        receivers = ["r0", "r1", "r2"]
        channel.multicast(receivers, {"seq": 0})
        channel.multicast(receivers, {"seq": 1})
        channel.flush()
        decoded = []

        def counting_decode(data):
            decoded.append(data)
            return decode_payload(data)

        for dst, batch in conn.transmitted:
            receiver = ChannelAdapter(dst, keys, CapturingConnection(),
                                      decode=counting_decode)
            opened = [msg for _, _, msg in receiver.open_batch(batch)]
            assert opened == [{"seq": 0}, {"seq": 1}]
        assert len(conn.transmitted) == 3
        assert len(decoded) == 2

    def test_batch_counters_stay_zero_when_off(self, keys):
        channel, _ = make_channel(keys, batching="off")
        for i in range(5):
            channel.send("bob", {"seq": i})
        assert METRICS.batches_sent == 0
        assert METRICS.batch_messages == 0


class TestSingletonAndProofPaths:
    def test_lone_message_flushes_as_classic_envelope(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.send("bob", {"only": 1})
        channel.flush()
        (_, env), = conn.transmitted
        assert isinstance(env, WireEnvelope)
        receiver = ChannelAdapter("bob", keys, CapturingConnection())
        assert receiver.accept(env) == {"only": 1}

    def test_multicast_solo_everywhere_shares_one_envelope(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.multicast(["bob", "carol", "dave"], {"op": "commit"})
        channel.flush()
        assert len(conn.transmitted) == 3
        assert len({id(env) for _, env in conn.transmitted}) == 1
        assert all(isinstance(env, WireEnvelope) for _, env in conn.transmitted)

    def test_proof_path_item_keeps_full_audience_auth(self, keys):
        # Stage-1 shape: signed for three voters, transmitted only to the
        # primary, alongside a second message so the pair batches.
        channel, conn = make_channel(keys, batching="tick")
        channel.multicast_to(["v0", "v1", "v2"], ["v0"], {"op": "out-request"})
        channel.send("v0", {"op": "filler"})
        channel.flush()
        (_, batch), = conn.transmitted
        assert isinstance(batch, BatchEnvelope)
        kinds = [kind for kind, _ in batch.items]
        assert kinds == ["e", "p"]
        embedded = batch.items[0][1]
        # A voter outside the (sender, primary) pair verifies the
        # embedded envelope with its own entry — the proof still works.
        outsider = ChannelAdapter("v2", keys, CapturingConnection())
        assert outsider.accept(embedded) == {"op": "out-request"}

    def test_whole_group_proof_path_item_stays_relayable(self, keys):
        # Stage-1 retransmission shape: signed for and sent to every
        # voter. v0's copy rides a batch; relayed on, it must still
        # verify at the other voters, whose entries the proof carries.
        channel, conn = make_channel(keys, batching="tick")
        voters = ["v0", "v1", "v2"]
        channel.multicast_to(voters, voters, {"op": "out-request"})
        channel.send("v0", {"op": "filler"})
        channel.flush()
        batch = next(env for dst, env in conn.transmitted if dst == "v0")
        assert isinstance(batch, BatchEnvelope)
        assert [kind for kind, _ in batch.items] == ["e", "p"]
        receiver = ChannelAdapter("v0", keys, CapturingConnection())
        _, relayed, _ = receiver.open_batch(batch)[0]
        for name in voters:
            voter = ChannelAdapter(name, keys, CapturingConnection())
            assert voter.accept(relayed) == {"op": "out-request"}

    def test_mixed_batch_preserves_send_order(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.send("v0", {"seq": 0})
        channel.multicast_to(["v0", "v1"], ["v0"], {"seq": 1})
        channel.send("v0", {"seq": 2})
        channel.flush()
        (_, batch), = conn.transmitted
        receiver = ChannelAdapter("v0", keys, CapturingConnection())
        decoded = [msg for _, _, msg in receiver.open_batch(batch)]
        assert decoded == [{"seq": 0}, {"seq": 1}, {"seq": 2}]


class TestBatchSecurity:
    def test_tampered_batch_rejected_wholesale(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        for i in range(4):
            channel.send("bob", {"seq": i})
        channel.flush()
        (_, batch), = conn.transmitted
        forged_payload = canonical_encode({"seq": 999})
        forged = BatchEnvelope(
            items=(("p", forged_payload),) + batch.items[1:],
            auth=batch.auth,
        )
        receiver = ChannelAdapter("bob", keys, CapturingConnection())
        assert receiver.open_batch(forged) == []
        assert receiver.rejected_count == len(forged.items)

    def test_wrong_recipient_rejects_batch(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.send("bob", {"seq": 0})
        channel.send("bob", {"seq": 1})
        channel.flush()
        (_, batch), = conn.transmitted
        eve = ChannelAdapter("eve", keys, CapturingConnection())
        assert eve.open_batch(batch) == []

    def test_batch_wire_roundtrip_crosses_process_framing(self, keys):
        channel, conn = make_channel(keys, batching="tick")
        channel.multicast_to(["v0", "v1"], ["v0"], {"op": "proof"})
        channel.send("v0", {"op": "plain"})
        channel.flush()
        (_, batch), = conn.transmitted
        wire_bytes = canonical_encode(envelope_to_wire(batch))
        rebuilt = envelope_from_wire(decode_payload(wire_bytes))
        assert isinstance(rebuilt, BatchEnvelope)
        receiver = ChannelAdapter("v0", keys, CapturingConnection())
        decoded = [msg for _, _, msg in receiver.open_batch(rebuilt)]
        assert decoded == [{"op": "proof"}, {"op": "plain"}]


class TestWindowMode:
    def test_on_first_pending_fires_once_per_window(self, keys):
        armed = []
        conn = CapturingConnection()
        channel = ChannelAdapter(
            "alice", KeyStore.for_deployment("batch-test"), conn,
            batching=500, on_first_pending=lambda: armed.append(True),
        )
        channel.send("bob", {"seq": 0})
        channel.send("bob", {"seq": 1})
        assert len(armed) == 1  # first buffered message arms the timer
        channel.flush()
        channel.send("bob", {"seq": 2})
        assert len(armed) == 2  # next window re-arms
