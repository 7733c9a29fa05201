"""The process hop's frames: binary envelopes out, strict parsing in.

A worker's ``_WorkerHost`` is driven here with no process around it — a
scripted connection plays the parent — and the parent's router with a
real pipe whose far end the test holds. Two things are pinned: a hop
hands the receiving node the envelope the sender posted (plain and
batch), and a frame that does not parse is dropped and reported through
``worker_errors()`` while the worker loop and the router keep serving.
The wave check that stops ``run`` is driven with hand-built counts.
"""

import multiprocessing
import threading
import time

import pytest

from repro.common.encoding import canonical_encode, decode_payload
from repro.common.errors import ProtocolError
from repro.crypto.keys import KeyStore
from repro.scenario.process import (
    ProcessRuntime,
    _WorkerHost,
    _net_frame,
    _net_header,
    closed_wave,
)
from repro.sim.kernel import ProtocolNode
from repro.transport.channel import ChannelAdapter
from repro.transport.connection import Connection
from repro.transport.wire import BatchEnvelope, WireEnvelope


class Collector(ProtocolNode):
    def __init__(self):
        self.messages = []

    def on_message(self, src, msg):
        self.messages.append((str(src), msg))


class ScriptedConn:
    """The parent's end of a worker pipe: ``go`` and the given frames in
    one burst, then ``stop`` once the worker has drained and handled them
    (its next blocking poll)."""

    def __init__(self, frames=()):
        self.inbound = [canonical_encode(("go",)), *frames]
        self.stopped = False
        self.sent = []

    def poll(self, timeout):
        if not self.inbound and timeout > 0 and not self.stopped:
            self.inbound.append(canonical_encode(("stop",)))
            self.stopped = True
        return bool(self.inbound)

    def recv_bytes(self):
        return self.inbound.pop(0)

    def send_bytes(self, data):
        self.sent.append(data)


def serve(host, frames):
    """Run ``host``'s real loop over ``frames``; the errors its final
    stats frame reports."""
    host.conn = ScriptedConn(frames)
    host.loop(stats=lambda: {"errors": [repr(e) for e in host.errors()]})
    kind, stats = decode_payload(host.conn.sent[-2])
    assert kind == "stats"
    assert decode_payload(host.conn.sent[-1]) == ("bye",)
    return stats["errors"]


class _Capture(Connection):
    def __init__(self):
        self.out = []

    def transmit(self, dst, envelope):
        self.out.append(envelope)


def signed_envelopes():
    """One plain and one batch envelope from the real signing path."""
    keys = KeyStore.for_deployment("hop-test")
    wire = _Capture()
    ChannelAdapter("a/v0", keys, wire).send("b/v0", {"blob": "\x00" * 64})
    batching = ChannelAdapter("a/v0", keys, wire, batching="tick")
    batching.send("b/v0", {"n": 1})
    batching.multicast_to(["b/v0", "b/v1"], ["b/v0"], {"n": 2})
    batching.flush()
    plain, batch = wire.out
    assert type(plain) is WireEnvelope and type(batch) is BatchEnvelope
    assert {kind for kind, _ in batch.items} == {"p", "e"}
    return keys, plain, batch


def test_a_hop_delivers_the_envelope_the_sender_posted():
    keys, plain, batch = signed_envelopes()
    sender = _WorkerHost(ScriptedConn())
    sender.add_node("a/v0", Collector())
    for envelope in (plain, batch):
        sender.post("a/v0", "b/v0", envelope)
    frames = sender.conn.sent
    # What the parent router reads, and all it reads.
    assert [_net_header(f)[:2] for f in frames] == [("a/v0", "b/v0")] * 2

    receiver = _WorkerHost(None)
    node = Collector()
    receiver.add_node("b/v0", node)
    assert serve(receiver, frames) == []
    assert node.messages == [("a/v0", plain), ("a/v0", batch)]
    # The receiver's own MAC entry still verifies over the forwarded bytes.
    channel = ChannelAdapter("b/v0", keys, _Capture())
    assert channel.accept(node.messages[0][1]) == {"blob": "\x00" * 64}
    opened = channel.open_batch(node.messages[1][1])
    assert [channel.accept(e) for e in opened] == [{"n": 1}, {"n": 2}]


MALFORMED = {
    "not an envelope": b"net\x00a/v0\x00b/v0\x00{not json",
    "short header": b"net\x00a/v0",
    "no body": b"net\x00a/v0\x00b/v0\x00",
    "undecodable principal": b"net\x00\xff\xfe\x00b/v0\x00e",
    "truncated length": b"net\x00a/v0\x00b/v0\x00e\x00\x00",
    "overrunning length": b"net\x00a/v0\x00b/v0\x00e\x00\x01\x00\x00abc",
}


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_worker_drops_and_reports_a_malformed_frame(frame):
    _, plain, _ = signed_envelopes()
    host = _WorkerHost(None)
    node = Collector()
    host.add_node("b/v0", node)
    good = _net_frame("a/v0", "b/v0", plain)
    errors = serve(host, [frame, good + b"trailing", good])
    # Two frames dropped and named; the one after them was still served.
    assert len(errors) == 2 and all("ProtocolError" in e for e in errors)
    assert "trailing" in errors[1]
    assert node.messages == [("a/v0", plain)]
    assert host.unprocessed == 0


def test_header_split_reads_the_header_only_and_rejects_a_short_one():
    body = b"e\x00with\x00nuls\x00"
    frame = b"net\x00caller/d0\x00t\xc3\xa4rget/v3\x00" + body
    src, dst, offset = _net_header(frame)
    assert (src, dst, frame[offset:]) == ("caller/d0", "tärget/v3", body)
    for short in (b"net\x00", b"net\x00a/v0", b"net\x00a/v0\x00b/v0"):
        with pytest.raises(ProtocolError, match="short header"):
            _net_header(short)
    with pytest.raises(ProtocolError, match="undecodable"):
        _net_header(b"net\x00a/v0\x00\xff\x00body")


def test_router_survives_a_malformed_frame_and_names_its_sender():
    runtime = ProcessRuntime()
    ours, theirs = multiprocessing.Pipe()
    key = ("target", 0)
    runtime._conns[key] = ours
    runtime._alive[ours] = key
    router = threading.Thread(target=runtime._route, daemon=True)
    router.start()
    try:
        theirs.send_bytes(b"net\x00a/v0")  # fewer than three NULs
        theirs.send_bytes(b"{not a control frame")
        theirs.send_bytes(canonical_encode(("stats", {"errors": ["boom"]})))
        deadline = time.monotonic() + 5.0
        while key not in runtime._stats and time.monotonic() < deadline:
            time.sleep(0.01)
        assert router.is_alive()
        # The frame after the bad ones was served, and both are reported
        # beside the worker's own errors.
        errors = runtime.worker_errors()[key]
        assert errors[0] == "boom"
        assert "short header" in errors[1]
        assert "malformed canonical payload" in errors[2]
    finally:
        runtime._stopping.set()
        router.join(timeout=2.0)
        ours.close()
        theirs.close()
    assert not router.is_alive()


A, B = ("target", 0), ("caller", 0)


def quiet_wave(**changes):
    """``closed_wave``'s arguments for two idle workers that exchanged
    frames (A sent 3 and received 2, B sent 2 and received 3, one frame
    dropped), each overridden by ``changes``."""
    wave = {
        "workers": [A, B],
        "answers": {
            A: {"idle": True, "in_flight": 0,
                "frames_sent": 3, "frames_received": 2},
            B: {"idle": True, "in_flight": 0,
                "frames_sent": 2, "frames_received": 3},
        },
        "read": {A: 3, B: 2},
        "written": {A: 2, B: 3},
        "dropped": 0,
    }
    wave.update(changes)
    return wave


def answer(key, **fields):
    answers = quiet_wave()["answers"]
    answers[key] = dict(answers[key], **fields)
    return answers


def stops(*waves):
    """What ``run`` decides over consecutive waves: True once two in a
    row close with the same counts."""
    previous = None
    for wave in waves:
        counts = closed_wave(**wave)
        if counts is not None and counts == previous:
            return True
        previous = counts
    return False


def test_two_closed_identical_waves_stop_the_run():
    assert closed_wave(**quiet_wave()) is not None
    assert stops(quiet_wave(), quiet_wave())
    # A dropped frame balances like a written one.
    dropped = quiet_wave(read={A: 4, B: 2}, dropped=1,
                         answers=answer(A, frames_sent=4))
    assert stops(dropped, dropped)
    # No workers at all (every replica crashed) is trivially quiet.
    empty = quiet_wave(workers=[], answers={}, read={}, written={})
    assert stops(empty, empty)


OPEN_WAVES = {
    # A sent its third frame, which the router has not read yet.
    "in flight from a worker": quiet_wave(
        read={A: 2, B: 2}, written={A: 2, B: 2},
        answers=answer(B, frames_received=2),
    ),
    # The egress wrote a third frame to A, which A has not taken in.
    "in flight to a worker": quiet_wave(
        read={A: 3, B: 3}, written={A: 3, B: 3},
        answers=answer(B, frames_sent=3),
    ),
    # Read but neither written nor dropped: queued in the parent.
    "queued in the parent": quiet_wave(read={A: 4, B: 2},
                                       answers=answer(A, frames_sent=4)),
    "a worker not idle": quiet_wave(answers=answer(B, idle=False)),
    "an out-call in flight": quiet_wave(answers=answer(A, in_flight=1)),
    "a worker that did not answer": quiet_wave(
        answers={B: quiet_wave()["answers"][B]}
    ),
}


@pytest.mark.parametrize("wave", OPEN_WAVES.values(), ids=OPEN_WAVES.keys())
def test_an_open_wave_keeps_the_run_going(wave):
    assert closed_wave(**wave) is None
    assert not stops(quiet_wave(), wave)
    assert not stops(wave, quiet_wave())


def test_a_count_that_moved_between_waves_keeps_the_run_going():
    # Both waves close, but A and B exchanged a frame in between.
    later = quiet_wave(
        read={A: 4, B: 2}, written={A: 2, B: 4},
        answers={
            A: {"idle": True, "in_flight": 0,
                "frames_sent": 4, "frames_received": 2},
            B: {"idle": True, "in_flight": 0,
                "frames_sent": 2, "frames_received": 4},
        },
    )
    assert closed_wave(**later) is not None
    assert not stops(quiet_wave(), later)
    assert stops(quiet_wave(), later, later)
