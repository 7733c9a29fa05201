"""Golden byte vectors of the canonical codec: one per tag, one per
registered message class, and the malformed inputs the decoder refuses.

The expected bytes are spelled out from the layout in
:mod:`repro.common.encoding`'s docstring with the helpers below, not
produced by the encoder, so a change to the format shows up here as a
difference in bytes.
"""

import struct

import pytest

from repro.clbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    Reply,
    ViewChange,
    decode_message,
    encode_message,
)
from repro.common.encoding import _KINDS, canonical_encode, decode_payload
from repro.common.errors import ProtocolError
from repro.common.ids import MessageId, NodeId, ReplicaId, RequestId, ServiceId
from repro.perpetual.messages import (
    AbortRequest,
    AgreedEvent,
    LocalResult,
    OutRequest,
    ReplyBundle,
    ReplyForward,
    ResultSubmission,
    UtilityRequest,
    ViewHint,
)


def u32(n):
    return struct.pack(">I", n)


def i(n):
    return b"i" + struct.pack(">q", n)


def s(text):
    raw = text.encode()
    return b"s" + u32(len(raw)) + raw


def b(raw):
    return b"b" + u32(len(raw)) + raw


def seq(tag, *items):
    return tag + u32(len(items)) + b"".join(items)


def mapping(*pairs):
    """A dict body; ``pairs`` are ``(key, encoded value)`` in key order."""
    body = b"".join(u32(len(k.encode())) + k.encode() + v for k, v in pairs)
    return b"d" + u32(len(pairs)) + body


def msg(kind, *fields):
    return (
        b"m" + bytes([len(kind)]) + kind.encode() + bytes([len(fields)])
        + b"".join(fields)
    )


def svc(name):
    return b"S" + s(name)


def rid(origin, seqno):
    return b"Q" + svc(origin) + i(seqno)


D32 = b"d" * 32

TAG_VECTORS = [
    (None, b"n"),
    (True, b"T"),
    (False, b"F"),
    (0, b"i" + bytes(8)),
    (-1, b"i" + b"\xff" * 8),
    (2**63 - 1, b"i\x7f" + b"\xff" * 7),
    (2**63, b"I" + u32(9) + b"\x00\x80" + bytes(7)),
    (-(2**63) - 1, b"I" + u32(9) + b"\xff\x7f" + b"\xff" * 7),
    ("", b"s" + u32(0)),
    ("hé", b"s" + u32(3) + b"h\xc3\xa9"),
    (b"\x00\xff", b"b" + u32(2) + b"\x00\xff"),
    ([], b"l" + u32(0)),
    ([1, "a"], seq(b"l", i(1), s("a"))),
    ((), b"t" + u32(0)),
    ((b"",), seq(b"t", b(b""))),
    ({}, b"d" + u32(0)),
    ({"b": 1, "a": None}, mapping(("a", b"n"), ("b", i(1)))),
    (ServiceId("bank"), svc("bank")),
    (ReplicaId(ServiceId("bank"), 2), b"R" + svc("bank") + i(2)),
    (
        NodeId(ReplicaId(ServiceId("bank"), 2), "voter"),
        b"N" + b"R" + svc("bank") + i(2) + s("voter"),
    ),
    (RequestId(ServiceId("store"), 9), rid("store", 9)),
    (MessageId("urn:1"), b"M" + s("urn:1")),
]


@pytest.mark.parametrize(
    "value,expected", TAG_VECTORS, ids=[repr(v)[:24] for v, _ in TAG_VECTORS]
)
def test_tag_vector(value, expected):
    assert canonical_encode(value) == expected
    decoded = decode_payload(expected)
    assert decoded == value and type(decoded) is type(value)


REQUEST = ClientRequest(client="c", timestamp=3, op={"n": 5})
REQUEST_BYTES = msg("request", s("c"), i(3), mapping(("n", i(5))))
PRE_PREPARE = PrePrepare(view=1, seqno=7, digest=D32, requests=(REQUEST,))
PRE_PREPARE_BYTES = msg(
    "pre-prepare", i(1), i(7), b(D32), seq(b"t", REQUEST_BYTES)
)
PREPARE = Prepare(view=1, seqno=7, digest=D32, replica=2)
PREPARE_BYTES = msg("prepare", i(1), i(7), b(D32), i(2))
CHECKPOINT = Checkpoint(seqno=16, state_digest=D32, replica=0)
CHECKPOINT_BYTES = msg("checkpoint", i(16), b(D32), i(0))
PROOF = PreparedProof(pre_prepare=PRE_PREPARE, prepares=(PREPARE,))
PROOF_BYTES = msg(
    "prepared-proof", PRE_PREPARE_BYTES, seq(b"t", PREPARE_BYTES)
)
VIEW_CHANGE = ViewChange(
    new_view=2, stable_seqno=16, checkpoint_proof=(CHECKPOINT,),
    prepared=(PROOF,), replica=1,
)
VIEW_CHANGE_BYTES = msg(
    "view-change", i(2), i(16), seq(b"t", CHECKPOINT_BYTES),
    seq(b"t", PROOF_BYTES), i(1),
)
AUTH = ["pge/v1", [["store/d0", b"m" * 4]]]
AUTH_BYTES = seq(b"l", s("pge/v1"), seq(b"l", seq(b"l", s("store/d0"), b(b"mmmm"))))

MESSAGE_VECTORS = [
    (REQUEST, REQUEST_BYTES),
    (PRE_PREPARE, PRE_PREPARE_BYTES),
    (PREPARE, PREPARE_BYTES),
    (Commit(view=1, seqno=7, digest=D32, replica=0),
     msg("commit", i(1), i(7), b(D32), i(0))),
    (Reply(view=0, timestamp=3, client="c", replica=1, result=True),
     msg("reply", i(0), i(3), s("c"), i(1), b"T")),
    (CHECKPOINT, CHECKPOINT_BYTES),
    (PROOF, PROOF_BYTES),
    (VIEW_CHANGE, VIEW_CHANGE_BYTES),
    (NewView(view=2, view_changes=(VIEW_CHANGE,), pre_prepares=()),
     msg("new-view", i(2), seq(b"t", VIEW_CHANGE_BYTES), seq(b"t"))),
    (OutRequest(
        request_id=RequestId(ServiceId("store"), 4), caller=ServiceId("store"),
        target=ServiceId("pge"), payload=b"<soap/>", responder_index=2,
        attempt=1,
    ), msg(
        "perp-out-request", rid("store", 4), svc("store"), svc("pge"),
        b(b"<soap/>"), i(2), i(1),
    )),
    (ViewHint(view=3), msg("perp-view-hint", i(3))),
    (ReplyForward(
        request_id=RequestId(ServiceId("store"), 4), result=b"r",
        voter_index=1, auth=AUTH,
    ), msg("perp-reply-forward", rid("store", 4), b(b"r"), i(1), AUTH_BYTES)),
    (ReplyBundle(
        request_id=RequestId(ServiceId("store"), 4), result=b"r",
        vouchers=((1, AUTH),),
    ), msg(
        "perp-reply-bundle", rid("store", 4), b(b"r"),
        seq(b"t", seq(b"t", i(1), AUTH_BYTES)),
    )),
    (ResultSubmission(
        request_id=RequestId(ServiceId("store"), 4), result=b"r", aborted=False,
    ), msg("perp-result-submission", rid("store", 4), b(b"r"), b"F")),
    (UtilityRequest(util_seq=9, utility="time"),
     msg("perp-utility-request", i(9), s("time"))),
    (AbortRequest(request_id=RequestId(ServiceId("store"), 4)),
     msg("perp-abort-request", rid("store", 4))),
    (LocalResult(request_id=RequestId(ServiceId("store"), 4), result=None),
     msg("perp-local-result", rid("store", 4), b"n")),
    (AgreedEvent(kind="reply", body={"value": 1}),
     msg("perp-agreed-event", s("reply"), mapping(("value", i(1))))),
]


@pytest.mark.parametrize(
    "message,expected", MESSAGE_VECTORS,
    ids=[type(m).__name__ for m, _ in MESSAGE_VECTORS],
)
def test_message_vector(message, expected):
    assert encode_message(message) == expected
    assert decode_message(expected) == message


def test_every_registered_message_has_a_vector():
    registered = {cls for cls, _count in _KINDS.values()}
    assert {type(m) for m, _ in MESSAGE_VECTORS} == registered


MALFORMED = [
    (b"", "index out of range"),
    (b"i\x00\x00", "unpack"),
    (b"s" + u32(9) + b"short", "overruns"),
    (b"n" + b"n", "trailing"),
    (b"x", "unknown tag"),
    (b"l" + u32(2) + b"n", "exceeds the input"),
    (b"t" + u32(1) + b"i" + bytes(8) + b"n", "trailing"),
    (b"l" + u32(2**31), "exceeds the input"),
    (msg("martian"), "unknown message kind"),
    (msg("perp-view-hint"), "has 1 fields, not 0"),
    (mapping(("b", b"n"), ("a", b"n")), "out of order"),
    (mapping(("a", b"n"), ("a", b"n")), "out of order"),
    (b"I" + u32(1) + b"\x05", "non-canonical int"),
    (b"I" + u32(10) + b"\x00\x00\x80" + bytes(7), "non-canonical int"),
    (b"s" + u32(2) + b"\xc0\x80", "utf-8"),
    (b"N" + b"R" + svc("bank") + i(2) + s("judge"), "unknown node role"),
]


@pytest.mark.parametrize("data,reason", MALFORMED)
def test_malformed_input_is_a_protocol_error(data, reason):
    with pytest.raises(ProtocolError, match="malformed canonical payload") as info:
        decode_payload(data)
    assert reason in str(info.value)


def test_nesting_beyond_the_stack_is_a_protocol_error():
    depth = 100_000
    with pytest.raises(ProtocolError, match="malformed canonical payload"):
        decode_payload((b"l" + u32(1)) * depth + b"n")
    deep = None
    for _ in range(depth):
        deep = [deep]
    with pytest.raises(ProtocolError, match="not canonically encodable"):
        canonical_encode(deep)


@pytest.mark.parametrize("value", [1.5, {"x": [0.0]}, (float("nan"),)])
def test_floats_are_refused(value):
    with pytest.raises(ProtocolError, match="floats"):
        canonical_encode(value)
