"""Wire codec round-trips for every CLBFT and Perpetual message type."""

import pytest

from repro.clbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    ViewChange,
    decode_message,
    encode_message,
)
from repro.common.errors import ProtocolError
from repro.common.ids import RequestId, ServiceId
from repro.perpetual.messages import (
    AgreedEvent,
    OutRequest,
    ReplyBundle,
    ReplyForward,
    ResultSubmission,
    UtilityRequest,
)

REQUEST = ClientRequest(client="c", timestamp=3, op={"amount": 5})
PRE_PREPARE = PrePrepare(view=1, seqno=7, digest=b"d" * 32, requests=(REQUEST,))


def roundtrip(msg):
    return decode_message(encode_message(msg))


@pytest.mark.parametrize(
    "msg",
    [
        REQUEST,
        PRE_PREPARE,
        Prepare(view=1, seqno=7, digest=b"d" * 32, replica=2),
        Commit(view=1, seqno=7, digest=b"d" * 32, replica=0),
        Checkpoint(seqno=16, state_digest=b"s" * 32, replica=3),
        PreparedProof(
            pre_prepare=PRE_PREPARE,
            prepares=(Prepare(view=1, seqno=7, digest=b"d" * 32, replica=2),),
        ),
        ViewChange(
            new_view=2,
            stable_seqno=16,
            checkpoint_proof=(
                Checkpoint(seqno=16, state_digest=b"s" * 32, replica=0),
            ),
            prepared=(
                PreparedProof(pre_prepare=PRE_PREPARE, prepares=()),
            ),
            replica=1,
        ),
        NewView(view=2, view_changes=(), pre_prepares=(PRE_PREPARE,)),
        OutRequest(
            request_id=RequestId(ServiceId("store"), 4),
            caller=ServiceId("store"),
            target=ServiceId("pge"),
            payload=b"<soap/>",
            responder_index=2,
            attempt=1,
        ),
        ReplyForward(
            request_id=RequestId(ServiceId("store"), 4),
            result=b"<soap/>",
            voter_index=1,
            auth=["pge/v1", [["store/d0", b"m" * 16]]],
        ),
        ReplyBundle(
            request_id=RequestId(ServiceId("store"), 4),
            result=b"<soap/>",
            vouchers=((1, ["pge/v1", []]), (2, ["pge/v2", []])),
        ),
        ResultSubmission(
            request_id=RequestId(ServiceId("store"), 4),
            result=b"<soap/>",
            aborted=False,
        ),
        UtilityRequest(util_seq=9, utility="time"),
        AgreedEvent(kind="reply", body={"request_id": None, "value": 1,
                                        "aborted": False}),
    ],
)
def test_roundtrip(msg):
    assert roundtrip(msg) == msg


def test_nested_containers_of_messages():
    value = {"batch": [REQUEST, REQUEST], "pair": (PRE_PREPARE,)}
    assert roundtrip(value) == value


def test_unknown_kind_rejected():
    # A registered message's header with its kind renamed.
    data = encode_message(UtilityRequest(util_seq=1, utility="time"))
    kind = UtilityRequest.KIND.encode()
    martian = data.replace(kind, b"x" * len(kind), 1)
    with pytest.raises(ProtocolError, match="unknown message kind"):
        decode_message(martian)


def test_plain_values_pass_through():
    assert roundtrip({"x": [1, "y"]}) == {"x": [1, "y"]}
