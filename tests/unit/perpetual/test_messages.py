"""Unit tests for Perpetual agreement-item construction and matching."""

from repro.clbft.messages import encode_message
from repro.common.ids import RequestId, ServiceId
from repro.perpetual.messages import (
    ITEM_ABORT,
    ITEM_REQUEST,
    ITEM_RESULT,
    ITEM_UTILITY,
    OutRequest,
    abort_item,
    item_kind,
    reply_auth_bytes,
    request_item,
    result_item,
    result_match_key,
    utility_item,
)

RID = RequestId(ServiceId("store"), 5)


def out_request(responder=0, attempt=0, payload=b"x"):
    return OutRequest(
        request_id=RID,
        caller=ServiceId("store"),
        target=ServiceId("pge"),
        payload=payload,
        responder_index=responder,
        attempt=attempt,
    )


class TestItemIdentity:
    def test_request_item_identity_stable(self):
        first = encode_message(out_request())
        retry = encode_message(out_request(responder=1, attempt=1))
        a = request_item(RID, [first], proof=[])
        b = request_item(RID, [first, retry], proof=[[1, ["other", []]]])
        # Same request -> same (client, timestamp) identity even with a
        # different payload and proof set: CLBFT dedup applies.
        assert (a.client, a.timestamp) == (b.client, b.timestamp)
        assert a.client == f"{ITEM_REQUEST}/{RID}"
        assert item_kind(a) == ITEM_REQUEST
        assert b.op == {
            "kind": ITEM_REQUEST,
            "payloads": [first, retry],
            "proof": [[1, ["other", []]]],
        }

    def test_result_item_identity_per_request(self):
        a = result_item(RID, b"r1")
        b = result_item(RID, b"r2")
        assert (a.client, a.timestamp) == (b.client, b.timestamp)
        assert item_kind(a) == ITEM_RESULT

    def test_abort_and_result_share_request_but_differ_in_kind(self):
        r = result_item(RID, b"r")
        a = abort_item(RID)
        assert item_kind(a) == ITEM_ABORT
        assert r.client != a.client  # distinct items, ordered independently

    def test_utility_item_identity_by_sequence(self):
        a = utility_item(3, "time", None)
        b = utility_item(3, "time", 999)  # primary's value-filled version
        assert (a.client, a.timestamp) == (b.client, b.timestamp)
        assert "value" not in a.op
        assert b.op["value"] == 999
        assert item_kind(a) == ITEM_UTILITY


class TestMatching:
    def test_retries_match_despite_responder_rotation(self):
        original = out_request(responder=0, attempt=0)
        retry = out_request(responder=1, attempt=1)
        assert original.match_key == retry.match_key

    def test_different_payloads_do_not_match(self):
        assert out_request(payload=b"a").match_key != out_request(payload=b"b").match_key

    def test_result_match_distinguishes_values_and_aborts(self):
        assert result_match_key(RID, b"x", False) == result_match_key(
            RID, b"x", False
        )
        assert result_match_key(RID, b"x", False) != result_match_key(
            RID, b"y", False
        )
        assert result_match_key(RID, None, True) != result_match_key(
            RID, None, False
        )


class TestReplyAuthBytes:
    def test_stable_across_calls(self):
        assert reply_auth_bytes(RID, b"result") == reply_auth_bytes(RID, b"result")

    def test_sensitive_to_request_and_result(self):
        other = RequestId(ServiceId("store"), 6)
        assert reply_auth_bytes(RID, b"r") != reply_auth_bytes(other, b"r")
        assert reply_auth_bytes(RID, b"r1") != reply_auth_bytes(RID, b"r2")
