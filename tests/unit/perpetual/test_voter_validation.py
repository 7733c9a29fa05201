"""Unit tests for voter-level validation logic, driven directly.

These poke the VoterNode's validation helpers without a full deployment:
result-echo quorums, utility deferral, and request-proof checking.
"""

import pytest

from repro.clbft.messages import PrePrepare, decode_message, encode_message
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.group import Topology
from repro.perpetual.messages import (
    OutRequest,
    ResultSubmission,
    request_item,
    result_item,
    result_match_key,
    utility_item,
)
from repro.perpetual.voter import VoterNode, driver_name, voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.transport.wire import auth_to_wire


@pytest.fixture
def setup():
    topology = Topology()
    topology.add("caller", 4)
    topology.add("svc", 4)
    keys = KeyStore.for_deployment("voter-unit")
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    voters = []
    for i in range(4):
        voter = VoterNode(topology=topology, service="svc", index=i, keys=keys)
        env = sim.add_node(voter_name("svc", i), voter, host=f"svc/h{i}")
        voter.attach(env)
        voters.append(voter)
    return topology, keys, sim, voters


RID = RequestId(ServiceId("svc"), 7)

# Stage-2 request items: caller n=4 (fc = 1, so two vouching drivers).
CALL_RID = RequestId(ServiceId("caller"), 1)
AUDIENCE = [voter_name("svc", i) for i in range(4)]


def stage1(attempt=0, payload=b"p", target="svc"):
    """A calling driver's stage-1 payload: the bytes it MACs."""
    return encode_message(
        OutRequest(
            request_id=CALL_RID,
            caller=ServiceId("caller"),
            target=ServiceId(target),
            payload=payload,
            responder_index=attempt % 4,
            attempt=attempt,
        )
    )


def vouch(keys, sender, payload, index=0):
    """One proof entry: ``sender``'s authenticator over ``payload``."""
    auth = AuthenticatorFactory(keys, sender).sign(payload, AUDIENCE)
    return [index, auth_to_wire(auth)]


def caller_driver(index):
    return driver_name("caller", index)


class TestResultValidation:
    def test_own_echo_validates(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            1, ResultSubmission(request_id=RID, result=b"r"), own=True
        )
        assert voter._result_validated(RID, key)

    def test_single_foreign_echo_insufficient(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            3, ResultSubmission(request_id=RID, result=b"r"), own=False
        )
        assert not voter._result_validated(RID, key)

    def test_f_plus_1_foreign_echoes_validate(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        for driver_index in (2, 3):
            voter._on_result_submission(
                driver_index,
                ResultSubmission(request_id=RID, result=b"r"),
                own=False,
            )
        assert voter._result_validated(RID, key)

    def test_conflicting_echoes_do_not_combine(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            2, ResultSubmission(request_id=RID, result=b"r"), own=False
        )
        voter._on_result_submission(
            3, ResultSubmission(request_id=RID, result=b"other"), own=False
        )
        assert not voter._result_validated(RID, key)

    def test_own_echo_mismatch_does_not_validate_other_value(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        voter._on_result_submission(
            1, ResultSubmission(request_id=RID, result=b"mine"), own=True
        )
        other_key = result_match_key(RID, b"theirs", False)
        assert not voter._result_validated(RID, other_key)


class TestBatchValidation:
    def test_utility_without_own_request_defers(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = utility_item(1, "time", 12345)
        assert voter._validate_batch((item,)) == "defer"

    def test_utility_with_own_request_accepts(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        from repro.perpetual.messages import UtilityRequest

        voter._on_utility_request(UtilityRequest(util_seq=1, utility="time"))
        item = utility_item(1, "time", 12345)
        assert voter._validate_batch((item,)) == "accept"

    def test_utility_value_missing_rejects(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = utility_item(1, "time", None)  # primary must fill the value
        assert voter._validate_batch((item,)) == "reject"

    def test_utility_kind_mismatch_rejects(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        from repro.perpetual.messages import UtilityRequest

        voter._on_utility_request(UtilityRequest(util_seq=1, utility="random"))
        item = utility_item(1, "time", 5)
        assert voter._validate_batch((item,)) == "reject"

    def test_unvalidated_result_defers(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = result_item(RID, b"r")
        assert voter._validate_batch((item,)) == "defer"

    def test_request_item_with_valid_proof_accepts(self, setup):
        __, keys, __, voters = setup
        payload = stage1()
        proof = [vouch(keys, caller_driver(i), payload) for i in (0, 1)]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "accept"

    def test_request_item_with_short_proof_rejects(self, setup):
        __, keys, __, voters = setup
        payload = stage1()
        item = request_item(CALL_RID, [payload], [vouch(keys, caller_driver(0), payload)])
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_request_item_with_forged_macs_rejects(self, setup):
        __, __, __, voters = setup
        forged_keys = KeyStore.for_deployment("not-the-deployment")
        payload = stage1()
        proof = [vouch(forged_keys, caller_driver(i), payload) for i in (0, 1)]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_request_for_other_service_rejects(self, setup):
        __, keys, __, voters = setup
        payload = stage1(target="elsewhere")
        proof = [vouch(keys, caller_driver(i), payload) for i in (0, 1)]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_copies_of_two_attempts_travel_once_each_and_accept(self, setup):
        __, keys, __, voters = setup
        first, retry = stage1(attempt=0), stage1(attempt=1)
        proof = [
            vouch(keys, caller_driver(0), first, index=0),
            vouch(keys, caller_driver(1), retry, index=1),
        ]
        item = request_item(CALL_RID, [first, retry], proof)
        assert voters[1]._validate_batch((item,)) == "accept"

    def test_proof_index_out_of_range_rejects(self, setup):
        __, keys, __, voters = setup
        payload = stage1()
        proof = [
            vouch(keys, caller_driver(0), payload),
            vouch(keys, caller_driver(1), payload, index=1),
        ]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_unreferenced_payload_rejects(self, setup):
        __, keys, __, voters = setup
        payload, extra = stage1(attempt=0), stage1(attempt=1)
        proof = [vouch(keys, caller_driver(i), payload) for i in (0, 1)]
        item = request_item(CALL_RID, [payload, extra], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_payloads_with_different_match_keys_reject(self, setup):
        __, keys, __, voters = setup
        a, b = stage1(payload=b"a"), stage1(payload=b"b")
        proof = [
            vouch(keys, caller_driver(0), a, index=0),
            vouch(keys, caller_driver(1), b, index=1),
        ]
        item = request_item(CALL_RID, [a, b], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_fc_plus_1_entries_from_one_driver_reject(self, setup):
        __, keys, __, voters = setup
        payload = stage1()
        proof = [vouch(keys, caller_driver(0), payload) for _ in (0, 1)]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_one_forged_entry_rejects(self, setup):
        __, keys, __, voters = setup
        forged_keys = KeyStore.for_deployment("not-the-deployment")
        payload = stage1()
        proof = [
            vouch(keys, caller_driver(0), payload),
            vouch(keys, caller_driver(1), payload),
            vouch(forged_keys, caller_driver(2), payload),
        ]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_entry_from_a_non_caller_principal_rejects(self, setup):
        __, keys, __, voters = setup
        payload = stage1()
        proof = [
            vouch(keys, caller_driver(0), payload),
            vouch(keys, voter_name("caller", 1), payload),
        ]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    @pytest.mark.parametrize(
        "payload",
        [
            encode_message(ResultSubmission(request_id=CALL_RID, result=b"r")),
            b"not a canonical message",
            "a string, not bytes",
        ],
        ids=["result-submission", "garbage-bytes", "str"],
    )
    def test_payload_that_is_not_an_out_request_rejects(self, setup, payload):
        __, keys, __, voters = setup
        signed = payload if isinstance(payload, bytes) else payload.encode()
        proof = [vouch(keys, caller_driver(i), signed) for i in (0, 1)]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    @pytest.mark.parametrize(
        "entry",
        [[0], "entry", [0, "not-an-auth"], [0, ["caller/d1", [["svc/v1", "tag"]]]]],
        ids=["short", "str", "bad-auth", "str-tag"],
    )
    def test_malformed_proof_entry_rejects(self, setup, entry):
        __, keys, __, voters = setup
        payload = stage1()
        proof = [vouch(keys, caller_driver(0), payload), entry]
        item = request_item(CALL_RID, [payload], proof)
        assert voters[1]._validate_batch((item,)) == "reject"

    def test_delivery_executes_the_first_authenticated_payload(self, setup):
        __, keys, __, voters = setup
        first, retry = stage1(attempt=0), stage1(attempt=1)
        proof = [
            vouch(keys, caller_driver(0), first, index=0),
            vouch(keys, caller_driver(1), retry, index=1),
        ]
        item = request_item(CALL_RID, [first, retry], proof)
        voters[1]._deliver_request(1, item)
        meta = voters[1]._incoming_meta[CALL_RID]
        assert (meta.attempt, meta.responder_index) == (0, 0)


class TestSharedDerivation:
    def test_backups_sharing_a_pre_prepare_decode_and_digest_once(
        self, setup, monkeypatch
    ):
        # Co-resident backups receive one decoded pre-prepare: each payload
        # of its stage-2 item is decoded and digested once, not per backup.
        import repro.perpetual.voter as voter_module

        __, keys, __, voters = setup
        first, retry = stage1(attempt=0), stage1(attempt=1)
        proof = [
            vouch(keys, caller_driver(0), first, index=0),
            vouch(keys, caller_driver(1), retry, index=1),
        ]
        item = request_item(CALL_RID, [first, retry], proof)
        pre_prepare = decode_message(encode_message(
            PrePrepare(view=0, seqno=1, digest=b"", requests=(item,))
        ))
        calls = {"decode": 0, "digest": 0}

        def counting(name, inner):
            def wrapper(data):
                calls[name] += 1
                return inner(data)
            return wrapper

        monkeypatch.setattr(voter_module, "decode_perpetual",
                            counting("decode", voter_module.decode_perpetual))
        monkeypatch.setattr(voter_module, "digest",
                            counting("digest", voter_module.digest))
        for backup in voters[1:]:
            assert backup._validate_batch(pre_prepare.requests) == "accept"
        assert calls == {"decode": 2, "digest": 2}
