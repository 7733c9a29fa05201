"""Integration: the fault-isolation guarantees of paper section 3.

Three scenarios:

1. fewer than fc+1 faulty calling replicas cannot inject a request into a
   correct target (stage 2's matching-request quorum);
2. a crashed target primary does not stop the target service (CLBFT view
   change restores liveness end to end);
3. a *compromised* target (all replicas silent — beyond its fault bound)
   cannot block a calling service that set a timeout: the callers abort
   deterministically and keep their replica state consistent.
"""

import pytest

from repro.clbft.messages import Checkpoint, ClientRequest
from repro.common.ids import RequestId, ServiceId
from repro.crypto.keys import KeyStore
from repro.perpetual.messages import OutRequest, ReplyBundle
from repro.perpetual.voter import driver_name, voter_name
from tests.integration.scripted import inject, replies, run_sim, two_tier


class TestRequestInjection:
    def test_single_faulty_caller_cannot_inject(self):
        """One faulty calling driver (fc=1 tolerated) forges a request; the
        target (n=4) must never execute it: stage 2 demands fc+1=2 matching
        authenticated copies."""
        runtime = run_sim(two_tier(4, 4, calls=2).build(), until_s=30)
        target = runtime._groups["target"]
        baseline = target.voters[0].delivered_requests

        # Forge a request from caller driver 3 (a single faulty replica).
        forged = OutRequest(
            request_id=RequestId(ServiceId("caller"), 999),
            caller=ServiceId("caller"),
            target=ServiceId("target"),
            payload=b"<forged/>",
            responder_index=0,
            attempt=0,
        )
        voters = [voter_name("target", i) for i in range(4)]
        inject(runtime, "caller/d3", voters, forged)
        runtime.run(until_s=30)
        # The forged request never reached any target executor.
        for voter in target.voters:
            assert voter.delivered_requests == baseline

    def test_two_matching_faulty_callers_meet_quorum_but_need_macs(self):
        """Even fc+1 copies are useless without valid pairwise MACs: an
        outsider who does not hold the deployment keys cannot fabricate
        them."""
        runtime = run_sim(two_tier(4, 4, calls=1).build(), until_s=30)
        target = runtime._groups["target"]
        baseline = target.voters[0].delivered_requests

        outsider_keys = KeyStore.for_deployment("attacker")
        forged = OutRequest(
            request_id=RequestId(ServiceId("caller"), 777),
            caller=ServiceId("caller"),
            target=ServiceId("target"),
            payload=b"<forged/>",
            responder_index=0,
            attempt=0,
        )
        voters = [voter_name("target", i) for i in range(4)]
        for driver_index in (2, 3):
            inject(runtime, f"caller/d{driver_index}", voters, forged,
                   keys=outsider_keys)
        runtime.run(until_s=30)
        for voter in target.voters:
            assert voter.delivered_requests == baseline


def _forged_relay_run(op):
    """A 60-call 4x4 echo; with ``op`` set, one faulty target voter (within
    f) sends the primary a ``ClientRequest`` MAC'd with its own keys 50 ms
    in. Returns (view changes per target voter, calls per caller driver,
    caller driver 0's last completion)."""
    runtime = run_sim(two_tier(4, 4, calls=60).build(), until_s=0.05)
    if op is not None:
        inject(
            runtime, voter_name("target", 3), [voter_name("target", 0)],
            ClientRequest(client="req/forged", timestamp=1, op=op),
        )
    runtime.run(until_s=30)
    drivers = runtime._groups["caller"].drivers
    return (
        [v.replica.view_changes_completed
         for v in runtime._groups["target"].voters],
        [d.completed_calls for d in drivers],
        drivers[0].last_completion_us,
    )


@pytest.fixture(scope="module")
def fault_free_completion_us():
    return _forged_relay_run(None)[2]


class TestForgedRelay:
    """Agreement items enter CLBFT only through a voter's validated
    ``submit``: a peer voter that sends the primary a ``ClientRequest``
    directly must not get it proposed, or the backups' batch validation
    rejects the pre-prepare and the group deposes a correct primary."""

    @pytest.mark.parametrize(
        "op",
        [
            {"kind": "req", "payloads": [b"junk"], "proof": []},
            {"kind": "result", "request_id": "nope", "value": 1},
        ],
        ids=["request-item", "result-item"],
    )
    def test_peer_cannot_relay_an_item(self, op, fault_free_completion_us):
        view_changes, completed, last_us = _forged_relay_run(op)
        assert view_changes == [0, 0, 0, 0]
        assert completed == [60, 60, 60, 60]
        assert last_us == fault_free_completion_us


class TestForgedCheckpoint:
    """A checkpoint vote counts only for the replica that sent it: one
    faulty target voter (within f) that sends ``Checkpoint(replica=r)``
    for every r cannot make a stable certificate by itself."""

    @staticmethod
    def _run(claimed):
        """A 60-call 4x4 echo in which target voter 3 sends voters 0-2 one
        checkpoint per entry of ``claimed``, naming that replica, 40
        seqnos ahead, 20 ms in. Returns (the correct voters' stable seqnos
        10 ms later, view changes per target voter, caller driver 0's last
        completion)."""
        runtime = run_sim(two_tier(4, 4, calls=60).build(), until_s=0.02)
        voters = runtime._groups["target"].voters
        seqno = voters[0].replica.log.last_executed + 40
        for replica in claimed:
            inject(
                runtime, voter_name("target", 3),
                [voter_name("target", i) for i in range(3)],
                Checkpoint(seqno=seqno, state_digest=b"\x00" * 32,
                           replica=replica),
            )
        runtime.run(until_s=0.03)
        stable = [v.replica.log.stable_seqno for v in voters[:3]]
        runtime.run(until_s=30)
        return (
            stable,
            [v.replica.view_changes_completed for v in voters],
            runtime._groups["caller"].drivers[0].last_completion_us,
        )

    def test_one_voter_cannot_forge_a_stable_checkpoint(self):
        # The reference sends the same four envelopes, each naming the
        # faulty voter itself (one vote): receivers pay the same
        # verification cost, so any difference is the forgery's effect.
        reference = self._run(claimed=[3, 3, 3, 3])
        stable, view_changes, last_us = self._run(claimed=[0, 1, 2, 3])
        assert stable == reference[0] == [0, 0, 0]
        assert view_changes == [0, 0, 0, 0]
        assert last_us == reference[2]


class TestIllTypedIdentifiers:
    """A faulty principal with valid MACs sends canonically encoded
    messages whose identifier fields have the wrong types. Every receiver
    drops them as rejected input; the run goes on and completes."""

    def test_ill_typed_ids_are_rejected_not_raised(self):
        runtime = run_sim(two_tier(4, 4, calls=2).build(), until_s=30)
        target, caller = runtime._groups["target"], runtime._groups["caller"]
        baseline = target.voters[0].delivered_requests
        voters = [voter_name("target", i) for i in range(4)]
        faulty_driver = driver_name("caller", 3)
        # (message, whether the codec itself refuses it).
        ill_typed = [
            # A list where a RequestId belongs.
            (OutRequest(
                request_id=["x", 1],
                caller=ServiceId("caller"),
                target=ServiceId("target"),
                payload=b"<ill-typed/>",
                responder_index=0,
            ), False),
            # A ServiceId whose name is a list, inside the request id
            # and as the caller.
            (OutRequest(
                request_id=RequestId(ServiceId(["caller"]), 5),
                caller=ServiceId(["caller"]),
                target=ServiceId("target"),
                payload=b"<ill-typed/>",
                responder_index=0,
            ), True),
        ]
        for message, refused in ill_typed:
            inject(runtime, faulty_driver, voters, message,
                   refused_by_codec=refused)
        # A faulty target voter answers the callers with a bundle whose
        # request id is a list.
        drivers = [driver_name("caller", i) for i in range(4)]
        inject(
            runtime, voter_name("target", 3), drivers,
            ReplyBundle(request_id=["x", 1], result=None, vouchers=()),
        )
        runtime.run(until_s=30)
        for voter in target.voters:
            assert voter.delivered_requests == baseline
            assert voter._channel.rejected_count == len(ill_typed)
        for driver in caller.drivers:
            assert driver._channel.rejected_count == 1
            assert driver.completed_calls == 2


class TestCrashFaults:
    def test_crashed_target_replica_tolerated(self):
        """One crashed target replica (within f=1) is invisible to callers."""
        spec = two_tier(4, 4, calls=5, name="crash-one").crash("target", 3)
        runtime = run_sim(spec.build(), until_s=120)
        assert runtime._groups["caller"].drivers[0].completed_calls == 5

    def test_crashed_target_primary_recovered_by_view_change(self):
        """Killing the target primary (voter 0) forces a CLBFT view change
        inside the target group; callers eventually complete."""
        spec = two_tier(
            4, 4, calls=3, name="crash-primary",
            target_clbft={"view_change_timeout_us": 100_000},
        ).crash("target", 0)
        runtime = run_sim(spec.build(), until_s=300)
        assert runtime._groups["caller"].drivers[0].completed_calls == 3
        views = {v.replica.view for v in runtime._groups["target"].voters[1:]}
        assert views and min(views) >= 1  # a view change really happened


class TestCompromisedTarget:
    def test_deterministic_abort_preserves_caller_liveness(self):
        """All target replicas silent (compromised beyond f): callers with a
        timeout abort deterministically — same outcome on every replica."""
        spec = two_tier(4, 4, calls=2, name="compromised", timeout_ms=300)
        for i in range(4):
            spec.crash("target", i)
        runtime = run_sim(spec.build(), until_s=120)
        driver = runtime._groups["caller"].drivers[0]
        assert driver.aborted_calls == 2
        assert driver.completed_calls == 0
        # All four replicas saw the same fault sequence (consistent state).
        assert replies(runtime) == ["FAULT"] * 8

    def test_no_timeout_means_no_abort(self):
        """Paper: 'The default behavior in Perpetual-WS is not to abort any
        outstanding requests.'"""
        spec = two_tier(4, 4, calls=1, name="no-abort", timeout_ms=None)
        for i in range(4):
            spec.crash("target", i)
        runtime = run_sim(spec.build(), until_s=20)
        driver = runtime._groups["caller"].drivers[0]
        assert driver.aborted_calls == 0
        assert driver.completed_calls == 0
        assert replies(runtime) == []  # still blocked, never resolved


class TestLateRepliesAfterAbort:
    def test_reply_arriving_after_abort_is_ignored_consistently(self):
        """A very slow (but correct) target whose reply lands after the
        abort decision: every caller replica must stick with the abort."""
        spec = two_tier(4, 4, calls=1, name="late-reply", timeout_ms=200)
        # Delay everything leaving the target service by 800ms.
        for i in range(4):
            spec.link_fault(f"target/v{i}", "*", extra_delay_us=800_000)
        runtime = run_sim(spec.build(), until_s=120)
        driver = runtime._groups["caller"].drivers[0]
        assert driver.aborted_calls == 1
        assert replies(runtime) == ["FAULT"] * 4
