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

from repro.clbft.messages import decode_message, encode_message
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.perpetual.messages import OutRequest
from repro.perpetual.voter import voter_name
from repro.sim.network import LanModel, PartitionModel
from repro.transport.wire import WireEnvelope
from repro.scenario.sim import Deployment
from tests.integration.helpers import (
    build_two_tier,
    counter_service,
    scripted_caller,
)


class TestRequestInjection:
    def test_single_faulty_caller_cannot_inject(self):
        """One faulty calling driver (fc=1 tolerated) forges a request; the
        target (n=4) must never execute it: stage 2 demands fc+1=2 matching
        authenticated copies."""
        deployment, results, caller, target = build_two_tier(4, 4, calls=2)
        deployment.run(seconds=30)
        baseline = target.group.voters[0].delivered_requests

        # Forge a request from caller driver 3 (a single faulty replica).
        forged = OutRequest(
            request_id=RequestId(ServiceId("caller"), 999),
            caller=ServiceId("caller"),
            target=ServiceId("target"),
            payload=b"<forged/>",
            responder_index=0,
            attempt=0,
        )
        payload = encode_message(forged)
        assert decode_message(payload) == forged
        faulty_driver = "caller/d3"
        voters = [voter_name("target", i) for i in range(4)]
        auth = AuthenticatorFactory(deployment.keys, faulty_driver).sign(
            payload, voters
        )
        envelope = WireEnvelope(payload=payload, auth=auth)
        env = deployment.sim.env(faulty_driver)
        for voter in voters:
            deployment.sim.post_message(faulty_driver, voter, envelope, 512)
        deployment.run(seconds=30)
        # The forged request never reached any target executor.
        for voter in target.group.voters:
            assert voter.delivered_requests == baseline

    def test_two_matching_faulty_callers_meet_quorum_but_need_macs(self):
        """Even fc+1 copies are useless without valid pairwise MACs: an
        outsider who does not hold the deployment keys cannot fabricate
        them."""
        deployment, results, caller, target = build_two_tier(4, 4, calls=1)
        deployment.run(seconds=30)
        baseline = target.group.voters[0].delivered_requests

        from repro.crypto.keys import KeyStore

        outsider_keys = KeyStore.for_deployment("attacker")
        forged = OutRequest(
            request_id=RequestId(ServiceId("caller"), 777),
            caller=ServiceId("caller"),
            target=ServiceId("target"),
            payload=b"<forged/>",
            responder_index=0,
            attempt=0,
        )
        payload = encode_message(forged)
        assert decode_message(payload) == forged
        voters = [voter_name("target", i) for i in range(4)]
        for driver_index in (2, 3):
            sender = f"caller/d{driver_index}"
            auth = AuthenticatorFactory(outsider_keys, sender).sign(
                payload, voters
            )
            envelope = WireEnvelope(payload=payload, auth=auth)
            for voter in voters:
                deployment.sim.post_message(sender, voter, envelope, 512)
        deployment.run(seconds=30)
        for voter in target.group.voters:
            assert voter.delivered_requests == baseline


class TestCrashFaults:
    def test_crashed_target_replica_tolerated(self):
        """One crashed target replica (within f=1) is invisible to callers."""
        network = PartitionModel(LanModel())
        deployment = Deployment(name="crash-one", network=network)
        deployment.declare("caller", 4)
        deployment.declare("target", 4)
        target = deployment.add_service("target", counter_service())
        results = []
        caller = deployment.add_service(
            "caller", scripted_caller("target", 5, results)
        )
        network.kill("target/v3")
        network.kill("target/d3")
        deployment.run(seconds=120)
        assert caller.group.drivers[0].completed_calls == 5

    def test_crashed_target_primary_recovered_by_view_change(self):
        """Killing the target primary (voter 0) forces a CLBFT view change
        inside the target group; callers eventually complete."""
        network = PartitionModel(LanModel())
        deployment = Deployment(name="crash-primary", network=network)
        deployment.declare("caller", 4)
        deployment.declare("target", 4)
        target = deployment.add_service(
            "target", counter_service(),
            clbft_overrides={"view_change_timeout_us": 100_000},
        )
        results = []
        caller = deployment.add_service(
            "caller", scripted_caller("target", 3, results)
        )
        network.kill("target/v0")
        network.kill("target/d0")
        deployment.run(seconds=300)
        assert caller.group.drivers[0].completed_calls == 3
        views = {v.replica.view for v in target.group.voters[1:]}
        assert views and min(views) >= 1  # a view change really happened


class TestCompromisedTarget:
    def test_deterministic_abort_preserves_caller_liveness(self):
        """All target replicas silent (compromised beyond f): callers with a
        timeout abort deterministically — same outcome on every replica."""
        network = PartitionModel(LanModel())
        deployment = Deployment(name="compromised", network=network)
        deployment.declare("caller", 4)
        deployment.declare("target", 4)
        target = deployment.add_service("target", counter_service())
        results = []
        caller = deployment.add_service(
            "caller",
            scripted_caller("target", 2, results, timeout_ms=300),
        )
        for i in range(4):
            network.kill(f"target/v{i}")
            network.kill(f"target/d{i}")
        deployment.run(seconds=120)
        driver = caller.group.drivers[0]
        assert driver.aborted_calls == 2
        assert driver.completed_calls == 0
        # All four replicas saw the same fault sequence (consistent state).
        assert results == ["FAULT"] * 8

    def test_no_timeout_means_no_abort(self):
        """Paper: 'The default behavior in Perpetual-WS is not to abort any
        outstanding requests.'"""
        network = PartitionModel(LanModel())
        deployment = Deployment(name="no-abort", network=network)
        deployment.declare("caller", 4)
        deployment.declare("target", 4)
        deployment.add_service("target", counter_service())
        results = []
        caller = deployment.add_service(
            "caller", scripted_caller("target", 1, results, timeout_ms=None)
        )
        for i in range(4):
            network.kill(f"target/v{i}")
            network.kill(f"target/d{i}")
        deployment.run(seconds=20)
        driver = caller.group.drivers[0]
        assert driver.aborted_calls == 0
        assert driver.completed_calls == 0
        assert results == []  # still blocked, never resolved


class TestLateRepliesAfterAbort:
    def test_reply_arriving_after_abort_is_ignored_consistently(self):
        """A very slow (but correct) target whose reply lands after the
        abort decision: every caller replica must stick with the abort."""
        from repro.sim.network import FaultyLink

        base = FaultyLink(LanModel())
        # Delay everything leaving the target service by 800ms.
        for i in range(4):
            base.add_rule(f"target/v{i}", "*", extra_delay_us=800_000)
        deployment = Deployment(name="late-reply", network=base)
        deployment.declare("caller", 4)
        deployment.declare("target", 4)
        deployment.add_service("target", counter_service())
        results = []
        caller = deployment.add_service(
            "caller", scripted_caller("target", 1, results, timeout_ms=200)
        )
        deployment.run(seconds=120)
        driver = caller.group.drivers[0]
        assert driver.aborted_calls == 1
        assert results == ["FAULT"] * 4
