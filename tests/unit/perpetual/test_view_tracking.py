"""View tracking on the request path: target voters hint their view on
retransmitted stage-1 copies, calling drivers adopt a view f+1 voters
vouch for and send first attempts to its primary."""

import pytest

from repro.clbft.messages import decode_message, encode_message
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.driver import DriverNode
from repro.perpetual.group import Topology
from repro.perpetual.messages import AgreedEvent, OutRequest, ViewHint
from repro.perpetual.voter import VoterNode, driver_name, voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.soap.envelope import SoapEnvelope
from repro.transport.wire import WireEnvelope
from repro.ws.adapter import WsAdapter
from repro.ws.api import MessageContext, MessageHandler


def tapped_simulator():
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    taps = []
    original = sim.post_message

    def tapping(src, dst, msg, size_bytes):
        taps.append((str(src), str(dst), msg))
        original(src, dst, msg, size_bytes)

    sim.post_message = tapping
    return sim, taps


def sent(taps, kind):
    """(src, dst, message) of every tapped envelope carrying a ``kind``."""
    out = []
    for src, dst, msg in taps:
        if isinstance(msg, WireEnvelope):
            decoded = decode_message(msg.payload)
            if isinstance(decoded, kind):
                out.append((src, dst, decoded))
    return out


def signed(keys, sender, receiver, message):
    payload = encode_message(message)
    auth = AuthenticatorFactory(keys, sender).sign(payload, [receiver])
    return WireEnvelope(payload=payload, auth=auth)


# ---------------------------------------------------------------------------
# Driver side: adoption
# ---------------------------------------------------------------------------


@pytest.fixture
def rig():
    """caller/d0 issuing two calls in a row at a 4-replica target."""
    topology = Topology()
    for service in ("caller", "target", "other"):
        topology.add(service, 4)
    keys = KeyStore.for_deployment("view-tracking")
    sim, taps = tapped_simulator()

    def app():
        for _ in range(2):
            yield MessageHandler.send_receive(
                MessageContext(to="target", body={})
            )

    adapter = WsAdapter(service="caller", app_factory=app)
    driver = DriverNode(
        topology=topology, service="caller", index=0, keys=keys,
        app_factory=adapter.executor_app(),
    )
    driver.attach(sim.add_node("caller/d0", driver))
    sim.run(until_us=10_000)

    def hint(sender, view):
        driver.on_message(
            sender, signed(keys, sender, "caller/d0", ViewHint(view=view))
        )

    def next_first_attempt():
        """Settle the outstanding call; where does the next one go?"""
        rid = next(iter(driver._outstanding))
        taps.clear()
        driver._on_agreed_event(AgreedEvent(kind="reply", body={
            "request_id": rid,
            "value": SoapEnvelope(body={}).to_xml(),
            "aborted": False,
        }))
        sim.run(until_us=20_000)
        return {dst for _, dst, r in sent(taps, OutRequest) if r.attempt == 0}

    return hint, next_first_attempt


class TestDriverAdoption:
    def test_unprompted_driver_targets_view_zero(self, rig):
        __, next_first_attempt = rig
        assert next_first_attempt() == {"target/v0"}

    def test_f_plus_one_distinct_voters_move_the_primary(self, rig):
        hint, next_first_attempt = rig
        hint("target/v2", 1)
        hint("target/v3", 1)
        assert next_first_attempt() == {"target/v1"}

    def test_one_voter_is_not_enough_however_often_it_reports(self, rig):
        hint, next_first_attempt = rig
        hint("target/v2", 1)
        hint("target/v2", 2)
        assert next_first_attempt() == {"target/v0"}

    def test_one_arbitrarily_high_report_steers_nothing(self, rig):
        hint, next_first_attempt = rig
        hint("target/v3", 10**9 + 2)
        assert next_first_attempt() == {"target/v0"}

    def test_adopts_the_view_f_plus_one_voters_reached(self, rig):
        hint, next_first_attempt = rig
        hint("target/v3", 10**9 + 2)  # the liar
        hint("target/v1", 1)
        hint("target/v2", 2)
        # Second-largest report: some correct voter is in view >= 2.
        assert next_first_attempt() == {"target/v2"}

    def test_reports_never_lower_an_adopted_view(self, rig):
        hint, next_first_attempt = rig
        hint("target/v0", 2)
        hint("target/v1", 2)
        hint("target/v0", 0)
        hint("target/v1", 1)
        hint("target/v3", 1)
        assert next_first_attempt() == {"target/v2"}

    def test_hint_from_a_driver_principal_ignored(self, rig):
        hint, next_first_attempt = rig
        hint("target/d1", 1)
        hint("target/d2", 1)
        assert next_first_attempt() == {"target/v0"}

    def test_hint_from_another_services_voters_ignored(self, rig):
        hint, next_first_attempt = rig
        hint("other/v1", 1)
        hint("other/v2", 1)
        hint("caller/v1", 1)
        assert next_first_attempt() == {"target/v0"}

    def test_hint_from_outside_the_group_ignored(self, rig):
        hint, next_first_attempt = rig
        hint("target/v2", 1)
        hint("target/v7", 1)  # n = 4: no such voter
        hint("nowhere/v1", 1)
        assert next_first_attempt() == {"target/v0"}

    def test_malformed_view_ignored(self, rig):
        hint, next_first_attempt = rig
        hint("target/v2", "1")
        hint("target/v3", None)
        assert next_first_attempt() == {"target/v0"}


# ---------------------------------------------------------------------------
# Voter side: when a hint is sent
# ---------------------------------------------------------------------------


@pytest.fixture
def voter_rig():
    """target/v2 alone on a simulator, fed stage-1 copies by hand."""
    topology = Topology()
    topology.add("caller", 4)
    topology.add("target", 4)
    keys = KeyStore.for_deployment("view-tracking")
    sim, taps = tapped_simulator()
    voter = VoterNode(topology=topology, service="target", index=2, keys=keys)
    voter.attach(sim.add_node("target/v2", voter))

    def copy(driver_index, attempt, seqno=1):
        sender = driver_name("caller", driver_index)
        request = OutRequest(
            request_id=RequestId(ServiceId("caller"), seqno),
            caller=ServiceId("caller"), target=ServiceId("target"),
            payload=b"p", responder_index=(seqno + attempt) % 4,
            attempt=attempt,
        )
        payload = encode_message(request)
        auth = AuthenticatorFactory(keys, sender).sign(
            payload, [voter_name("target", i) for i in range(4)]
        )
        voter.on_message(sender, WireEnvelope(payload=payload, auth=auth))
        sim.run(until_us=sim.now_us + 1_000)

    def hints():
        return [(dst, h.view) for _, dst, h in sent(taps, ViewHint)]

    return voter, copy, hints, taps


class TestVoterHints:
    def test_no_hint_in_view_zero(self, voter_rig):
        __, copy, hints, __ = voter_rig
        copy(0, attempt=0)
        copy(0, attempt=1)
        assert hints() == []

    def test_no_hint_for_first_attempts(self, voter_rig):
        voter, copy, hints, taps = voter_rig
        voter.replica.view = 1
        copy(0, attempt=0)
        copy(1, attempt=0)
        assert hints() == []

    def test_retransmission_answered_once_per_driver_per_view(self, voter_rig):
        voter, copy, hints, taps = voter_rig
        voter.replica.view = 1
        copy(0, attempt=1)
        copy(0, attempt=2)
        copy(0, attempt=1, seqno=2)
        assert hints() == [("caller/d0", 1)]
        copy(1, attempt=1)
        assert hints() == [("caller/d0", 1), ("caller/d1", 1)]
        voter.replica.view = 2
        copy(0, attempt=3)
        copy(0, attempt=4)
        assert hints() == [
            ("caller/d0", 1), ("caller/d1", 1), ("caller/d0", 2),
        ]

    def test_hint_is_authenticated_for_the_driver(self, voter_rig):
        voter, copy, hints, taps = voter_rig
        voter.replica.view = 3
        copy(3, attempt=1)
        assert hints() == [("caller/d3", 3)]
        envelope = next(
            msg for _, _, msg in taps
            if isinstance(msg, WireEnvelope)
            and isinstance(decode_message(msg.payload), ViewHint)
        )
        assert envelope.auth.sender == "target/v2"
        verifier = AuthenticatorFactory(
            KeyStore.for_deployment("view-tracking"), "caller/d3"
        )
        assert verifier.verify(envelope.payload, envelope.auth)
