"""Calling drivers route stage 1 around target voters they suspect.

A driver suspects the responder of a call whose retransmission timer
fired, the responder it named when another voter bundles the call, and
the primary of a view the target group left. It clears a voter that
sends or vouches in a verified bundle, keeps at most ``ft`` suspects
(the oldest drops), and skips suspects when it names a responder or
picks the voter its first attempts go to.
"""

import pytest

from repro.clbft.messages import decode_message, encode_message
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.driver import DriverNode
from repro.perpetual.group import Topology
from repro.perpetual.messages import (
    AgreedEvent,
    OutRequest,
    ReplyBundle,
    ViewHint,
    reply_auth_bytes,
)
from repro.perpetual.voter import voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.soap.envelope import SoapEnvelope
from repro.transport.wire import WireEnvelope, auth_to_wire
from repro.ws.adapter import WsAdapter
from repro.ws.api import MessageContext, MessageHandler

RESULT = SoapEnvelope(body={}).to_xml()


class Rig:
    """caller/d0 issuing calls one after another at a 4-voter target."""

    def __init__(self):
        topology = Topology()
        topology.add("caller", 4)
        topology.add("target", 4)
        self.keys = KeyStore.for_deployment("responder-suspicion")
        self.sim = Simulator()
        self.sim.set_network(UniformLatency(0))
        self.taps = []
        original = self.sim.post_message

        def tapping(src, dst, msg, size_bytes):
            self.taps.append((str(dst), msg))
            original(src, dst, msg, size_bytes)

        self.sim.post_message = tapping

        def app():
            while True:
                yield MessageHandler.send_receive(
                    MessageContext(to="target", body={})
                )

        adapter = WsAdapter(service="caller", app_factory=app)
        self.driver = DriverNode(
            topology=topology, service="caller", index=0, keys=self.keys,
            app_factory=adapter.executor_app(),
        )
        self.driver.attach(self.sim.add_node("caller/d0", self.driver))
        self.sim.run(until_us=10_000)

    def _signed(self, sender, message):
        payload = encode_message(message)
        auth = AuthenticatorFactory(self.keys, sender).sign(
            payload, ["caller/d0"]
        )
        return WireEnvelope(payload=payload, auth=auth)

    @property
    def request_id(self):
        return next(iter(self.driver._outstanding))

    def sent_requests(self):
        """(destination, request) of every stage-1 copy sent so far."""
        out = []
        for dst, msg in self.taps:
            if isinstance(msg, WireEnvelope):
                decoded = decode_message(msg.payload)
                if isinstance(decoded, OutRequest):
                    out.append((dst, decoded))
        return out

    def time_out(self):
        """Let the outstanding call's retransmission timer fire once."""
        self.sim.run(until_us=self.sim.now_us + 300_000)

    def bundle(self, sender, vouchers):
        data = reply_auth_bytes(self.request_id, RESULT)
        entries = tuple(
            (i, auth_to_wire(AuthenticatorFactory(
                self.keys, voter_name("target", i)).sign(data, ["caller/d0"])))
            for i in vouchers
        )
        bundle = ReplyBundle(
            request_id=self.request_id, result=RESULT, vouchers=entries
        )
        name = voter_name("target", sender)
        self.driver.on_message(name, self._signed(name, bundle))

    def hint(self, sender, view):
        name = voter_name("target", sender)
        self.driver.on_message(name, self._signed(name, ViewHint(view=view)))

    def settle(self):
        """Complete the outstanding call; return the next first attempt
        as (destination, responder index)."""
        self.driver._on_agreed_event(AgreedEvent(kind="reply", body={
            "request_id": self.request_id, "value": RESULT, "aborted": False,
        }))
        self.taps.clear()
        self.sim.run(until_us=self.sim.now_us + 1_000)
        (dst, request), = self.sent_requests()
        assert request.attempt == 0
        return dst, request.responder_index

    def settle_until(self, seqno):
        """Settle calls until the outstanding one has ``seqno``."""
        while self.request_id.seqno != seqno:
            first = self.settle()
        return first


@pytest.fixture
def rig():
    return Rig()


def test_fault_free_rotation_is_unchanged(rig):
    assert rig.request_id.seqno == 1
    for seqno in range(2, 7):
        assert rig.settle() == ("target/v0", seqno % 4)


def test_timed_out_responder_is_skipped_by_later_calls(rig):
    rig.time_out()  # call 1 named responder 1
    retries = [r for __, r in rig.sent_requests() if r.attempt == 1]
    assert {r.responder_index for r in retries} == {2}
    rig.bundle(2, vouchers=(2, 3))
    assert rig.settle_until(5) == ("target/v0", 2)


def test_bundle_from_another_voter_suspects_the_named_responder(rig):
    rig.bundle(2, vouchers=(2, 3))  # call 1 named responder 1
    assert rig.settle_until(5) == ("target/v0", 2)


def test_a_voucher_is_cleared(rig):
    rig.time_out()
    rig.bundle(2, vouchers=(1, 2))  # responder 1 vouches: it is alive
    assert rig.settle_until(5) == ("target/v0", 1)


def test_at_most_f_voters_are_suspected(rig):
    rig.bundle(2, vouchers=(2, 3))  # suspects 1
    rig.settle()
    rig.bundle(3, vouchers=(3, 0))  # call 2 named 2: suspects 2, drops 1
    assert rig.settle_until(5) == ("target/v0", 1)
    assert rig.settle() == ("target/v0", 3)  # seqno 6 names 2: skipped


def test_suspected_primary_is_passed_over_for_first_attempts(rig):
    rig.settle_until(4)  # names responder 0, the view-0 primary
    rig.bundle(1, vouchers=(1, 2))
    assert rig.settle() == ("target/v1", 1)
    rig.bundle(1, vouchers=(1, 0))  # the old primary vouches again
    assert rig.settle() == ("target/v0", 2)


def test_the_primary_of_a_view_left_behind_is_suspected(rig):
    rig.hint(2, 1)
    rig.hint(3, 1)
    assert rig.settle() == ("target/v1", 2)
    assert rig.settle_until(4) == ("target/v1", 1)
