"""Unit tests for DriverNode internals: issue, retransmit, bundle checks."""

import pytest

from repro.clbft.messages import decode_message
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.driver import DriverNode
from repro.perpetual.group import Topology
from repro.perpetual.messages import (
    AgreedEvent,
    OutRequest,
    ReplyBundle,
    reply_auth_bytes,
)
from repro.perpetual.voter import voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.transport.wire import WireEnvelope, auth_to_wire
from repro.soap.envelope import SoapEnvelope
from repro.ws.api import MessageContext, MessageHandler
from repro.ws.adapter import WsAdapter


def _soap_reply():
    return SoapEnvelope(body={"ok": True}).to_xml()


@pytest.fixture
def rig():
    """A caller driver wired to a simulator, with a message tap."""
    topology = Topology()
    topology.add("caller", 4)
    topology.add("target", 4)
    keys = KeyStore.for_deployment("driver-unit")
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    taps = []
    original = sim.post_message

    def tapping(src, dst, msg, size_bytes):
        taps.append((str(src), str(dst), msg))
        original(src, dst, msg, size_bytes)

    sim.post_message = tapping

    def app():
        yield MessageHandler.send_receive(MessageContext(to="target", body={}))

    adapter = WsAdapter(service="caller", app_factory=app)
    driver = DriverNode(
        topology=topology, service="caller", index=0, keys=keys,
        app_factory=adapter.executor_app(),
    )
    env = sim.add_node("caller/d0", driver)
    driver.attach(env)
    return sim, driver, taps, keys


def decoded_out_requests(taps, keys=None):
    out = []
    for src, dst, msg in taps:
        if not isinstance(msg, WireEnvelope):
            continue
        try:
            decoded = decode_message(msg.payload)
        except Exception:
            continue
        if isinstance(decoded, OutRequest):
            out.append((src, dst, decoded))
    return out


class TestIssue:
    def test_first_transmission_goes_to_primary_hint_only(self, rig):
        sim, driver, taps, __ = rig
        sim.run(until_us=10_000)
        requests = decoded_out_requests(taps)
        assert requests
        destinations = {dst for _, dst, _ in requests}
        assert destinations == {"target/v0"}

    def test_request_authenticated_for_all_target_voters(self, rig):
        sim, driver, taps, keys = rig
        sim.run(until_us=10_000)
        envelope = next(
            m for _, _, m in taps if isinstance(m, WireEnvelope)
        )
        for i in range(4):
            verifier = AuthenticatorFactory(keys, voter_name("target", i))
            assert verifier.verify(envelope.payload, envelope.auth)

    def test_responder_rotates_deterministically_with_seqno(self, rig):
        sim, driver, taps, __ = rig
        sim.run(until_us=10_000)
        __, __, request = decoded_out_requests(taps)[0]
        assert request.responder_index == request.request_id.seqno % 4


class TestRetransmission:
    def test_retransmit_fans_out_and_rotates_responder(self, rig):
        sim, driver, taps, __ = rig
        sim.run(until_us=10_000)
        taps.clear()
        # No reply ever arrives; let the retransmit timer fire.
        sim.run(until_us=400_000)
        retries = decoded_out_requests(taps)
        destinations = {dst for _, dst, _ in retries}
        assert destinations == {f"target/v{i}" for i in range(4)}
        assert all(r.attempt >= 1 for _, _, r in retries)
        first = decoded_out_requests(taps)[0][2]
        assert first.responder_index == (first.request_id.seqno + first.attempt) % 4


class TestBundleVerification:
    def make_bundle(self, keys, request_id, result, voters, forge=False):
        data = reply_auth_bytes(request_id, result)
        source = KeyStore.for_deployment("evil") if forge else keys
        vouchers = []
        for index in voters:
            auth = AuthenticatorFactory(source, voter_name("target", index)).sign(
                data, ["caller/d0"]
            )
            vouchers.append((index, auth_to_wire(auth)))
        return ReplyBundle(
            request_id=request_id, result=result, vouchers=tuple(vouchers)
        )

    def outstanding_request_id(self, rig):
        sim, driver, taps, keys = rig
        sim.run(until_us=10_000)
        return next(iter(driver._outstanding))

    def test_valid_bundle_accepted(self, rig):
        sim, driver, __, keys = rig
        rid = self.outstanding_request_id(rig)
        bundle = self.make_bundle(keys, rid, b"<r/>", voters=(0, 1))
        assert driver._verify_bundle("target", bundle)

    def test_single_voucher_rejected(self, rig):
        sim, driver, __, keys = rig
        rid = self.outstanding_request_id(rig)
        bundle = self.make_bundle(keys, rid, b"<r/>", voters=(0,))
        assert not driver._verify_bundle("target", bundle)

    def test_duplicate_voucher_indices_rejected(self, rig):
        sim, driver, __, keys = rig
        rid = self.outstanding_request_id(rig)
        bundle = self.make_bundle(keys, rid, b"<r/>", voters=(2, 2))
        assert not driver._verify_bundle("target", bundle)

    def test_forged_macs_rejected(self, rig):
        sim, driver, __, keys = rig
        rid = self.outstanding_request_id(rig)
        bundle = self.make_bundle(keys, rid, b"<r/>", voters=(0, 1), forge=True)
        assert not driver._verify_bundle("target", bundle)

    def test_tampered_result_rejected(self, rig):
        sim, driver, __, keys = rig
        rid = self.outstanding_request_id(rig)
        good = self.make_bundle(keys, rid, b"<r/>", voters=(0, 1))
        tampered = ReplyBundle(
            request_id=rid, result=b"<evil/>", vouchers=good.vouchers
        )
        assert not driver._verify_bundle("target", tampered)


class TestSettlement:
    def test_agreed_reply_settles_and_cancels_timers(self, rig):
        sim, driver, __, keys = rig
        sim.run(until_us=10_000)
        rid = next(iter(driver._outstanding))
        driver._on_agreed_event(
            AgreedEvent(kind="reply",
                        body={"request_id": rid,
                              "value": _soap_reply(),
                              "aborted": False})
        )
        assert rid not in driver._outstanding
        assert driver.completed_calls == 1
        assert not driver._env.timer_armed(("rtx", rid))

    def test_agreed_abort_counts_separately(self, rig):
        sim, driver, __, keys = rig
        sim.run(until_us=10_000)
        rid = next(iter(driver._outstanding))
        driver._on_agreed_event(
            AgreedEvent(kind="reply",
                        body={"request_id": rid, "value": None, "aborted": True})
        )
        assert driver.aborted_calls == 1
        assert driver.completed_calls == 0
