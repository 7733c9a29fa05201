"""Unit tests for wire framing and embedded-envelope encoding."""

import copy
import pickle

from repro.common.encoding import canonical_encode, decode_payload
from repro.crypto.auth import AuthenticatorFactory
from repro.transport.wire import (
    PlainItem,
    WireEnvelope,
    auth_from_wire,
    auth_to_wire,
    envelope_from_wire,
    envelope_to_wire,
)


class TestAuthWire:
    def test_roundtrip(self, keys):
        auth = AuthenticatorFactory(keys, "a").sign(b"data", ["b", "c"])
        restored = auth_from_wire(auth_to_wire(auth))
        assert restored == auth

    def test_wire_form_canonically_encodable(self, keys):
        auth = AuthenticatorFactory(keys, "a").sign(b"data", ["b"])
        encoded = canonical_encode(auth_to_wire(auth))
        assert auth_from_wire(decode_payload(encoded)) == auth


class TestEnvelopeWire:
    def test_roundtrip(self, keys):
        auth = AuthenticatorFactory(keys, "a").sign(b"data", ["b"])
        envelope = WireEnvelope(payload=b"data", auth=auth)
        restored = envelope_from_wire(envelope_to_wire(envelope))
        assert restored == envelope

    def test_embedded_envelope_still_verifies(self, keys):
        # The fc+1 proof path: envelopes embedded in agreement payloads
        # must verify after a full encode/decode cycle.
        auth = AuthenticatorFactory(keys, "a").sign(b"data", ["b"])
        envelope = WireEnvelope(payload=b"data", auth=auth)
        wire = decode_payload(canonical_encode(envelope_to_wire(envelope)))
        restored = envelope_from_wire(wire)
        verifier = AuthenticatorFactory(keys, "b")
        assert verifier.verify(restored.payload, restored.auth)

    def test_size_grows_with_receivers(self, keys):
        auth1 = AuthenticatorFactory(keys, "a").sign(b"data", ["b"])
        auth9 = AuthenticatorFactory(keys, "a").sign(
            b"data", [f"r{i}" for i in range(9)]
        )
        assert (
            WireEnvelope(b"data", auth9).size_bytes
            > WireEnvelope(b"data", auth1).size_bytes
        )


class TestPlainItem:
    def test_copies_are_the_same_item(self):
        item = PlainItem(b"data")
        assert item == ("p", b"data")
        for restored in (copy.copy(item), copy.deepcopy(item),
                         pickle.loads(pickle.dumps(item))):
            assert type(restored) is PlainItem
            assert restored == item
