"""Fixture: wire-contract rules fire outside the allowlisted layer.

``repro/perpetual`` is protocol code, so direct codec/digest calls and
hand-built envelopes are exactly what WIRE001-003 exist to catch.
"""

from repro.common.encoding import decode_message, encode_message
from repro.crypto.digest import digest, digest_hex
from repro.transport.wire import (
    WireEnvelope,
    envelope_from_bytes,
    envelope_from_wire,
    envelope_to_bytes,
    envelope_to_wire,
)


def frame(msg):
    return encode_message(msg)  # expect: WIRE001


def unframe(payload):
    return decode_message(payload)  # expect: WIRE001


def hop_frame(envelope):
    return envelope_to_bytes(envelope)  # expect: WIRE001


def hop_parse(data):
    return envelope_from_bytes(data, 0)  # expect: WIRE001


def embed_proof(envelopes):
    return [envelope_to_wire(e) for e in envelopes]  # expect: WIRE001


def unembed_proof(proof):
    return [envelope_from_wire(p) for p in proof]  # expect: WIRE001


def proof_digest(payload):
    return digest(payload)  # expect: WIRE002


def match_key(reply):
    return digest_hex(("reply", reply))  # expect: WIRE002


def forge(sender, payload):
    return WireEnvelope(sender, payload, b"")  # expect: WIRE003
