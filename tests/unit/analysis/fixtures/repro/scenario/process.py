"""Fixture: the substrate boundary may frame a hop — zero findings.

``scenario/process.py`` is the one module outside ``transport/`` that
WIRE001 lets call the binary envelope codec (and the canonical codec,
for its control frames).
"""

from repro.common.encoding import canonical_encode, decode_payload
from repro.transport.wire import envelope_from_bytes, envelope_to_bytes


def net_frame(src, dst, envelope):
    return b"net\x00" + src + b"\x00" + dst + b"\x00" + envelope_to_bytes(envelope)


def parse(data, offset):
    return envelope_from_bytes(data, offset)


def control(*parts):
    return decode_payload(canonical_encode(parts))
