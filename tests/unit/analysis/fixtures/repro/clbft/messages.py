"""Fixture: a codec module is not a transport hop.

``clbft/messages.py`` is on the WIRE001 allowlist for the canonical
codec (it names that codec's message entry points), but the binary envelope form
belongs to ``transport/`` and ``scenario/process.py`` alone.
"""

from repro.common.encoding import canonical_encode
from repro.transport.wire import envelope_to_bytes


def encode(parts):
    return canonical_encode(parts)  # the codec's own business: not flagged


def frame(envelope):
    return envelope_to_bytes(envelope)  # expect: WIRE001
