"""Fixture: sanctioned wire usage in protocol code — zero findings.

Covers the three negatives the wire family promises: codecs injected as
parameters (not called), the cached WireBlob path, and documented
suppressions. A local helper named ``digest`` also checks that WIRE002
only tracks names imported from repro.crypto.digest.
"""

from repro.common.encoding import decode_payload, wire_blob
from repro.crypto.digest import digest_hex


def make_channel(channel_class, me, keys, connection):
    # Passing the codec as a parameter hands it to the channel: sanctioned.
    return channel_class(me, keys, connection, decode=decode_payload)


def blob_digest(msg):
    return wire_blob(msg).digest  # the digest-once path


def digest(state):  # an unrelated local helper, not the crypto digest
    return sum(state)


def local_helper(state):
    return digest(state)  # resolves to the helper above: not flagged


def suppressed_key(reply):
    # analysis: allow(WIRE002) — fixture: cached upstream, documented
    return digest_hex(("reply", reply))
