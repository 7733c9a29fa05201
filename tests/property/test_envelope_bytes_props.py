"""Property-based tests: the binary envelope form a transport hop carries.

The JSON wire form (``envelope_to_wire`` through the canonical codec) is
the reference: for every envelope the binary form must decode to the
same object the JSON round trip yields. Beyond that the decoder is
strict, because its input is another principal's bytes: every strict
prefix of a valid encoding raises, appended bytes raise, and a length
prefix that overruns the buffer raises before anything is sliced.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.encoding import canonical_encode, decode_payload
from repro.common.errors import ProtocolError
from repro.crypto.auth import Authenticator
from repro.transport.wire import (
    BatchEnvelope,
    WireEnvelope,
    envelope_from_bytes,
    envelope_from_wire,
    envelope_to_bytes,
    envelope_to_wire,
)

# Principal names are arbitrary text: non-ASCII, and NULs the process
# frame header would choke on but the envelope codec must not.
names = st.text(max_size=12)
# Payloads lean on the bytes a text codec mangles: NUL, high bit, quotes.
payloads = st.one_of(
    st.binary(max_size=96),
    st.lists(st.sampled_from([b"\x00", b"\xff", b'"', b"e", b"p"]), max_size=24)
    .map(b"".join),
)
auths = st.builds(
    Authenticator,
    sender=names,
    entries=st.lists(
        st.tuples(names, st.binary(max_size=40)), max_size=7
    ).map(tuple),
)
plain_envelopes = st.builds(WireEnvelope, payload=payloads, auth=auths)
batch_items = st.one_of(
    st.tuples(st.just("p"), payloads),
    st.tuples(st.just("e"), plain_envelopes),
)
batch_envelopes = st.builds(
    BatchEnvelope,
    items=st.lists(batch_items, max_size=5).map(tuple),
    auth=auths,
)
envelopes = st.one_of(plain_envelopes, batch_envelopes)


def all_payloads(envelope):
    if isinstance(envelope, WireEnvelope):
        return [envelope.payload]
    return [
        value if kind == "p" else value.payload for kind, value in envelope.items
    ]


@given(envelope=envelopes)
@settings(max_examples=300)
def test_roundtrip_matches_the_json_reference(envelope):
    data = envelope_to_bytes(envelope)
    decoded, end = envelope_from_bytes(data, 0)
    assert decoded == envelope
    assert end == len(data)
    assert type(decoded) is type(envelope)
    reference = envelope_from_wire(
        decode_payload(canonical_encode(envelope_to_wire(envelope)))
    )
    assert decoded == reference
    # The decode memos key on the payload object: it must be bytes.
    assert all(type(p) is bytes for p in all_payloads(decoded))


@given(envelope=envelopes, prefix=st.binary(max_size=16))
@settings(max_examples=100)
def test_decodes_at_an_offset_and_from_any_buffer_type(envelope, prefix):
    data = prefix + envelope_to_bytes(envelope)
    for buffer in (data, bytearray(data), memoryview(data)):
        decoded, end = envelope_from_bytes(buffer, len(prefix))
        assert decoded == envelope
        assert end == len(data)
        assert all(type(p) is bytes for p in all_payloads(decoded))


@given(envelope=envelopes)
@settings(max_examples=100)
def test_every_strict_prefix_raises(envelope):
    data = envelope_to_bytes(envelope)
    for cut in range(len(data)):
        with pytest.raises(ProtocolError):
            envelope_from_bytes(data[:cut], 0)


@given(envelope=envelopes, extra=st.binary(min_size=1, max_size=8))
@settings(max_examples=100)
def test_appended_bytes_raise(envelope, extra):
    with pytest.raises(ProtocolError, match="trailing"):
        envelope_from_bytes(envelope_to_bytes(envelope) + extra, 0)


@given(kind=st.integers(0, 255).filter(lambda b: b not in b"eb"))
def test_unknown_kind_byte_raises(kind):
    with pytest.raises(ProtocolError, match="kind"):
        envelope_from_bytes(bytes([kind]) + b"\x00" * 16, 0)


def test_unknown_batch_item_kind_raises():
    batch = BatchEnvelope(
        items=(("p", b"x"),), auth=Authenticator(sender="a", entries=())
    )
    data = bytearray(envelope_to_bytes(batch))
    data[data.index(b"p")] = ord("q")
    with pytest.raises(ProtocolError, match="item kind"):
        envelope_from_bytes(bytes(data), 0)


def test_undecodable_name_raises():
    envelope = WireEnvelope(
        payload=b"", auth=Authenticator(sender="ab", entries=())
    )
    data = envelope_to_bytes(envelope).replace(b"ab", b"\xff\xfe")
    with pytest.raises(ProtocolError, match="malformed"):
        envelope_from_bytes(data, 0)


@pytest.mark.parametrize(
    "data",
    [
        b"e\xff\xff\xff\xff" + b"x" * 8,  # 4 GiB payload in a 13-byte frame
        b"e\x00\x00\x00\x00\xff\xff",  # 64 KiB sender name, none present
        b"b\x00\x01a\x00\x00\xff\xff\xff\xff",  # 4 G items, none present
        b"b\x00\x01a\xff\xff",  # 65535 MAC entries, none present
    ],
)
def test_length_larger_than_the_buffer_raises_without_allocating(data):
    # The announced sizes would take gigabytes if believed; the check is
    # against the buffer, before any slice or list is built.
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            envelope_from_bytes(data, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
