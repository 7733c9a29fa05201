"""Property tests: the canonical codec round-trips, and decodes only
canonical bytes.

Replicas MAC and digest the codec's bytes and read each other's, so two
properties carry the weight: ``decode_message(encode_message(m)) == m``
for every message, and for *any* input bytes ``b`` decoding either
raises :class:`ProtocolError` or returns ``v`` with
``encode_message(v) == b`` — a faulty sender cannot make two correct
replicas see different values behind one byte string, or one value
behind two.
"""

from hypothesis import given, settings, strategies as st

from repro.clbft.messages import (
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
    decode_message,
    encode_message,
)
from repro.common.errors import ProtocolError
from repro.common.ids import RequestId, ServiceId
from repro.perpetual.messages import OutRequest, ReplyBundle, ResultSubmission

service_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)
request_ids = st.builds(
    RequestId, st.builds(ServiceId, service_names),
    st.integers(min_value=0, max_value=2**32),
)

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=24,
        ),
        # Non-ASCII characters take multi-byte UTF-8 forms.
        st.text(max_size=12),
        st.binary(max_size=24),
        request_ids,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=6,
            ),
            children,
            max_size=3,
        ),
    ),
    max_leaves=8,
)

out_requests = st.builds(
    OutRequest,
    request_id=request_ids,
    caller=st.builds(ServiceId, service_names),
    target=st.builds(ServiceId, service_names),
    payload=payloads,
    responder_index=st.integers(min_value=0, max_value=9),
    attempt=st.integers(min_value=0, max_value=3),
)

client_requests = st.builds(
    ClientRequest,
    client=service_names,
    timestamp=st.integers(min_value=0, max_value=2**32),
    op=payloads,
)

messages = st.one_of(
    payloads,
    out_requests,
    client_requests,
    st.builds(
        Prepare,
        view=st.integers(min_value=0, max_value=9),
        seqno=st.integers(min_value=0, max_value=999),
        digest=st.binary(min_size=32, max_size=32),
        replica=st.integers(min_value=0, max_value=9),
    ),
    st.builds(
        Commit,
        view=st.integers(min_value=0, max_value=9),
        seqno=st.integers(min_value=0, max_value=999),
        digest=st.binary(min_size=32, max_size=32),
        replica=st.integers(min_value=0, max_value=9),
    ),
    st.builds(
        PrePrepare,
        view=st.integers(min_value=0, max_value=9),
        seqno=st.integers(min_value=0, max_value=999),
        digest=st.binary(min_size=32, max_size=32),
        requests=st.lists(client_requests, max_size=3).map(tuple),
    ),
    st.builds(
        ResultSubmission,
        request_id=request_ids,
        result=payloads,
        aborted=st.booleans(),
    ),
    st.builds(
        ReplyBundle,
        request_id=request_ids,
        result=payloads,
        vouchers=st.lists(
            st.tuples(st.integers(min_value=0, max_value=9), payloads),
            max_size=3,
        ).map(tuple),
    ),
)


@given(messages)
@settings(max_examples=300)
def test_message_roundtrip_identity(msg):
    assert decode_message(encode_message(msg)) == msg


def _decodes_canonically(data: bytes) -> None:
    try:
        value = decode_message(data)
    except ProtocolError:
        return
    assert encode_message(value) == data


@given(st.binary(max_size=64))
@settings(max_examples=500)
def test_arbitrary_bytes_decode_canonically_or_not_at_all(data):
    _decodes_canonically(data)


@st.composite
def mutated_encodings(draw):
    """A message's encoding with one byte flipped, inserted, deleted, or
    the tail cut off."""
    data = bytearray(encode_message(draw(messages)))
    at = draw(st.integers(min_value=0, max_value=len(data) - 1))
    how = draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
    if how == "flip":
        data[at] ^= draw(st.integers(min_value=1, max_value=255))
    elif how == "insert":
        data.insert(at, draw(st.integers(min_value=0, max_value=255)))
    elif how == "delete":
        del data[at]
    else:
        del data[at:]
    return bytes(data)


@given(mutated_encodings())
@settings(max_examples=500)
def test_mutated_encodings_decode_canonically_or_not_at_all(data):
    _decodes_canonically(data)
