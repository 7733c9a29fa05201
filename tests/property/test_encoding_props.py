"""Property-based tests: the canonical codec.

Invariants: encode/decode is the identity on the supported value domain;
encoding is deterministic; distinct values get distinct encodings (within
generated samples).
"""

from hypothesis import given, settings, strategies as st

from repro.common.encoding import (
    WireBlob,
    canonical_encode,
    decode_payload,
    wire_blob,
)
from repro.common.ids import MessageId, NodeId, ReplicaId, RequestId, ServiceId

service_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)

replica_ids = st.builds(
    ReplicaId, st.builds(ServiceId, service_names),
    st.integers(min_value=0, max_value=64),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=40,
    ),
    st.binary(max_size=40),
    st.builds(ServiceId, service_names),
    st.builds(
        RequestId, st.builds(ServiceId, service_names),
        st.integers(min_value=0, max_value=2**32),
    ),
    replica_ids,
    st.builds(NodeId, replica_ids, st.sampled_from(["voter", "driver"])),
    st.builds(
        MessageId,
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=24,
        ),
    ),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=6,
            ),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(values)
@settings(max_examples=200)
def test_roundtrip_identity(value):
    assert decode_payload(canonical_encode(value)) == value


@given(values)
@settings(max_examples=100)
def test_encoding_deterministic(value):
    assert canonical_encode(value) == canonical_encode(value)


@given(values, values)
@settings(max_examples=100)
def test_injective_on_samples(a, b):
    if canonical_encode(a) == canonical_encode(b):
        assert decode_payload(canonical_encode(a)) == decode_payload(
            canonical_encode(b)
        )


@given(st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.integers(min_value=0, max_value=9),
    max_size=6,
))
@settings(max_examples=100)
def test_key_order_irrelevant(d):
    reordered = dict(reversed(list(d.items())))
    assert canonical_encode(d) == canonical_encode(reordered)


@given(values)
@settings(max_examples=100)
def test_wire_blob_matches_direct_encode(value):
    blob = WireBlob(value)
    assert blob.data == canonical_encode(value)
    assert decode_payload(blob.data) == value


@given(values)
@settings(max_examples=100)
def test_wire_blob_cache_roundtrips(value):
    container = [value]
    blob = wire_blob(container)
    assert wire_blob(blob) is blob  # a blob passes through, encoded once
    assert decode_payload(blob.data) == [value]
