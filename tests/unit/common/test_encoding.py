"""Unit tests for the canonical codec."""

import pytest

from repro.common.encoding import canonical_encode, decode_payload
from repro.common.errors import ProtocolError
from repro.common.ids import NodeId, ReplicaId, RequestId, ServiceId, voter


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**62,
            "",
            "hello",
            "unicode-free ascii only",
            b"",
            b"\x00\xff binary",
            [],
            [1, 2, 3],
            {"a": 1, "b": [True, None]},
            (1, "two", b"3"),
            {"nested": {"deep": [{"x": (1, 2)}]}},
        ],
    )
    def test_roundtrip(self, value):
        assert decode_payload(canonical_encode(value)) == value

    def test_typed_ids_roundtrip(self):
        values = [
            ServiceId("bank"),
            ReplicaId(ServiceId("bank"), 2),
            voter("bank", 1),
            RequestId(ServiceId("store"), 9),
        ]
        for value in values:
            assert decode_payload(canonical_encode(value)) == value

    def test_ids_inside_containers(self):
        value = {"req": RequestId(ServiceId("s"), 1), "nodes": [voter("s", 0)]}
        assert decode_payload(canonical_encode(value)) == value


class TestDeterminism:
    def test_dict_key_order_is_canonicalised(self):
        a = canonical_encode({"x": 1, "y": 2})
        b = canonical_encode({"y": 2, "x": 1})
        assert a == b

    def test_distinct_values_encode_differently(self):
        assert canonical_encode({"a": 1}) != canonical_encode({"a": 2})

    def test_tuple_and_list_are_distinguished(self):
        assert canonical_encode((1, 2)) != canonical_encode([1, 2])
        assert decode_payload(canonical_encode((1, 2))) == (1, 2)
        assert decode_payload(canonical_encode([1, 2])) == [1, 2]

    def test_bool_and_int_are_distinguished(self):
        # JSON true vs 1 must not collapse.
        assert decode_payload(canonical_encode(True)) is True
        assert decode_payload(canonical_encode(1)) == 1


class TestRejections:
    def test_floats_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode(1.5)

    def test_floats_rejected_in_containers(self):
        with pytest.raises(ProtocolError):
            canonical_encode({"x": [1.0]})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode({1: "x"})

    def test_unknown_types_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode(object())

    def test_malformed_bytes_rejected_on_decode(self):
        with pytest.raises(ProtocolError, match="malformed canonical payload"):
            decode_payload(b"s\x00\x00\x00\x10truncated")

    def test_unknown_tag_rejected_on_decode(self):
        with pytest.raises(ProtocolError, match="unknown tag"):
            decode_payload(b"{\"__repro__\":\"alien\",\"v\":1}")
