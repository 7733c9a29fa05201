"""Unit tests for the wire fast path: blobs, memos, and metrics.

The cache layer must be *invisible* except for speed: cached encodes and
digests are byte-identical to uncached ones, and the operation counters
prove the encode-once/digest-once behaviour the fast path exists for.
"""

import hashlib
import sys

import pytest

from repro.common.encoding import (
    IdentityMemo,
    WireBlob,
    canonical_encode,
    clear_wire_caches,
    decode_payload,
    wire_blob,
)
from repro.common.errors import ProtocolError
from repro.common.ids import RequestId, ServiceId
from repro.common.metrics import METRICS, Metrics


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_wire_caches()
    METRICS.reset()
    yield
    clear_wire_caches()
    METRICS.reset()


class TestWireBlob:
    def test_cached_bytes_identical_to_uncached(self):
        message = {"op": "transfer", "amount": 125, "to": ServiceId("bank")}
        blob = wire_blob(message)
        assert blob.data == canonical_encode(dict(message))

    def test_cached_digest_identical_to_uncached(self):
        message = {"n": 7, "payload": b"\x00\x01", "rid": RequestId(ServiceId("s"), 3)}
        blob = wire_blob(message)
        assert blob.digest == hashlib.sha256(canonical_encode(dict(message))).digest()

    def test_digest_memoized(self):
        blob = wire_blob({"k": 1})
        first = blob.digest
        METRICS.reset()
        assert blob.digest == first
        assert METRICS.digest_calls == 0
        assert METRICS.digest_cache_hits == 1

    def test_equal_but_distinct_objects_do_not_alias(self):
        a = wire_blob({"x": 1})
        b = wire_blob({"x": 1})
        assert a is not b
        assert a.data == b.data

    def test_blob_passthrough(self):
        blob = wire_blob({"x": 1})
        assert wire_blob(blob) is blob
        assert canonical_encode(blob) == blob.data

    def test_custom_encoder(self):
        blob = wire_blob((1, 2), encode=lambda obj: b"custom")
        assert blob.data == b"custom"

    def test_decode_inverts_blob_bytes(self):
        message = {"ids": [RequestId(ServiceId("a"), 1)], "t": (1, b"\xff")}
        blob = wire_blob(message)
        assert decode_payload(blob.data) == message


class TestIterativeEncoder:
    def test_deep_nesting_does_not_recurse(self):
        # The seed encoder recursed per level; the iterative walk must
        # handle structures far deeper than the interpreter stack.
        # (json.dumps itself still enforces the interpreter limit, so the
        # walk is exercised directly.)
        from repro.common.encoding import _to_jsonable

        depth = sys.getrecursionlimit() * 2
        deep = 0
        for _ in range(depth):
            deep = [deep]
        jsonable = _to_jsonable(deep)
        for _ in range(depth):
            assert isinstance(jsonable, list) and len(jsonable) == 1
            jsonable = jsonable[0]
        assert jsonable == 0

    def test_moderately_deep_roundtrip(self):
        deep = "leaf"
        for _ in range(50):
            deep = {"level": [deep]}
        assert decode_payload(canonical_encode(deep)) == deep

    def test_float_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode({"x": 1.5})

    def test_nested_float_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode({"x": [1, {"y": (2.5,)}]})

    def test_non_string_key_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(ProtocolError):
            canonical_encode({"x": object()})

    def test_scalar_fast_path(self):
        assert canonical_encode(42) == b"42"
        assert canonical_encode("hi") == b'"hi"'
        assert canonical_encode(None) == b"null"
        assert canonical_encode(True) == b"true"

    def test_subclass_compat_with_seed_semantics(self):
        # The seed encoder dispatched on isinstance, so subclasses of
        # supported types must keep encoding (normalised to base forms).
        from typing import NamedTuple

        class Point(NamedTuple):
            x: int
            y: int

        class Key(str):
            pass

        class Count(int):
            pass

        from repro.clbft.messages import encode_message, message_to_wire

        payload = {Key("k"): [Point(1, 2), Count(3)]}
        reference = canonical_encode(
            {"k": [(1, 2), 3]}
        )
        assert canonical_encode(payload) == reference
        # The fused codec accepts the same values as its two-pass
        # reference (NamedTuple payloads were a seed-supported case).
        assert encode_message(payload) == canonical_encode(
            message_to_wire({"k": [(1, 2), 3]})
        )


class TestIdentityMemo:
    def test_computes_once_per_object(self):
        memo = IdentityMemo()
        calls = []
        obj = {"a": 1}
        compute = lambda o: calls.append(1) or len(o)
        assert memo.get(obj, compute) == memo.get(obj, compute)
        assert len(calls) == 1

    def test_distinct_objects_compute_separately(self):
        memo = IdentityMemo()
        calls = []
        compute = lambda o: calls.append(1) or len(o)
        memo.get({"a": 1}, compute)
        memo.get({"a": 1}, compute)
        assert len(calls) == 2

    def test_eviction_bounded(self):
        memo = IdentityMemo(limit=4)
        keep = [{"i": i} for i in range(10)]
        for obj in keep:
            memo.get(obj, lambda o: o["i"])
        assert len(memo._cache) <= 4

    def test_clear_wire_caches_empties_registered_memos(self):
        memo = IdentityMemo()
        memo.get({"a": 1}, len)
        clear_wire_caches()
        assert len(memo._cache) == 0


class TestMetrics:
    def test_reset_zeroes_everything(self):
        METRICS.encode_calls = 5
        METRICS.digest_calls = 3
        METRICS.reset()
        assert METRICS.encode_calls == 0
        assert METRICS.digest_calls == 0

    def test_snapshot_copies(self):
        snap = METRICS.snapshot()
        METRICS.encode_calls += 1
        assert METRICS.snapshot()["encode_calls"] == snap["encode_calls"] + 1

    def test_counts_encodes(self):
        before = METRICS.encode_calls
        canonical_encode({"x": 1})
        assert METRICS.encode_calls == before + 1

    def test_independent_instances(self):
        local = Metrics()
        local.encode_calls += 1
        assert local.encode_calls == 1
