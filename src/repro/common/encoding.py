"""Canonical, deterministic serialisation.

Every byte string that is MAC'd, digested, or compared across replicas must
be produced identically on every host. We use a canonical subset of JSON
(sorted keys, no whitespace, UTF-8) plus a tagging scheme for the small set
of non-JSON types that cross replica boundaries (bytes, tuples, and the
typed identifiers from :mod:`repro.common.ids`).

This plays the role of the paper's wire marshaling: the Perpetual prototype
serialises Java objects, Axis2 serialises XML; here one canonical codec
serves both layers so that digests computed by different replicas agree.

The encoder is the hottest function in the simulator (every protocol
message crosses it at least once), so it is built for speed:

- :func:`_to_jsonable` walks containers iteratively with an explicit
  stack — no per-level call overhead — and dispatches on exact type
  through lookup tables instead of ``isinstance`` chains (note that
  ``json.dumps`` still bounds total nesting at the interpreter limit);
- :class:`WireBlob` carries ``(bytes, digest)`` for a message that was
  encoded exactly once, so multicast/sign/digest consumers share one
  encoding pass; a sender that keeps a message for re-sending keeps its
  blob (stored replies do), so nothing looks blobs up by identity.
"""

from __future__ import annotations

import base64
import hashlib
from collections import OrderedDict
from json import dumps as _json_dumps, loads as _json_loads
from typing import Any, Callable

from repro.common.errors import ProtocolError
from repro.common.ids import MessageId, NodeId, ReplicaId, RequestId, ServiceId
from repro.common.metrics import METRICS

_TAG = "__repro__"


def _tagged(kind: str, value: Any) -> dict[str, Any]:
    return {_TAG: kind, "v": value}


# Types that are already canonical-JSON-safe, by exact type. ``bool`` is
# listed separately from ``int`` because dispatch is on ``type(obj)``.
_SCALAR_TYPES = frozenset((type(None), bool, int, str))

# Non-container leaves, by exact type. Each encoder returns the tagged
# wire form in one call.
_LEAF_ENCODERS: dict[type, Callable[[Any], dict[str, Any]]] = {
    bytes: lambda o: _tagged("bytes", base64.b64encode(o).decode("ascii")),
    ServiceId: lambda o: _tagged("service", o.name),
    ReplicaId: lambda o: _tagged("replica", [o.service.name, o.index]),
    NodeId: lambda o: _tagged(
        "node", [o.replica.service.name, o.replica.index, o.role]
    ),
    RequestId: lambda o: _tagged("request", [o.origin.name, o.seqno]),
    MessageId: lambda o: _tagged("msgid", o.value),
}


def _to_jsonable_slow(obj: Any) -> Any:
    """Recursive fallback for subclassed scalar/container types.

    The fast path dispatches on exact type; values whose type is a
    *subclass* of a supported type (an IntEnum, a NamedTuple, ...) land
    here and keep the seed encoder's isinstance semantics.
    """
    # Normalise scalar subclasses to the base value so json sees plain
    # types; bool before int (it subclasses int), float always rejected.
    if isinstance(obj, bool):
        return bool(obj)
    if isinstance(obj, float):
        raise ProtocolError(f"floats are not canonically encodable: {obj!r}")
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, str):
        return str(obj)
    for leaf_type, encoder in _LEAF_ENCODERS.items():
        if isinstance(obj, leaf_type):
            return encoder(obj)
    if isinstance(obj, tuple):
        return _tagged("tuple", [_to_jsonable(v) for v in obj])
    if isinstance(obj, list):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ProtocolError(f"non-string dict key not encodable: {key!r}")
            out[key] = _to_jsonable(value)
        return out
    raise ProtocolError(f"type {type(obj).__name__} is not canonically encodable")


def _to_jsonable(obj: Any) -> Any:
    """Convert ``obj`` into canonical-JSON-safe structures, iteratively."""
    kind = type(obj)
    if kind in _SCALAR_TYPES:
        return obj
    leaf = _LEAF_ENCODERS.get(kind)
    if leaf is not None:
        return leaf(obj)
    # Containers: explicit-stack walk. Each work item writes its converted
    # value into ``dst[key]``; the root is slot 0 of a one-element list.
    root: list[Any] = [None]
    stack: list[tuple[Any, Any, Any]] = [(obj, root, 0)]
    push = stack.append
    pop = stack.pop
    leaf_encoders = _LEAF_ENCODERS
    scalar_types = _SCALAR_TYPES
    while stack:
        value, dst, key = pop()
        kind = type(value)
        if kind in scalar_types:
            dst[key] = value
            continue
        leaf = leaf_encoders.get(kind)
        if leaf is not None:
            dst[key] = leaf(value)
            continue
        if kind is dict:
            out: dict[str, Any] = {}
            dst[key] = out
            for k, v in value.items():
                if type(k) is not str and not isinstance(k, str):
                    raise ProtocolError(
                        f"non-string dict key not encodable: {k!r}"
                    )
                push((v, out, k))
        elif kind is list:
            items: list[Any] = [None] * len(value)
            dst[key] = items
            for i, v in enumerate(value):
                push((v, items, i))
        elif kind is tuple:
            items = [None] * len(value)
            dst[key] = _tagged("tuple", items)
            for i, v in enumerate(value):
                push((v, items, i))
        elif kind is float:
            raise ProtocolError(
                f"floats are not canonically encodable: {value!r}"
            )
        else:
            dst[key] = _to_jsonable_slow(value)
    return root[0]


def _from_jsonable(obj: Any) -> Any:
    kind = type(obj)
    if kind is list:
        return [_from_jsonable(v) for v in obj]
    if kind is dict:
        tag = obj.get(_TAG)
        if tag is None:
            return {k: _from_jsonable(v) for k, v in obj.items()}
        value = obj["v"]
        if tag == "bytes":
            return base64.b64decode(value)
        if tag == "tuple":
            return tuple(_from_jsonable(v) for v in value)
        if tag == "service":
            return ServiceId(value)
        if tag == "replica":
            return ReplicaId(ServiceId(value[0]), value[1])
        if tag == "node":
            return NodeId(ReplicaId(ServiceId(value[0]), value[1]), value[2])
        if tag == "request":
            return RequestId(ServiceId(value[0]), value[1])
        if tag == "msgid":
            return MessageId(value)
        raise ProtocolError(f"unknown canonical tag: {tag!r}")
    return obj


def canonical_encode(obj: Any) -> bytes:
    """Encode ``obj`` to canonical bytes (stable across hosts and runs).

    A :class:`WireBlob` passes straight through to its cached bytes.
    """
    if type(obj) is WireBlob:
        METRICS.encode_cache_hits += 1
        return obj.data
    METRICS.encode_calls += 1
    return _json_dumps(
        _to_jsonable(obj), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True,
    ).encode("ascii")


def encode_payload(obj: Any) -> bytes:
    """Alias of :func:`canonical_encode` for application payloads."""
    return canonical_encode(obj)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`canonical_encode`."""
    try:
        return _from_jsonable(_json_loads(data.decode("ascii")))
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise ProtocolError(f"malformed canonical payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Encode-once blobs
# ---------------------------------------------------------------------------


class WireBlob:
    """A message canonically encoded exactly once.

    Carries the source object, its canonical bytes, and (lazily) the
    SHA-256 digest of those bytes, so every consumer of the same logical
    message — the authenticator, the network size model, digest-keyed
    agreement state — shares one encoding pass and one digest pass.
    """

    __slots__ = ("obj", "data", "_digest")

    def __init__(self, obj: Any, data: bytes | None = None) -> None:
        self.obj = obj
        self.data = canonical_encode(obj) if data is None else data
        self._digest: bytes | None = None

    @property
    def digest(self) -> bytes:
        """Memoized SHA-256 digest of the canonical bytes."""
        d = self._digest
        if d is None:
            METRICS.digest_calls += 1
            d = self._digest = hashlib.sha256(self.data).digest()
        else:
            METRICS.digest_cache_hits += 1
        return d

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"WireBlob({len(self.data)} bytes)"


def wire_blob(obj: Any, encode: Callable[[Any], bytes] | None = None) -> WireBlob:
    """``obj`` as an encode-once blob; a :class:`WireBlob` passes through.

    ``encode`` overrides the canonical encoder (the channel passes its
    injected wire codec).
    """
    if type(obj) is WireBlob:
        return obj
    if encode is None:
        return WireBlob(obj)
    return WireBlob(obj, encode(obj))


# Every IdentityMemo registers here so one call can clear all wire-layer
# caches (the decode and derived-digest memos) between simulations or tests.
_MEMO_REGISTRY: list["IdentityMemo"] = []


def clear_wire_caches() -> None:
    """Drop every registered identity memo.

    Finished simulations otherwise pin up to one cache-limit of message
    objects per memo; call between runs when memory or test isolation
    matters.

    This is also the documented **process-start hook**: every cache here
    is keyed on object identity, so entries must never cross a process
    boundary. A worker forked while the parent's caches were warm would
    otherwise serve lookups against the parent's object graph —
    :mod:`repro.scenario.process` calls this in every worker bootstrap
    (after zeroing METRICS, before touching any frame), and any other
    multi-process host must do the same. The counter bump below is what
    lets tests assert that contract per worker, via the summed stats,
    instead of monkeypatching bootstrap internals.
    """
    METRICS.wire_cache_clears += 1
    for memo in _MEMO_REGISTRY:
        memo.clear()


class IdentityMemo:
    """A bounded memo keyed on object identity.

    For values derived deterministically from an immutable message (its
    match-key digest, its authenticated bytes): receivers of one multicast
    share the decoded message object, so a per-object memo computes the
    derivation once per *message* instead of once per *receiver*. Entries
    hold a strong reference to the key object, so a live entry's id cannot
    be recycled; eviction is LRU.
    """

    __slots__ = ("_cache", "_limit")

    def __init__(self, limit: int = 2048) -> None:
        self._cache: "OrderedDict[int, tuple[Any, Any]]" = OrderedDict()
        self._limit = limit
        _MEMO_REGISTRY.append(self)

    def get(self, obj: Any, compute: Callable[[Any], Any]) -> Any:
        key = id(obj)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None and hit[0] is obj:
            cache.move_to_end(key)
            return hit[1]
        value = compute(obj)
        cache[key] = (obj, value)
        if len(cache) > self._limit:
            cache.popitem(last=False)
        return value

    def clear(self) -> None:
        self._cache.clear()
