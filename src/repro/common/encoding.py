"""Canonical, deterministic serialisation.

Every byte string that is MAC'd, digested, or compared across replicas must
be produced identically on every host. One binary codec does it: a value is
a one-byte tag followed by its body, lengths and counts are big-endian
fixed-width integers, and ``bytes`` travel raw::

    value = b"n" | b"T" | b"F"                 None, True, False
          | b"i" i64                           int in [-2**63, 2**63)
          | b"I" u32(len) int                  any other int: minimal
                                               two's complement, big-endian
          | b"s" u32(len) utf8                 str
          | b"b" u32(len) raw                  bytes
          | b"l" u32(count) value*             list
          | b"t" u32(count) value*             tuple
          | b"d" u32(count) (u32(len) utf8 value)*
                                               dict, str keys strictly
                                               ascending
          | id-tag value*                      ServiceId b"S", ReplicaId b"R",
                                               NodeId b"N", RequestId b"Q",
                                               MessageId b"M"
          | b"m" u8(len) kind u8(count) value* registered message

Identifiers and registered messages carry their fields in declared order;
an identifier decodes only with its declared field types (``str`` names,
``int`` indices and seqnos, nested identifiers);
:func:`register_message` adds a message class (``clbft.messages.register``
is this decorator). Floats, non-``str`` dict keys and unregistered types do
not encode.

This plays the role of the paper's wire marshaling: the Perpetual prototype
serialises Java objects, Axis2 serialises XML; here one canonical codec
serves both layers so that digests computed by different replicas agree.

The decoder reads bytes from other principals, so it accepts only the
canonical form: if ``decode_payload(b)`` returns ``v`` then
``canonical_encode(v) == b``. Anything else — a truncated length, trailing
bytes, an unknown tag or kind, a wrong field count, an identifier field
of another type, unsorted or duplicate dict keys, a non-minimal int —
raises
:class:`~repro.common.errors.ProtocolError`.

:class:`WireBlob` carries ``(bytes, digest)`` for a message that was
encoded exactly once, so multicast/sign/digest consumers share one
encoding pass; a sender that keeps a message for re-sending keeps its blob
(stored replies do), so nothing looks blobs up by identity.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from typing import Any, Callable

from repro.common.errors import ProtocolError
from repro.common.ids import MessageId, NodeId, ReplicaId, RequestId, ServiceId
from repro.common.metrics import METRICS

_I64 = struct.Struct(">Bq")
_U32 = struct.Struct(">I")
_TAGGED_U32 = struct.Struct(">BI")
_pack_i64 = _I64.pack
_pack_u32 = _U32.pack
_pack_tagged = _TAGGED_U32.pack
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_u32 = _U32.unpack_from

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

_INT, _BIG, _STR, _BYTES = b"i"[0], b"I"[0], b"s"[0], b"b"[0]
_LIST, _TUPLE, _DICT, _MSG = b"l"[0], b"t"[0], b"d"[0], b"m"[0]
_NONE, _TRUE, _FALSE = b"n", b"T", b"F"

#: Encoding plan per registered class: ``(header, field names)``.
_PLANS: dict[type, tuple[bytes, tuple[str, ...]]] = {}
#: Decoding tables: identifier tag byte -> class, the type of each field;
#: message kind -> class, field count.
_ID_TAGS: dict[int, tuple[type, tuple[type, ...]]] = {}
_KINDS: dict[bytes, tuple[type, int]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def register_message(cls: type) -> type:
    """Class decorator: encode ``cls`` instances as ``cls.KIND`` followed
    by their fields in declared order."""
    kind = cls.KIND.encode("ascii")
    names = _field_names(cls)
    if kind in _KINDS and _KINDS[kind][0] is not cls:
        raise ValueError(f"message kind {cls.KIND!r} registered twice")
    _KINDS[kind] = (cls, len(names))
    _PLANS[cls] = (bytes((_MSG, len(kind))) + kind + bytes((len(names),)), names)
    return cls


for _cls, _tag, _types in (
    (ServiceId, b"S", (str,)),
    (ReplicaId, b"R", (ServiceId, int)),
    (NodeId, b"N", (ReplicaId, str)),
    (RequestId, b"Q", (ServiceId, int)),
    (MessageId, b"M", (str,)),
):
    assert len(_types) == len(_field_names(_cls))
    _ID_TAGS[_tag[0]] = (_cls, _types)
    _PLANS[_cls] = (_tag, _field_names(_cls))


def _big_int(value: int) -> bytes:
    size = ((value if value >= 0 else ~value).bit_length() + 8) // 8
    return _pack_tagged(_BIG, size) + value.to_bytes(size, "big", signed=True)


def _emit(value: Any, out: list[bytes]) -> None:
    """Append the canonical form of ``value`` to ``out``, dispatching on
    exact type; subclasses take :func:`_emit_subclass`."""
    kind = type(value)
    append = out.append
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            append(_pack_i64(_INT, value))
        else:
            append(_big_int(value))
    elif kind is bytes:
        append(_pack_tagged(_BYTES, len(value)))
        append(value)
    elif kind is str:
        raw = value.encode()
        append(_pack_tagged(_STR, len(raw)))
        append(raw)
    elif value is None:
        append(_NONE)
    elif kind is bool:
        append(_TRUE if value else _FALSE)
    elif kind is list or kind is tuple:
        append(_pack_tagged(_LIST if kind is list else _TUPLE, len(value)))
        for item in value:
            _emit(item, out)
    elif kind is dict:
        try:
            keys = sorted(value)
        except TypeError:
            keys = list(value)  # mixed key types; the check below rejects
        append(_pack_tagged(_DICT, len(keys)))
        for key in keys:
            if type(key) is not str:
                if not isinstance(key, str):
                    raise ProtocolError(
                        f"non-string dict key not encodable: {key!r}"
                    )
                key = str(key)
            raw = key.encode()
            append(_pack_u32(len(raw)))
            append(raw)
            _emit(value[key], out)
    else:
        plan = _PLANS.get(kind)
        if plan is None:
            _emit_subclass(value, out)
            return
        header, names = plan
        append(header)
        for name in names:
            _emit(getattr(value, name), out)


def _emit_subclass(value: Any, out: list[bytes]) -> None:
    """Subclasses of supported types (IntEnum, NamedTuple, str/dict/list
    subclasses, identifier subclasses) encode as their base form; floats
    and every other type are refused."""
    if isinstance(value, float):
        raise ProtocolError(f"floats are not canonically encodable: {value!r}")
    for base in (int, str, bytes, tuple, list, dict):
        if isinstance(value, base):
            _emit(base(value), out)
            return
    for cls, (header, names) in _PLANS.items():
        if isinstance(value, cls):
            out.append(header)
            for name in names:
                _emit(getattr(value, name), out)
            return
    raise ProtocolError(
        f"type {type(value).__name__} is not canonically encodable"
    )


def _slice(data: bytes, offset: int) -> tuple[bytes, int]:
    """The u32-length-prefixed field at ``offset`` and where it ends,
    refusing a length that overruns the buffer before slicing."""
    (size,) = _unpack_u32(data, offset)
    start = offset + 4
    end = start + size
    if end > len(data):
        raise ValueError(f"{size}-byte field at offset {start} overruns the input")
    return data[start:end], end


def _count(data: bytes, offset: int) -> tuple[int, int]:
    """A u32 item count, at most the bytes left (every item takes one)."""
    (count,) = _unpack_u32(data, offset)
    offset += 4
    if count > len(data) - offset:
        raise ValueError(f"count {count} at offset {offset} exceeds the input")
    return count, offset


def _read(data: bytes, offset: int) -> tuple[Any, int]:
    """The value whose tag is at ``data[offset]`` and where it ends.

    Raises ``IndexError``/``struct.error``/``ValueError``/
    ``UnicodeDecodeError`` on input that is not canonical;
    :func:`decode_payload` turns them into :class:`ProtocolError`.
    """
    tag = data[offset]
    offset += 1
    if tag == _INT:
        return _unpack_i64(data, offset)[0], offset + 8
    if tag == _BYTES:
        return _slice(data, offset)
    if tag == _STR:
        raw, offset = _slice(data, offset)
        return raw.decode(), offset
    if tag == _MSG:
        end = offset + 1 + data[offset]
        entry = _KINDS.get(data[offset + 1:end])
        if entry is None:
            raise ValueError(f"unknown message kind {data[offset + 1:end]!r}")
        cls, count = entry
        if data[end] != count:
            raise ValueError(
                f"{cls.__name__} has {count} fields, not {data[end]}"
            )
        offset = end + 1
        values = []
        for _ in range(count):
            value, offset = _read(data, offset)
            values.append(value)
        return cls(*values), offset
    if tag == _LIST or tag == _TUPLE:
        count, offset = _count(data, offset)
        items = []
        for _ in range(count):
            value, offset = _read(data, offset)
            items.append(value)
        return (items if tag == _LIST else tuple(items)), offset
    if tag == _DICT:
        count, offset = _count(data, offset)
        out: dict[str, Any] = {}
        previous = None
        for _ in range(count):
            raw, offset = _slice(data, offset)
            key = raw.decode()
            if previous is not None and key <= previous:
                raise ValueError(f"dict key {key!r} out of order")
            out[key], offset = _read(data, offset)
            previous = key
        return out, offset
    entry = _ID_TAGS.get(tag)
    if entry is not None:
        cls, types = entry
        values = []
        for expected in types:
            value, offset = _read(data, offset)
            if type(value) is not expected:
                raise ValueError(
                    f"{cls.__name__} field of type {type(value).__name__}, "
                    f"not {expected.__name__}"
                )
            values.append(value)
        return cls(*values), offset
    if tag == _NONE[0]:
        return None, offset
    if tag == _TRUE[0]:
        return True, offset
    if tag == _FALSE[0]:
        return False, offset
    if tag == _BIG:
        raw, offset = _slice(data, offset)
        value = int.from_bytes(raw, "big", signed=True)
        if _I64_MIN <= value <= _I64_MAX or _big_int(value)[5:] != raw:
            raise ValueError(f"non-canonical int form {raw!r}")
        return value, offset
    raise ValueError(f"unknown tag {tag:#04x} at offset {offset - 1}")


def canonical_encode(obj: Any) -> bytes:
    """Encode ``obj`` to canonical bytes (stable across hosts and runs).

    A :class:`WireBlob` passes straight through to its cached bytes.
    """
    if type(obj) is WireBlob:
        METRICS.encode_cache_hits += 1
        return obj.data
    METRICS.encode_calls += 1
    out: list[bytes] = []
    try:
        _emit(obj, out)
    except (UnicodeEncodeError, RecursionError) as exc:
        raise ProtocolError(f"not canonically encodable: {exc}") from exc
    return b"".join(out)


def encode_payload(obj: Any) -> bytes:
    """Alias of :func:`canonical_encode` for application payloads."""
    return canonical_encode(obj)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`canonical_encode`; canonical input only."""
    if type(data) is not bytes:
        data = bytes(data)
    try:
        value, end = _read(data, 0)
        if end != len(data):
            raise ValueError(f"{len(data) - end} trailing bytes")
    except (
        IndexError, struct.error, ValueError, TypeError, RecursionError,
    ) as exc:
        raise ProtocolError(f"malformed canonical payload: {exc}") from exc
    return value


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

    def __init__(self, obj: Any) -> None:
        self.obj = obj
        self.data = canonical_encode(obj)
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


def wire_blob(obj: Any) -> WireBlob:
    """``obj`` as an encode-once blob; a :class:`WireBlob` passes through."""
    if type(obj) is WireBlob:
        return obj
    return WireBlob(obj)


def derived(obj: Any, name: str, compute: Callable[[Any], Any]) -> Any:
    """``compute(obj)``, computed once and kept on ``obj`` as ``name``.

    For a value that a higher layer derives from an immutable object it
    does not own (a voter's match key of a CLBFT item, a channel's decode
    of an envelope): every holder of the shared object reuses the first
    derivation, a cached ``None`` included, and the value lives exactly as
    long as the object. A class that owns a derivation uses
    :class:`functools.cached_property`, which stores it the same way.
    """
    try:
        return obj.__dict__[name]
    except KeyError:
        value = obj.__dict__[name] = compute(obj)
        return value
