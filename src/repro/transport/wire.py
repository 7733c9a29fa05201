"""Wire framing: authenticated envelopes around protocol messages.

A :class:`WireEnvelope` is what a Connection actually carries: the
canonical payload bytes plus the sender's authenticator over them. The
envelope is deliberately dumb — all interpretation happens above (protocol
codecs) and below (connections) this layer, mirroring the paper's
separation between the Perpetual core and the ChannelAdapter.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import ProtocolError
from repro.crypto.auth import Authenticator
from repro.crypto.digest import digest


def auth_to_wire(auth: Authenticator) -> list:
    """Flatten an authenticator into canonically encodable structures."""
    return [auth.sender, [[name, tag] for name, tag in auth.entries]]


def auth_from_wire(data: list) -> Authenticator:
    sender, entries = data
    return Authenticator(
        sender=sender, entries=tuple((name, tag) for name, tag in entries)
    )


@dataclass(frozen=True)
class WireEnvelope:
    """Payload bytes plus the sender's MAC authenticator over them."""

    payload: bytes
    auth: Authenticator

    @cached_property
    def size_bytes(self) -> int:
        """Approximate wire size, used by the network latency model.

        Computed once per envelope: a multicast envelope is transmitted
        to every receiver and the size model queries it per transmit.
        """
        mac_bytes = sum(len(tag) + 24 for _, tag in self.auth.entries)
        return len(self.payload) + mac_bytes + 32

    @cached_property
    def payload_digest(self) -> bytes:
        """SHA-256 of the payload, computed once per envelope.

        Every co-resident receiver of a multicast verifies the same
        envelope object, so the verification pre-hash is shared instead
        of recomputed per receiver.
        """
        return digest(self.payload)


class PlainItem(tuple):
    """A ``("p", payload)`` batch item: a payload covered only by the
    batch MAC.

    A tuple, so it frames and compares like any ``(kind, value)`` item;
    unlike a bare tuple it can hold the receivers' decode (see
    :meth:`~repro.transport.channel.ChannelAdapter.open_batch`). The
    sender builds one per multicast and every destination's batch shares
    it, so co-resident receivers decode the payload once.
    """

    def __new__(cls, payload: bytes) -> "PlainItem":
        return tuple.__new__(cls, ("p", payload))

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild through __new__, which takes the payload
        return (self[1],)


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
#: A kind byte and a u32 length: the head of a plain item or envelope.
_pack_item_head = struct.Struct(">BI").pack
_PLAIN, _ENVELOPE = b"p"[0], b"e"[0]


def _auth_parts(auth: Authenticator, append) -> None:
    sender = auth.sender.encode()
    append(_U16.pack(len(sender)))
    append(sender)
    append(_U16.pack(len(auth.entries)))
    for name, tag in auth.entries:
        encoded = name.encode()
        append(_U16.pack(len(encoded)))
        append(encoded)
        append(_U16.pack(len(tag)))
        append(tag)


def _envelope_parts(envelope: WireEnvelope, append) -> None:
    payload = envelope.payload
    append(_pack_item_head(_ENVELOPE, len(payload)))
    append(payload)
    _auth_parts(envelope.auth, append)


#: Wire marker distinguishing a batch from a plain envelope: a plain
#: envelope's first wire element is the payload *bytes*, so a string tag
#: can never collide with it.
BATCH_WIRE_TAG = "__batch__"


def batch_frame(items: tuple) -> bytes:
    """Deterministic byte framing of a batch's items, the MAC input.

    Exactly the ``item*`` run of the binary wire form below, built in
    one pass: length-prefixed and counted, so no item boundary is
    ambiguous. The batch MAC covers every inner payload (and, for
    embedded envelopes, the inner authenticator too), so a faulty relay
    cannot re-segment, reorder, or splice items without the single
    batch verification failing.
    """
    parts: list[bytes] = []
    append = parts.append
    plain = _pack_item_head
    for kind, value in items:
        if kind == "p":
            append(plain(_PLAIN, len(value)))
            append(value)
        else:
            _envelope_parts(value, append)
    return b"".join(parts)


@dataclass(frozen=True)
class BatchEnvelope:
    """Several protocol messages under one MAC vector.

    The channel layer aggregates every message bound for the same
    (sender, receiver) pair within one flush interval into a batch.
    ``items`` holds :class:`PlainItem` ``("p", payload_bytes)`` entries
    — plain payloads covered *only* by the batch MAC — and
    ``("e", WireEnvelope)`` entries, embedded envelopes that keep their
    own full-audience authenticator (used when the inner message must
    remain relayable or provable to principals outside this pair, e.g.
    stage-1 request proofs). One :class:`~repro.crypto.auth.Authenticator` entry over
    :attr:`batch_digest` authenticates the whole batch.
    """

    items: tuple
    auth: Authenticator

    @cached_property
    def size_bytes(self) -> int:
        """Approximate wire size: inner payloads + one MAC entry."""
        body = 0
        for kind, value in self.items:
            if kind == "p":
                body += len(value) + 8
            else:
                body += value.size_bytes + 8
        mac_bytes = sum(len(tag) + 24 for _, tag in self.auth.entries)
        return body + mac_bytes + 32

    @cached_property
    def frame(self) -> bytes:
        """:func:`batch_frame` of the items, built once per batch object
        (by the signer, or cut from the received bytes)."""
        return batch_frame(self.items)

    @cached_property
    def batch_digest(self) -> bytes:
        """SHA-256 over the framed items, computed once per batch."""
        return digest(self.frame)


def signed_batch(items: tuple, signer, dst: str) -> BatchEnvelope:
    """A batch of ``items`` for ``dst``, signed by ``signer`` (an
    :class:`~repro.crypto.auth.AuthenticatorFactory`) over its frame.
    The frame is kept for the receiver's digest and the wire form, so
    each side frames the items once."""
    frame = batch_frame(items)
    batch = BatchEnvelope(items=items, auth=signer.sign(frame, [dst]))
    batch.__dict__["frame"] = frame
    return batch


def envelope_to_wire(envelope: WireEnvelope | BatchEnvelope) -> list:
    """Flatten an envelope into canonically encodable structures.

    The plain-data reference form the tests compare
    :func:`envelope_to_bytes` against; batch envelopes flatten
    recursively. No protocol message embeds an envelope: a stage-2
    request item carries the stage-1 payload bytes once plus
    :func:`auth_to_wire` authenticators (see
    :func:`repro.perpetual.messages.request_item`), and a transport hop
    carries :func:`envelope_to_bytes`. WIRE001 keeps calls inside
    ``transport/``.
    """
    if type(envelope) is BatchEnvelope:
        return [
            BATCH_WIRE_TAG,
            auth_to_wire(envelope.auth),
            [
                [kind, value if kind == "p" else envelope_to_wire(value)]
                for kind, value in envelope.items
            ],
        ]
    return [envelope.payload, auth_to_wire(envelope.auth)]


def envelope_from_wire(data: list) -> WireEnvelope | BatchEnvelope:
    if data[0] == BATCH_WIRE_TAG:
        _, auth, items = data
        return BatchEnvelope(
            items=tuple(
                PlainItem(value) if kind == "p"
                else (kind, envelope_from_wire(value))
                for kind, value in items
            ),
            auth=auth_from_wire(auth),
        )
    payload, auth = data
    return WireEnvelope(payload=payload, auth=auth_from_wire(auth))


# ---------------------------------------------------------------------------
# The binary form: what a transport hop carries
# ---------------------------------------------------------------------------
#
# All integers big-endian; a batch's ``item*`` run is its
# :func:`batch_frame`, carried as framed::
#
#     envelope = b"e" u32(len payload) payload auth
#     batch    = b"b" auth u32(len items) item*
#     item     = b"p" u32(len payload) payload | envelope
#     auth     = u16(len sender) sender u16(len entries) entry*
#     entry    = u16(len name) name u16(len tag) tag
#
# Payloads and MAC tags travel raw, names as UTF-8. The plain-data form
# above is the reference the tests compare this one against.


def envelope_to_bytes(envelope: WireEnvelope | BatchEnvelope) -> bytes:
    """The envelope in the binary form a transport hop carries.

    The sender's payload bytes and MAC tags are copied, never
    re-serialised: the receiver verifies its MAC entry over exactly the
    bytes the sender digested.
    """
    parts: list[bytes] = []
    append = parts.append
    if type(envelope) is BatchEnvelope:
        append(b"b")
        _auth_parts(envelope.auth, append)
        append(_U32.pack(len(envelope.items)))
        append(envelope.frame)
    else:
        _envelope_parts(envelope, append)
    return b"".join(parts)


def _field(data: bytes, offset: int, prefix: struct.Struct) -> tuple[bytes, int]:
    """The length-prefixed field at ``offset`` and where it ends,
    refusing a length that reads past the buffer before slicing."""
    (size,) = prefix.unpack_from(data, offset)
    start = offset + prefix.size
    end = start + size
    if end > len(data):
        raise ProtocolError(
            f"envelope field of {size} bytes at offset {start} overruns "
            f"the {len(data)}-byte frame"
        )
    return data[start:end], end


def _read_auth(data: bytes, offset: int) -> tuple[Authenticator, int]:
    sender, offset = _field(data, offset, _U16)
    (count,) = _U16.unpack_from(data, offset)
    offset += 2
    entries = []
    for _ in range(count):
        name, offset = _field(data, offset, _U16)
        tag, offset = _field(data, offset, _U16)
        entries.append((name.decode(), tag))
    return Authenticator(sender=sender.decode(), entries=tuple(entries)), offset


def _read_envelope(data: bytes, offset: int) -> tuple[WireEnvelope, int]:
    """A plain envelope whose kind byte sits just before ``offset``."""
    payload, offset = _field(data, offset, _U32)
    auth, offset = _read_auth(data, offset)
    return WireEnvelope(payload=payload, auth=auth), offset


def envelope_from_bytes(
    data: bytes, offset: int = 0
) -> tuple[WireEnvelope | BatchEnvelope, int]:
    """Inverse of :func:`envelope_to_bytes`, strict: ``(envelope, end)``.

    ``data[offset:]`` must hold exactly one envelope, so ``end`` is
    always ``len(data)``. The bytes come from another principal:
    anything else — an unknown kind byte, a length that overruns the
    buffer (checked before slicing), an undecodable name, trailing
    bytes — raises :class:`~repro.common.errors.ProtocolError`.
    """
    if type(data) is not bytes:
        data = bytes(data)  # so every payload sliced out is bytes
    try:
        kind = data[offset:offset + 1]
        if kind == b"e":
            envelope, end = _read_envelope(data, offset + 1)
        elif kind == b"b":
            auth, end = _read_auth(data, offset + 1)
            (count,) = _U32.unpack_from(data, end)
            end += 4
            start = end
            items = []
            for _ in range(count):
                kind = data[end:end + 1]
                if kind == b"p":
                    value, end = _field(data, end + 1, _U32)
                    items.append(PlainItem(value))
                elif kind == b"e":
                    value, end = _read_envelope(data, end + 1)
                    items.append(("e", value))
                else:
                    raise ProtocolError(f"unknown batch item kind {kind!r}")
            envelope = BatchEnvelope(items=tuple(items), auth=auth)
            envelope.__dict__["frame"] = data[start:end]
        else:
            raise ProtocolError(f"unknown envelope kind {kind!r}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed envelope frame: {exc}") from exc
    if end != len(data):
        raise ProtocolError(
            f"{len(data) - end} trailing bytes after the envelope"
        )
    return envelope, end
