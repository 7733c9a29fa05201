"""CLBFT protocol messages.

Messages are frozen dataclasses. :func:`register` adds each one to the
canonical codec of :mod:`repro.common.encoding`, which encodes it as its
``KIND`` followed by its fields in declared order, so it can be MAC'd and
shipped by the ChannelAdapter. View-change and new-view messages embed
other messages (checkpoint and prepared-certificate proofs), which the
codec handles recursively. :func:`encode_message`/:func:`decode_message`
are that codec under the names protocol code calls it by.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, ClassVar

from repro.common.encoding import (
    canonical_encode as encode_message,
    decode_payload as decode_message,
    register_message as register,
)
from repro.crypto.digest import digest


def batch_digest(requests: tuple) -> bytes:
    """Digest of a request batch (the value agreement is run on).

    Taken over the canonical encoding in one walk; every replica uses
    this same function, so only internal consistency matters.
    """
    # analysis: allow(WIRE002) — once per batch: by the primary that
    # builds it, and by backups via PrePrepare.requests_digest
    return digest(encode_message(requests))


def message_to_wire(msg: Any) -> Any:
    """Recursively convert a message (or container of them) to plain data.

    No protocol path uses this form; it remains only for the benchmark's
    ``common.encode_us``/``common.decode_us``, which time the canonical
    codec over it.
    """
    if isinstance(msg, tuple):
        return {"__seq__": "tuple", "v": [message_to_wire(m) for m in msg]}
    if isinstance(msg, list):
        return {"__seq__": "list", "v": [message_to_wire(m) for m in msg]}
    if isinstance(msg, dict):
        return {"__seq__": "dict", "v": {k: message_to_wire(v) for k, v in msg.items()}}
    kind = getattr(msg, "KIND", None)
    if kind is None:
        return msg
    body = {f.name: message_to_wire(getattr(msg, f.name)) for f in fields(msg)}
    return {"__msg__": kind, "v": body}


@register
@dataclass(frozen=True)
class ClientRequest:
    """An agreement item, submitted by the local Perpetual voter.

    ``(client, timestamp)`` is the item's identity, used for
    exactly-once execution; the voter derives it from the item content
    (see :mod:`repro.perpetual.messages`). ``op`` is the opaque item body
    the voter validates and executes.
    """

    KIND: ClassVar[str] = "request"
    client: str
    timestamp: int
    op: Any


@register
@dataclass(frozen=True)
class PrePrepare:
    """Primary's ordering proposal for a batch of requests."""

    KIND: ClassVar[str] = "pre-prepare"
    view: int
    seqno: int
    digest: bytes
    requests: tuple

    @cached_property
    def requests_digest(self) -> bytes:
        """:func:`batch_digest` of the carried batch, which ``digest``
        must equal; the backups sharing one decoded pre-prepare compute
        it once."""
        return batch_digest(self.requests)


@register
@dataclass(frozen=True)
class Prepare:
    """Backup's agreement to the primary's proposal."""

    KIND: ClassVar[str] = "prepare"
    view: int
    seqno: int
    digest: bytes
    replica: int


@register
@dataclass(frozen=True)
class Commit:
    """Second-phase vote: the sender holds a prepared certificate."""

    KIND: ClassVar[str] = "commit"
    view: int
    seqno: int
    digest: bytes
    replica: int


@register
@dataclass(frozen=True)
class Checkpoint:
    """Proof-of-state message multicast every K sequence numbers."""

    KIND: ClassVar[str] = "checkpoint"
    seqno: int
    state_digest: bytes
    replica: int


@register
@dataclass(frozen=True)
class PreparedProof:
    """Evidence that a request prepared at the sender: the pre-prepare
    plus 2f matching prepares (authenticators checked on receipt of the
    containing view-change)."""

    KIND: ClassVar[str] = "prepared-proof"
    pre_prepare: PrePrepare
    prepares: tuple


@register
@dataclass(frozen=True)
class ViewChange:
    """Vote to move to ``new_view``.

    ``stable_seqno`` / ``checkpoint_proof`` establish the sender's stable
    checkpoint; ``prepared`` carries a :class:`PreparedProof` per in-flight
    sequence number above it.
    """

    KIND: ClassVar[str] = "view-change"
    new_view: int
    stable_seqno: int
    checkpoint_proof: tuple
    prepared: tuple
    replica: int


@register
@dataclass(frozen=True)
class NewView:
    """New primary's view installation: 2f+1 view-changes plus the
    pre-prepares it re-issues for in-flight sequence numbers."""

    KIND: ClassVar[str] = "new-view"
    view: int
    view_changes: tuple
    pre_prepares: tuple
