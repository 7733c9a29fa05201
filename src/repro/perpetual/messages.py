"""Perpetual wire messages and agreement items.

The protocol of Figure 1 adds four message types around the two CLBFT
instances:

- :class:`OutRequest`   — stage 1: calling driver -> the target group's
  current primary voter (the whole group on retransmission);
- :class:`ReplyForward` — stage 5: target voter -> responder voter;
- :class:`ReplyBundle`  — stage 6: responder -> every calling driver;
- :class:`ResultSubmission` — stage 7: calling driver -> calling voters.

and one off the fault-free path: :class:`ViewHint`, a target voter's
answer to a *retransmitted* stage-1 copy, from which calling drivers
learn which view (hence which primary) the target group is in.

Plus the *local* (same-host) messages between a replica's driver and voter,
and the construction of CLBFT agreement items. Agreement items are
:class:`repro.clbft.messages.ClientRequest` values whose ``(client,
timestamp)`` identity is derived deterministically from the item content
so that every correct voter submits the *same* item and CLBFT's dedup
applies; non-deterministic fields (utility values) are filled in by the
primary only, as in PBFT's standard treatment of non-determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, ClassVar

from repro.clbft.messages import (
    ClientRequest,
    decode_message,
    encode_message,
    register,
)
from repro.common.errors import ProtocolError
from repro.common.ids import RequestId, ServiceId
from repro.crypto.digest import digest, digest_hex

# Agreement item kinds (the "op" dict carries a matching "kind" field).
ITEM_REQUEST = "req"
ITEM_RESULT = "result"
ITEM_UTILITY = "util"
ITEM_ABORT = "abort"


@register
@dataclass(frozen=True)
class OutRequest:
    """Stage 1: one calling driver's copy of an outgoing request.

    The authenticator on the carrying envelope covers *all* target voters,
    so the target primary can put ``fc + 1`` matching copies in the
    agreement item (see :func:`request_item`) as proof the calling service
    issued the request, and every target voter can verify its own MAC
    entry in each.

    ``responder_index`` designates the target voter that will bundle the
    replies (stage 6); the caller rotates it with the sequence number,
    skipping voters it suspects of being silent, so retries of a request
    and later requests route around a faulty responder. Calling drivers
    may name different responders for one request: the index is not part
    of the match key.
    """

    KIND: ClassVar[str] = "perp-out-request"
    request_id: RequestId
    caller: ServiceId
    target: ServiceId
    payload: Any
    responder_index: int
    attempt: int = 0

    @cached_property
    def match_key(self) -> str:
        """Digest identifying 'matching' stage-1 copies.

        Retries rotate ``responder_index`` and bump ``attempt``; copies
        still match if the logical request — id, caller, target, payload
        — agrees. Every voter derives keys the same way, so only internal
        consistency matters.
        """
        key = ("out-request", self.request_id, self.caller, self.target, self.payload)
        # analysis: allow(WIRE001, WIRE002) — a key over a *subset* of the
        # message (attempt/responder excluded), so no wire blob matches
        return digest_hex(encode_message(key))


@register
@dataclass(frozen=True)
class ViewHint:
    """Target voter -> calling driver: "my group is in ``view``".

    Sent only in answer to a retransmitted :class:`OutRequest`
    (``attempt >= 1``), at most once per driver per view. The carrying
    envelope's MAC names the voter; a driver believes a view once
    ``ft + 1`` distinct voters of the group reported it or a higher one.
    """

    KIND: ClassVar[str] = "perp-view-hint"
    view: int


@register
@dataclass(frozen=True)
class ReplyForward:
    """Stage 5: a target voter's reply, routed via the responder.

    ``auth`` is the voter's MAC authenticator over ``(request_id, result)``
    with one entry per *calling driver* (flattened wire form); the
    responder cannot forge it and the calling drivers can each verify
    their own entry.
    """

    KIND: ClassVar[str] = "perp-reply-forward"
    request_id: RequestId
    result: Any
    voter_index: int
    auth: list

    @cached_property
    def match_key(self) -> str:
        """:func:`result_match_key` of the forwarded result."""
        return result_match_key(self.request_id, self.result, False)


@register
@dataclass(frozen=True)
class ReplyBundle:
    """Stage 6: the responder's bundle of ``ft + 1`` matching replies."""

    KIND: ClassVar[str] = "perp-reply-bundle"
    request_id: RequestId
    result: Any
    vouchers: tuple  # tuple of (voter_index, wire-auth) pairs

    @cached_property
    def auth_digest(self) -> bytes:
        """Digest of :func:`reply_auth_bytes`, the MAC input of every
        voucher: every calling driver receives the same decoded bundle,
        so it is hashed once per bundle, not per driver and voucher."""
        # analysis: allow(WIRE002) — the MAC input of every voucher,
        # computed once per message object
        return digest(reply_auth_bytes(self.request_id, self.result))


@register
@dataclass(frozen=True)
class ResultSubmission:
    """Stage 7: a calling driver's verified result, echoed to its voters.

    A correct voter treats the result as valid when its *co-located*
    driver echoed it (same failure domain) or when ``fc + 1`` distinct
    drivers did (at least one correct host vouches).
    """

    KIND: ClassVar[str] = "perp-result-submission"
    request_id: RequestId
    result: Any
    aborted: bool = False

    @cached_property
    def match_key(self) -> str:
        """:func:`result_match_key` of the submitted outcome."""
        return result_match_key(self.request_id, self.result, self.aborted)


@register
@dataclass(frozen=True)
class UtilityRequest:
    """Local driver -> voter: the executor needs an agreed utility value."""

    KIND: ClassVar[str] = "perp-utility-request"
    util_seq: int
    utility: str  # "time" | "timestamp" | "random"


@register
@dataclass(frozen=True)
class AbortRequest:
    """Local driver -> voter: a request's timeout fired; propose abort."""

    KIND: ClassVar[str] = "perp-abort-request"
    request_id: RequestId


@register
@dataclass(frozen=True)
class LocalResult:
    """Local driver -> voter, stage 4: the executor's reply to an incoming
    request, ready for forwarding to the responder."""

    KIND: ClassVar[str] = "perp-local-result"
    request_id: RequestId
    result: Any


@register
@dataclass(frozen=True)
class AgreedEvent:
    """Local voter -> driver, stages 3 and 9: one agreed event.

    ``kind`` selects the payload interpretation: an incoming request, a
    reply to an out-call, an agreed utility value, or an abort decision.
    """

    KIND: ClassVar[str] = "perp-agreed-event"
    kind: str
    body: Any


#: The identifier fields of the messages that cross the network, with the
#: one type each may hold. The codec types an identifier's own fields but
#: not a message's: a faulty sender with valid MACs could otherwise hand
#: a voter a list where it hashes a request id.
_ID_FIELDS: dict[type, tuple[tuple[str, type], ...]] = {
    OutRequest: (
        ("request_id", RequestId), ("caller", ServiceId), ("target", ServiceId),
    ),
    ReplyForward: (("request_id", RequestId),),
    ReplyBundle: (("request_id", RequestId),),
    ResultSubmission: (("request_id", RequestId),),
}


def decode_perpetual(data: bytes) -> Any:
    """The protocol codec of voters and drivers: :func:`decode_message`,
    refusing (:class:`ProtocolError`) a Perpetual message whose
    identifier fields are not of their declared id types."""
    # analysis: allow(WIRE001) — this is the codec the channel is handed
    # (ChannelAdapter decode=), not a decode beside it
    msg = decode_message(data)
    for name, cls in _ID_FIELDS.get(type(msg), ()):
        if type(getattr(msg, name)) is not cls:
            raise ProtocolError(
                f"{type(msg).__name__}.{name} is not a {cls.__name__}"
            )
    return msg


# ---------------------------------------------------------------------------
# Agreement item construction
# ---------------------------------------------------------------------------


def request_item(request_id: RequestId, payloads: list, proof: list) -> ClientRequest:
    """Agreement item for an external request (stage 2).

    Submitted by the target primary once ``fc + 1`` matching stage-1
    copies arrived. ``payloads`` holds each distinct copy once, as the
    exact bytes the calling drivers MAC'd (in the fault-free case every
    copy is byte-identical, so there is one); ``proof`` holds one
    ``[payload index, wire authenticator]`` entry per supporting copy.
    Every target voter verifies its own MAC entry of each authenticator
    over the referenced payload, so the body crosses agreement once.
    """
    return ClientRequest(
        client=f"{ITEM_REQUEST}/{request_id}",
        timestamp=0,
        op={"kind": ITEM_REQUEST, "payloads": payloads, "proof": proof},
    )


def result_item(request_id: RequestId, result: Any, aborted: bool = False) -> ClientRequest:
    """Agreement item for the result of one of the service's out-calls."""
    return ClientRequest(
        client=f"{ITEM_RESULT}/{request_id}",
        timestamp=0,
        op={
            "kind": ITEM_RESULT,
            "request_id": request_id,
            "value": result,
            "aborted": aborted,
        },
    )


def utility_item(util_seq: int, utility: str, value: int | None) -> ClientRequest:
    """Agreement item for a deterministic utility value.

    All voters submit the value-free form (identical identity); the
    primary's proposal carries its chosen ``value``. CLBFT agrees on the
    primary's version; bounds checking is the validation hook's job.
    """
    op: dict[str, Any] = {"kind": ITEM_UTILITY, "utility": utility}
    if value is not None:
        op["value"] = value
    return ClientRequest(client=ITEM_UTILITY, timestamp=util_seq, op=op)


def abort_item(request_id: RequestId) -> ClientRequest:
    """Agreement item for the deterministic abort of an out-call."""
    return ClientRequest(
        client=f"{ITEM_ABORT}/{request_id}",
        timestamp=0,
        op={"kind": ITEM_ABORT, "request_id": request_id},
    )


def reply_auth_bytes(request_id: RequestId, result: Any) -> bytes:
    """Canonical bytes both ends MAC for stage-5/6 reply vouchers.

    Target voters sign these bytes for the calling drivers; calling
    drivers recompute them from the bundle to verify each voucher.
    """
    # analysis: allow(WIRE001) — MAC input, not a wire send: target
    # voters and calling drivers must each derive these bytes from their
    # own decoded values, so there is no shared blob to reuse
    return encode_message((request_id, result))


def result_match_key(request_id: RequestId, result: Any, aborted: bool) -> str:
    """Match key of an agreed ``(id, result, aborted)`` outcome."""
    # analysis: allow(WIRE001, WIRE002) — the triple never crosses the
    # wire in this shape; the messages and items it keys cache the result
    return digest_hex(encode_message(("result", request_id, result, aborted)))


def item_kind(request: ClientRequest) -> str:
    op = request.op
    if isinstance(op, dict):
        return op.get("kind", "")
    return ""

