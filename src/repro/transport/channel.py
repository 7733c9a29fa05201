"""The ChannelAdapter: authentication + cost accounting above Connections.

One ChannelAdapter serves one protocol principal (a voter, a driver, or an
unreplicated client). It:

- signs every outgoing protocol message with a MAC authenticator covering
  all addressees (one signing pass per multicast, as in CLBFT);
- verifies the authenticator on every incoming envelope, dropping
  messages that fail (Byzantine senders cannot forge MACs — the paper's
  standing cryptographic assumption);
- charges the configured crypto cost model to the local CPU, which is how
  the MAC-vs-signature scalability argument becomes measurable in the
  simulator;
- optionally *batches*: with ``batching`` enabled, outgoing messages are
  buffered until :meth:`flush` and everything bound for the same
  destination leaves as one :class:`~repro.transport.wire.BatchEnvelope`
  under a single MAC vector (see ``docs/architecture.md``, "Batching").

Batching semantics (the sanctioned batch path the WIRE rules recognise):

- a message sent with :meth:`ChannelAdapter.multicast_to` (the stage-1
  proof path) is signed for its full audience immediately and rides as
  an embedded ``("e", envelope)`` item, still individually verifiable
  by principals outside the pair — also when the audience *is* the
  recipient list (a stage-1 retransmission to the whole target group),
  because the receiving voter relays the envelope and carries its
  authenticator into the stage-2 proof;
- a message alone in every destination's batch flushes as a classic
  shared :class:`WireEnvelope` — batching never pessimises singletons;
- everything else becomes a plain ``("p", payload)`` item covered only
  by the batch MAC: one authenticator computation and one verification
  per *batch* instead of per message.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.encoding import IdentityMemo, decode_payload, wire_blob
from repro.common.metrics import METRICS
from repro.crypto.auth import Authenticator, AuthenticatorFactory
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.transport.connection import Connection
from repro.transport.wire import BatchEnvelope, WireEnvelope, batch_frame

#: Timer tag nodes use for window-mode flushing (``batching=<window_us>``):
#: armed via ``on_first_pending`` when the first message buffers, handled
#: in the node's ``on_timer`` by calling :meth:`ChannelAdapter.flush`.
CHANNEL_FLUSH_TAG = "channel-flush"

#: Synthesized envelopes for plain batch items, keyed on the payload bytes
#: object: every destination's batch of one multicast references the same
#: bytes object (in-process substrates), so co-addressed receivers share
#: one synthesized envelope — and through it the decode-once memo.
_BATCH_ITEM_ENVELOPES = IdentityMemo()


class ChannelAdapter:
    """Authenticated messaging endpoint for one principal."""

    #: Simulated CPU charged per envelope handled, beyond crypto: framing,
    #: socket work, and SSL record processing on the paper's testbed class.
    DEFAULT_WIRE_CPU_US = 40

    def __init__(
        self,
        me: Any,
        keys: KeyStore,
        connection: Connection,
        charge: Callable[[int], None] | None = None,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
        wire_cpu_us: int = DEFAULT_WIRE_CPU_US,
        encode: Callable[[Any], bytes] | None = None,
        decode: Callable[[bytes], Any] | None = None,
        batching: str | int = "off",
        on_first_pending: Callable[[], None] | None = None,
    ) -> None:
        self._me = me
        self._auth = AuthenticatorFactory(keys, me)
        self._connection = connection
        self._charge = charge or (lambda us: None)
        self._cost = cost_model
        self._wire_cpu_us = wire_cpu_us
        # The cost model is frozen: fold the two per-envelope receive
        # charges (wire handling + MAC verification) into one constant so
        # the hot accept path makes a single charge call.
        self._accept_charge_us = wire_cpu_us + cost_model.verification_cost_us()
        # Injected wire codec: protocol nodes pass encode_message /
        # decode_message; the default canonical codec is the same one.
        self._encode = encode
        self._decode = decode or decode_payload
        #: ``off`` | ``tick`` | positive int (flush window in µs). The
        #: adapter only buffers; *when* flush happens is the substrate's
        #: business (end of kernel tick / handler / window timer).
        self.batching = batching
        self._buffering = batching != "off"
        self._on_first_pending = on_first_pending
        self._pending: list[list] = []
        self.sent_count = 0
        self.received_count = 0
        self.rejected_count = 0

    @property
    def principal(self) -> Any:
        return self._me

    @property
    def auth_factory(self) -> AuthenticatorFactory:
        """The adapter's authenticator factory, shared so protocol code
        above the channel signs/verifies without rebuilding factories."""
        return self._auth

    # -- sending ----------------------------------------------------------

    def send(self, dst: Any, message: Any) -> None:
        """Authenticate and transmit ``message`` to a single destination."""
        self.multicast([dst], message)

    def multicast(self, dsts: list[Any], message: Any) -> None:
        """Sign once for all destinations, then transmit to each.

        The authenticator carries one MAC entry per destination; each
        receiver verifies only its own entry. Signing cost is charged
        once, with the per-receiver increment from the cost model. With
        batching enabled, signing is deferred to :meth:`flush`, where the
        batch MAC covers the message unless it travels alone.
        """
        self._post(dsts, dsts, message, relayable=False)

    def multicast_to(
        self, audience: list[Any], recipients: list[Any], message: Any
    ) -> None:
        """Authenticate for ``audience`` but transmit only to ``recipients``.

        The Perpetual stage-1 path signs a request for every target voter
        while transmitting only to the primary (or, on retransmission, to
        the whole group), so a receiving voter can relay it and carry its
        authenticator as proof every voter can verify. ``message`` may be
        a pre-encoded :class:`~repro.common.encoding.WireBlob`; plain
        messages are encoded exactly once, into a blob.

        The proof path is explicit, not inferred from the address lists:
        even with batching enabled the message is signed now, so the
        embedded envelope keeps its full-audience authenticator.
        """
        self._post(audience, recipients, message, relayable=True)

    def _post(
        self,
        audience: list[Any],
        recipients: list[Any],
        message: Any,
        relayable: bool,
    ) -> None:
        if not recipients:
            return
        blob = wire_blob(message, self._encode)
        METRICS.multicasts += 1
        if self._buffering and not relayable:
            # Signing deferred to flush: covered by the batch MAC unless
            # the message turns out to travel alone.
            self._pending.append(["p", blob, list(recipients)])
        else:
            self._charge(self._cost.authenticator_cost_us(len(audience)))
            auth = self._auth.sign(blob, list(audience))
            envelope = WireEnvelope(payload=blob.data, auth=auth)
            if not self._buffering:
                transmit = self._connection.transmit
                for dst in recipients:
                    self._charge(self._wire_cpu_us)
                    transmit(dst, envelope)
                    METRICS.envelopes_sent += 1
                self.sent_count += len(recipients)
                return
            self._pending.append(["e", envelope, list(recipients)])
        if len(self._pending) == 1 and self._on_first_pending is not None:
            self._on_first_pending()

    def flush(self) -> None:
        """Transmit everything buffered since the last flush.

        Messages grouped per destination: a destination with one pending
        message receives a classic :class:`WireEnvelope`; a destination
        with several receives one :class:`BatchEnvelope` signed with a
        single MAC entry over the batch digest.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        per_dst: dict[Any, list[list]] = {}
        for op in pending:
            for dst in op[2]:
                per_dst.setdefault(dst, []).append(op)
        # Resolve deferred signing for "p" ops that travel alone somewhere.
        for op in pending:
            kind, blob, recipients = op
            if kind != "p":
                continue
            solo = sum(1 for d in recipients if len(per_dst[d]) == 1)
            if solo == 0:
                continue  # batched everywhere: batch MAC covers it
            self._charge(self._cost.authenticator_cost_us(len(recipients)))
            auth = self._auth.sign(blob, recipients)
            # Alone everywhere -> exactly the unbatched wire form; mixed
            # -> the same full-audience envelope rides embedded where the
            # destination's batch has company.
            op[0] = "solo" if solo == len(recipients) else "e"
            op[1] = WireEnvelope(payload=blob.data, auth=auth)
        transmit = self._connection.transmit
        for dst, ops in per_dst.items():
            if len(ops) == 1:
                self._charge(self._wire_cpu_us)
                transmit(dst, ops[0][1])
            else:
                items = tuple(
                    ("p", op[1].data) if op[0] == "p" else ("e", op[1])
                    for op in ops
                )
                self._charge(self._cost.authenticator_cost_us(1))
                auth = self._auth.sign(batch_frame(items), [dst])
                self._charge(self._wire_cpu_us)
                transmit(dst, BatchEnvelope(items=items, auth=auth))
                METRICS.batches_sent += 1
                METRICS.batch_messages += len(items)
            METRICS.envelopes_sent += 1
        self.sent_count += sum(len(op[2]) for op in pending)

    @property
    def pending_count(self) -> int:
        """Messages buffered and awaiting :meth:`flush`."""
        return len(self._pending)

    # -- receiving ----------------------------------------------------------

    def accept(self, envelope: WireEnvelope) -> Any | None:
        """Verify and decode an incoming envelope.

        Returns the decoded protocol message, or ``None`` if verification
        failed (the envelope is silently dropped, as a correct CLBFT
        replica does with unauthenticated input).

        Decoding is memoized on the envelope: a multicast delivers one
        envelope object to every co-resident receiver, so later receivers
        reuse the first decode. The decoded graph is therefore shared —
        receivers must treat messages as immutable, which replica
        determinism already demands.
        """
        if getattr(envelope, "_preverified", False):
            # A plain batch item: the batch MAC already authenticated it
            # (in open_batch, charged once per batch).
            self.received_count += 1
        else:
            self._charge(self._accept_charge_us)
            if not self._auth.verify_prehashed(
                envelope.payload_digest, envelope.auth
            ):
                self.rejected_count += 1
                return None
            self.received_count += 1
        # Memo keyed by decoder: receivers with a different codec (mixed
        # deployments) re-decode rather than alias the wrong object form.
        memo = getattr(envelope, "_decoded", None)
        if memo is not None and memo[0] is self._decode:
            return memo[1]
        decoded = self._decode(envelope.payload)
        object.__setattr__(envelope, "_decoded", (self._decode, decoded))
        return decoded

    def open_batch(self, batch: BatchEnvelope) -> list[WireEnvelope]:
        """Verify a batch MAC once and unpack the inner envelopes.

        Returns the inner envelopes in send order, ready for
        :meth:`accept` — embedded items verify their own full-audience
        authenticator there; plain items are marked pre-verified (the
        single batch verification just vouched for them) so accept skips
        the per-message MAC. An empty list means the batch MAC failed and
        every inner message was dropped.
        """
        self._charge(self._accept_charge_us)
        if not self._auth.verify_prehashed(batch.batch_digest, batch.auth):
            self.rejected_count += len(batch.items)
            return []
        sender = batch.auth.sender
        out = []
        for kind, value in batch.items:
            if kind == "e":
                out.append(value)
                continue

            def synthesize(payload: bytes, _sender: str = sender) -> WireEnvelope:
                env = WireEnvelope(
                    payload=payload,
                    auth=Authenticator(sender=_sender, entries=()),
                )
                object.__setattr__(env, "_preverified", True)
                return env

            out.append(_BATCH_ITEM_ENVELOPES.get(value, synthesize))
        return out

    def sender_of(self, envelope: WireEnvelope | BatchEnvelope) -> str:
        """The claimed sender (authenticated iff :meth:`accept` passed)."""
        return envelope.auth.sender
