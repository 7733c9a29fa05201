"""The Perpetual voter node.

One voter runs per service replica, co-located with that replica's driver
(paper section 2.1, Figure 1). The voter:

- embeds a CLBFT replica and uses it to agree on every event the local
  driver's executor will consume: external requests (stage 2), results of
  the service's own out-calls (stage 8), agreed utility values, and
  deterministic abort decisions;
- collects stage-1 request copies from calling drivers and, when primary,
  starts agreement once ``fc + 1`` matching copies arrived — the item
  carries each distinct copy's bytes once plus every copy's
  authenticator, so every backup re-verifies this before preparing;
- forwards the local executor's replies to the designated responder
  (stage 5) and, when acting as responder, bundles ``ft + 1`` matching
  replies for the calling drivers (stage 6);
- validates result/abort/utility agreement items against what its own
  co-located driver reported, deferring pre-prepares it cannot validate
  yet (PBFT external validity) rather than rejecting them.

Fault isolation falls out of the quorum checks here: fewer than ``fc + 1``
faulty calling replicas cannot inject a request, and a compromised target
cannot break the calling group's safety because the result consumed by the
application is whatever the calling group's own CLBFT instance agreed.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any

from repro.clbft.config import GroupConfig
from repro.clbft.messages import (
    ClientRequest,
    PrePrepare,
    decode_message,
    encode_message,
)
from repro.clbft.replica import VIEW_CHANGE_TIMER, ClbftReplica
from repro.common.encoding import IdentityMemo, wire_blob
from repro.common.errors import ProtocolError
from repro.common.ids import RequestId
from repro.common.metrics import METRICS
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.digest import digest, digest_hex
from repro.crypto.keys import KeyStore
from repro.perpetual.messages import (
    ITEM_ABORT,
    ITEM_REQUEST,
    ITEM_RESULT,
    ITEM_UTILITY,
    AbortRequest,
    AgreedEvent,
    LocalResult,
    OutRequest,
    ReplyBundle,
    ReplyForward,
    ResultSubmission,
    UtilityRequest,
    ViewHint,
    abort_item,
    item_kind,
    reply_auth_bytes,
    request_item,
    result_item,
    utility_item,
)
from repro.sim.kernel import ProtocolNode, SimNodeEnv
from repro.transport.channel import CHANNEL_FLUSH_TAG, ChannelAdapter
from repro.transport.connection import SimConnection
from repro.transport.wire import (
    BatchEnvelope,
    WireEnvelope,
    auth_from_wire,
    auth_to_wire,
)

# Simulated epoch so agreed clock values resemble wall-clock milliseconds
# (the paper's experiments ran in late 2007).
EPOCH_MS = 1_190_000_000_000


@lru_cache(maxsize=4096)
def voter_name(service: str, index: int) -> str:
    return f"{service}/v{index}"


@lru_cache(maxsize=4096)
def driver_name(service: str, index: int) -> str:
    return f"{service}/d{index}"


@lru_cache(maxsize=4096)
def principal_index(name: str) -> int | None:
    """Replica index from a ``service/vN`` or ``service/dN`` name."""
    _, _, tail = name.rpartition("/")
    if len(tail) >= 2 and tail[0] in ("v", "d") and tail[1:].isdigit():
        return int(tail[1:])
    return None


# Derived-digest memos: voters sharing one decoded message (multicast
# receivers, local echo + remote echoes of the same submission) compute
# its match key once. Keyed on object identity; safe because protocol
# messages are immutable once constructed.
_REQUEST_KEYS = IdentityMemo()
_SUBMISSION_KEYS = IdentityMemo()
_FORWARD_KEYS = IdentityMemo()
_ITEM_RESULT_KEYS = IdentityMemo()
# Stage-2 item payloads: the backups that share one decoded pre-prepare
# decode and digest each carried payload once, whatever the number of
# backups and proof entries; the primary seeds the decode memo with the
# copy it already holds.
_PAYLOAD_REQUESTS = IdentityMemo()
_PAYLOAD_DIGESTS = IdentityMemo()


def request_match_key(req: OutRequest) -> str:
    """Digest identifying 'matching' stage-1 copies.

    Retries rotate ``responder_index`` and bump ``attempt``; copies still
    match if the logical request — id, caller, target, payload — agrees.
    Keys are digests of the canonical encoding; every voter derives them
    with this same function, so only internal consistency matters.
    """
    # Key over a *subset* of the message (attempt/responder excluded),
    # so no wire blob matches; memoized per message object above.
    return _REQUEST_KEYS.get(
        req,
        lambda r: digest_hex(
            encode_message(  # analysis: allow(WIRE001, WIRE002) — see note
                ("out-request", r.request_id, r.caller, r.target, r.payload)
            )
        ),
    )


def result_match_key(request_id: RequestId, result: Any, aborted: bool) -> str:
    # Key over the agreed (id, result, aborted) triple, which never
    # crosses the wire in this exact shape; callers memoize
    # (submission_match_key, reply-store dedup).
    # analysis: allow(WIRE001, WIRE002)
    return digest_hex(encode_message(("result", request_id, result, aborted)))


def _decode_request(payload: bytes) -> OutRequest | None:
    try:
        # analysis: allow(WIRE001) — an item payload arrives inside an
        # agreement message, not through a channel, so there is no
        # accept() memo to share; memoized per payload object instead
        request = decode_message(payload)
    except ProtocolError:
        return None
    return request if isinstance(request, OutRequest) else None


def payload_request(payload: Any) -> OutRequest | None:
    """The stage-1 request a stage-2 item payload carries, decoded once
    per payload object; ``None`` unless it is bytes holding an
    :class:`OutRequest`."""
    if type(payload) is not bytes:
        return None
    return _PAYLOAD_REQUESTS.get(payload, _decode_request)


def payload_digest(payload: bytes) -> bytes:
    """Digest the proof entries of a stage-2 item verify against,
    computed once per payload object."""
    # analysis: allow(WIRE002) — the MAC input of every proof entry that
    # references this payload; memoized per payload object
    return _PAYLOAD_DIGESTS.get(payload, digest)


def forward_match_key(forward: ReplyForward) -> str:
    """Match key of a stage-5 reply forward, computed once per message."""
    return _FORWARD_KEYS.get(
        forward, lambda f: result_match_key(f.request_id, f.result, False)
    )


def submission_match_key(msg: ResultSubmission) -> str:
    """Match key of a stage-7 submission, computed once per message."""
    return _SUBMISSION_KEYS.get(
        msg, lambda m: result_match_key(m.request_id, m.result, m.aborted)
    )


def item_result_key(item: ClientRequest) -> str:
    """Match key of a result/abort agreement item, once per shared item."""
    return _ITEM_RESULT_KEYS.get(
        item,
        lambda it: result_match_key(
            it.op.get("request_id"),
            it.op.get("value"),
            item_kind(it) == ITEM_ABORT,
        ),
    )


class VoterNode(ProtocolNode):
    """One Perpetual voter, bound to the simulation kernel."""

    def __init__(
        self,
        topology,
        service: str,
        index: int,
        keys: KeyStore,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
        clbft_overrides: dict | None = None,
        fault: Any | None = None,
        batching: str | int = "off",
    ) -> None:
        self.topology = topology
        self.service = service
        self.index = index
        self.name = voter_name(service, index)
        self._keys = keys
        self._cost_model = cost_model
        self._batching = batching
        # Tick mode: the hosting substrate flushes after every handler.
        self.wants_flush = batching == "tick"
        spec = topology.spec(service)
        overrides = clbft_overrides or {}
        self.config = GroupConfig(n=spec.n, **overrides)
        self._env: SimNodeEnv | None = None
        self._channel: ChannelAdapter | None = None
        self.replica: ClbftReplica | None = None
        # Memoized peer-name lists (topology is fixed for a deployment).
        self._siblings_cache: list[str] | None = None
        self._caller_drivers_cache: dict[str, list[str]] = {}

        # Highest view already hinted to each calling driver (view 0 is
        # what a driver assumes unprompted, so it is never hinted).
        self._hinted_view: dict[str, int] = {}
        # Stage-2 collection: match-key -> {calling driver name: (envelope, req)}.
        self._request_copies: dict[str, dict[str, tuple[WireEnvelope, OutRequest]]] = {}
        # Executed external requests: request-id -> agreed OutRequest meta.
        self._incoming_meta: dict[RequestId, OutRequest] = {}
        # Local executor replies, kept for re-forwarding on retries: the
        # forward plus its encode-once blob, so a retry re-sends cached
        # bytes instead of re-running the encoder.
        self._reply_store: dict[RequestId, tuple[ReplyForward, Any]] = {}
        # Responder duty: request-id -> {voter index: ReplyForward}.
        self._responder_collect: dict[RequestId, dict[int, ReplyForward]] = {}
        self._responder_sent: set[RequestId] = set()
        # Stage-7 echoes from drivers: request-id -> {driver idx: match key}.
        self._result_echoes: dict[RequestId, dict[int, str]] = {}
        self._own_echo: dict[RequestId, tuple[str, ResultSubmission]] = {}
        # Utility requests from the co-located driver.
        self._own_utility: dict[int, str] = {}
        self._util_submitted: set[int] = set()
        # Out-call results already delivered to (or aborted for) the driver.
        self._delivered_results: set[RequestId] = set()
        # Pre-prepares awaiting external validity (deferred, then retried).
        self._deferred: list[tuple[int, PrePrepare]] = []
        # Checkpoint-driven GC index: request-id -> the agreement seqno
        # its cached state was last touched at. Entries at or below the
        # stable checkpoint are evicted (the Perpetual technical report's
        # reply-cache GC; replaces the old 4096-entry FIFO stand-in).
        self._gc_seqnos: dict[RequestId, int] = {}
        # Scripted fault injector (None on correct replicas = zero cost).
        self._fault = fault

        # Observability.
        self.delivered_requests = 0
        self.delivered_replies = 0
        self.delivered_aborts = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, env: SimNodeEnv) -> None:
        if self._fault is not None:
            # The wrapper interposes on send/local_deliver, so the
            # channel below and every direct env.send here flow through
            # the fault script.
            env = self._fault.wrap_env(env)
        self._env = env
        window = self._batching if isinstance(self._batching, int) else None
        self._channel = ChannelAdapter(
            me=self.name,
            keys=self._keys,
            connection=SimConnection(env),
            charge=env.charge,
            cost_model=self._cost_model,
            encode=encode_message,
            decode=decode_message,
            batching=self._batching,
            # Window mode: arm the flush timer when the first message
            # buffers; tick mode flushes via on_flush instead.
            on_first_pending=(
                None if window is None
                else lambda: env.set_timer(CHANNEL_FLUSH_TAG, window)
            ),
        )
        self.replica = ClbftReplica(
            config=self.config,
            index=self.index,
            execute=self._execute_item,
            multicast=self._clbft_multicast,
            send_to=self._clbft_send_to,
            set_timer=env.set_timer,
            cancel_timer=env.cancel_timer,
            on_new_view=self._on_clbft_new_view,
            on_stable_checkpoint=self._on_stable_checkpoint,
        )

    @property
    def driver(self) -> str:
        return driver_name(self.service, self.index)

    def _sibling_voters(self) -> list[str]:
        siblings = self._siblings_cache
        if siblings is None:
            spec = self.topology.spec(self.service)
            siblings = self._siblings_cache = [
                voter_name(self.service, i)
                for i in range(spec.n)
                if i != self.index
            ]
        return siblings

    def _clbft_multicast(self, msg: Any) -> None:
        if self._fault is not None:
            plan = self._fault.clbft_multicast_plan(
                msg, self._sibling_voters(), self.replica
            )
            if plan is not None:
                for recipients, variant in plan:
                    if recipients:
                        self._channel.multicast(list(recipients), variant)
                return
        self._channel.multicast(self._sibling_voters(), msg)

    def _clbft_send_to(self, index: int, msg: Any) -> None:
        if index == self.index:
            self.replica.on_message(index, msg)
        else:
            self._channel.send(voter_name(self.service, index), msg)

    # ------------------------------------------------------------------
    # Kernel entry points
    # ------------------------------------------------------------------

    def on_message(self, src: Any, msg: Any) -> None:
        if self._fault is not None and not self._fault.deliver_ok(src):
            return
        if isinstance(msg, WireEnvelope):
            self._on_network(msg)
        elif isinstance(msg, BatchEnvelope):
            # One MAC verification for the whole batch, then the inner
            # envelopes dispatch exactly as if they arrived unbatched.
            for inner in self._channel.open_batch(msg):
                self._on_network(inner)
        else:
            self._on_local(msg)

    def on_timer(self, tag: Any) -> None:
        if self._fault is not None and self._fault.on_timer(tag):
            return
        if tag == CHANNEL_FLUSH_TAG:
            self._channel.flush()
            return
        self.replica.on_timer(tag)

    def on_flush(self) -> None:
        self._channel.flush()

    # -- network messages ---------------------------------------------------

    def _on_network(self, envelope: WireEnvelope) -> None:
        # The channel's codec decodes straight to protocol messages.
        msg = self._channel.accept(envelope)
        if msg is None:
            return
        sender = self._channel.sender_of(envelope)
        if isinstance(msg, OutRequest):
            self._on_out_request(sender, envelope, msg)
        elif isinstance(msg, ReplyForward):
            self._on_reply_forward(sender, msg)
        elif isinstance(msg, ResultSubmission):
            index = principal_index(sender)
            if index is not None and sender == driver_name(self.service, index):
                self._on_result_submission(index, msg, own=index == self.index)
        elif isinstance(msg, PrePrepare):
            self._on_clbft_pre_prepare(sender, msg)
        else:
            index = principal_index(sender)
            if index is not None and sender == voter_name(self.service, index):
                self.replica.on_message(index, msg)

    # -- local (co-located driver) messages ------------------------------------

    def _on_local(self, msg: Any) -> None:
        if isinstance(msg, LocalResult):
            self._on_local_result(msg)
        elif isinstance(msg, ResultSubmission):
            self._on_result_submission(self.index, msg, own=True)
        elif isinstance(msg, UtilityRequest):
            self._on_utility_request(msg)
        elif isinstance(msg, AbortRequest):
            self._on_abort_request(msg)

    # ------------------------------------------------------------------
    # Stage 1-2: external requests arrive
    # ------------------------------------------------------------------

    def _on_out_request(
        self, sender: str, envelope: WireEnvelope, req: OutRequest
    ) -> None:
        if str(req.target) != self.service:
            return
        caller_spec = self.topology.spec_or_none(str(req.caller))
        if caller_spec is None:
            return
        caller_index = principal_index(sender)
        if caller_index is None or sender != driver_name(
            str(req.caller), caller_index
        ):
            return  # stage-1 requests come only from calling drivers
        if req.attempt and self.replica.view > self._hinted_view.get(sender, 0):
            # A retransmission: the driver's first attempt may have gone
            # to a primary this group has left. Tell it, once per view.
            self._hinted_view[sender] = self.replica.view
            self._channel.send(sender, ViewHint(view=self.replica.view))
        if req.request_id in self._reply_store:
            # Already executed: a retry routes the stored reply to the
            # retry's responder (the fault-handling path for a faulty
            # responder).
            stored_forward, stored_blob = self._reply_store[req.request_id]
            self._forward_reply(stored_forward, stored_blob, req)
            return
        if req.request_id in self._incoming_meta:
            # Agreed and delivered to the executor, reply still being
            # computed (slow execution, e.g. a nested out-call riding
            # through a view change downstream). Re-proposing would
            # double-execute; the reply is forwarded when it lands.
            return
        key = request_match_key(req)
        copies = self._request_copies.setdefault(key, {})
        copies[sender] = (envelope, req)
        if self.replica.is_primary:
            self._maybe_submit_external(key)
        else:
            # Relay the authenticated envelope to the current primary; its
            # authenticator covers every target voter, so it stays
            # verifiable end-to-end. Receiving a stage-1 copy is also
            # evidence a request awaits ordering: arm the view-change
            # timer so a dead or mute primary cannot stall the group
            # (PBFT's client-request liveness rule).
            primary = self.config.primary_of(self.replica.view)
            if primary != self.index:
                self._env.send(
                    voter_name(self.service, primary),
                    envelope,
                    size_bytes=envelope.size_bytes,
                )
            if not self._env.timer_armed(VIEW_CHANGE_TIMER):
                self._env.set_timer(
                    VIEW_CHANGE_TIMER, self.config.view_change_timeout_us
                )

    def _maybe_submit_external(self, key: str) -> None:
        """Primary duty: start agreement once fc+1 matching copies exist."""
        copies = self._request_copies.get(key)
        if not copies:
            return
        sample = next(iter(copies.values()))[1]
        caller_spec = self.topology.spec_or_none(str(sample.caller))
        if caller_spec is None:
            return
        needed = caller_spec.f + 1
        if len(copies) < needed:
            return
        # Each distinct payload travels once; matching copies that differ
        # only in attempt/responder_index (retransmissions) each travel.
        payloads: list[bytes] = []
        proof = []
        for envelope, req in list(copies.values())[:needed]:
            payload = envelope.payload
            if payload not in payloads:
                payloads.append(payload)
                _PAYLOAD_REQUESTS.get(payload, lambda _, r=req: r)
            proof.append([payloads.index(payload), auth_to_wire(envelope.auth)])
        self.replica.submit(request_item(sample.request_id, payloads, proof))

    def _on_clbft_new_view(self, new_view: int) -> None:
        """Entering a view: if now primary, propose every request whose
        fc+1 copies this voter already collected while a previous primary
        was failing."""
        if self.replica.is_primary:
            for key in list(self._request_copies):
                self._maybe_submit_external(key)

    def _validate_request_item(self, item: ClientRequest) -> bool:
        """Hard validity of a stage-2 agreement item (proof of fc+1 copies).

        Every payload is an :class:`OutRequest` for this service and all
        share one match key; every payload is referenced by a proof
        entry; every entry's authenticator is a calling driver's and its
        MAC for this voter verifies over the referenced payload; and at
        least ``fc + 1`` distinct drivers vouch.
        """
        payloads = item.op.get("payloads")
        proof = item.op.get("proof")
        if type(payloads) is not list or not payloads or type(proof) is not list:
            return False
        requests = [payload_request(payload) for payload in payloads]
        if None in requests:
            return False
        agreed_req = requests[0]
        if str(agreed_req.target) != self.service:
            return False
        caller = str(agreed_req.caller)
        caller_spec = self.topology.spec_or_none(caller)
        if caller_spec is None or len(proof) < caller_spec.f + 1:
            return False
        expected_key = request_match_key(agreed_req)
        if any(request_match_key(req) != expected_key for req in requests[1:]):
            return False
        verifier = self._channel.auth_factory
        referenced = set()
        senders = set()
        for entry in proof:
            try:
                index, wire_auth = entry
                auth = auth_from_wire(wire_auth)
                sender = auth.sender
                if (
                    type(index) is not int
                    or not 0 <= index < len(payloads)
                    or type(sender) is not str
                    or not verifier.verify_prehashed(
                        payload_digest(payloads[index]), auth
                    )
                ):
                    return False
            except (TypeError, ValueError):
                return False  # a malformed entry (or MAC tag) from the primary
            driver = principal_index(sender)
            if driver is None or sender != driver_name(caller, driver):
                return False
            referenced.add(index)
            senders.add(sender)
        return len(referenced) == len(payloads) and len(senders) >= caller_spec.f + 1

    # ------------------------------------------------------------------
    # Stage 4-6: local results, reply forwarding, responder duty
    # ------------------------------------------------------------------

    def _on_local_result(self, msg: LocalResult) -> None:
        meta = self._incoming_meta.get(msg.request_id)
        if meta is None:
            return  # result for a request we never delivered (driver bug)
        caller_drivers = self._caller_drivers(str(meta.caller))
        auth = self._sign_for(
            caller_drivers, reply_auth_bytes(msg.request_id, msg.result)
        )
        forward = ReplyForward(
            request_id=msg.request_id,
            result=msg.result,
            voter_index=self.index,
            auth=auth,
        )
        blob = wire_blob(forward, encode_message)
        self._reply_store[msg.request_id] = (forward, blob)
        self._forward_reply(forward, blob, meta)

    def _sign_for(self, receivers: list[str], data: bytes) -> list:
        """MAC authenticator over ``data`` for the calling drivers."""
        self._env.charge(self._cost_model.authenticator_cost_us(len(receivers)))
        factory = self._channel.auth_factory
        return auth_to_wire(factory.sign(data, list(receivers)))

    def _forward_reply(
        self, forward: ReplyForward, blob: Any, meta: OutRequest
    ) -> None:
        spec = self.topology.spec(self.service)
        responder_index = meta.responder_index % spec.n
        if responder_index == self.index:
            self._collect_reply(forward, meta)
        else:
            # Forward the cached blob: retries and rotated responders
            # reuse the bytes encoded when the result was first stored.
            self._channel.send(voter_name(self.service, responder_index), blob)

    def _on_reply_forward(self, sender: str, msg: ReplyForward) -> None:
        index = principal_index(sender)
        if index is None or sender != voter_name(self.service, index):
            return
        if index != msg.voter_index:
            return
        meta = self._incoming_meta.get(msg.request_id)
        if meta is None:
            return
        self._collect_reply(msg, meta)

    def _collect_reply(self, forward: ReplyForward, meta: OutRequest) -> None:
        """Responder duty: bundle ft+1 matching replies (stage 6)."""
        request_id = forward.request_id
        if request_id in self._responder_sent:
            return
        collected = self._responder_collect.setdefault(request_id, {})
        collected[forward.voter_index] = forward
        spec = self.topology.spec(self.service)
        by_value: dict[str, list[ReplyForward]] = {}
        for fwd in collected.values():
            by_value.setdefault(forward_match_key(fwd), []).append(fwd)
        for matching in by_value.values():
            if len(matching) >= spec.f + 1:
                bundle = ReplyBundle(
                    request_id=request_id,
                    result=matching[0].result,
                    vouchers=tuple(
                        (fwd.voter_index, fwd.auth) for fwd in matching
                    ),
                )
                # Stage 6 fast path: encode the bundle once and multicast
                # it with one authenticator covering every calling driver
                # (the seed re-encoded and re-signed per driver).
                self._channel.multicast(
                    self._caller_drivers(str(meta.caller)), bundle
                )
                self._responder_sent.add(request_id)
                self._responder_collect.pop(request_id, None)
                return

    def _caller_drivers(self, caller: str) -> list[str]:
        drivers = self._caller_drivers_cache.get(caller)
        if drivers is None:
            spec = self.topology.spec(caller)
            drivers = [driver_name(caller, i) for i in range(spec.n)]
            self._caller_drivers_cache[caller] = drivers
        return drivers

    # ------------------------------------------------------------------
    # Stage 7-8: result submissions from calling drivers
    # ------------------------------------------------------------------

    def _on_result_submission(
        self, driver_index: int, msg: ResultSubmission, own: bool = False
    ) -> None:
        if msg.request_id in self._delivered_results:
            return
        key = submission_match_key(msg)
        echoes = self._result_echoes.setdefault(msg.request_id, {})
        echoes[driver_index] = key
        if own:
            self._own_echo[msg.request_id] = (key, msg)
        self._maybe_submit_result(msg.request_id, key, msg)
        self._retry_deferred()

    def _maybe_submit_result(
        self, request_id: RequestId, key: str, msg: ResultSubmission
    ) -> None:
        if not self._result_validated(request_id, key):
            return
        if msg.aborted:
            self.replica.submit(abort_item(request_id))
        else:
            self.replica.submit(result_item(request_id, msg.result))

    def _result_validated(self, request_id: RequestId, key: str) -> bool:
        """Own-driver echo, or fc+1 distinct driver echoes, match ``key``."""
        own = self._own_echo.get(request_id)
        if own is not None and own[0] == key:
            return True
        spec = self.topology.spec(self.service)
        echoes = self._result_echoes.get(request_id, {})
        matching = [i for i, k in echoes.items() if k == key]
        return len(matching) >= spec.f + 1

    # ------------------------------------------------------------------
    # Utilities and aborts (local driver requests)
    # ------------------------------------------------------------------

    def _on_utility_request(self, msg: UtilityRequest) -> None:
        self._own_utility[msg.util_seq] = msg.utility
        if msg.util_seq in self._util_submitted:
            return
        self._util_submitted.add(msg.util_seq)
        value = None
        if self.replica.is_primary:
            value = self._propose_utility_value(msg.utility, msg.util_seq)
        self.replica.submit(utility_item(msg.util_seq, msg.utility, value))
        self._retry_deferred()

    def _propose_utility_value(self, utility: str, util_seq: int) -> int:
        """The primary's proposed value (paper section 4.2)."""
        if utility in ("time", "timestamp"):
            return EPOCH_MS + self._env.now_ms()
        seed_material = f"{self.service}:{util_seq}:{self._env.now_us()}"
        return int.from_bytes(
            hashlib.sha256(seed_material.encode()).digest()[:8], "big"
        )

    def _on_abort_request(self, msg: AbortRequest) -> None:
        self._on_result_submission(
            self.index,
            ResultSubmission(request_id=msg.request_id, result=None, aborted=True),
            own=True,
        )

    # ------------------------------------------------------------------
    # External validity: intercepting pre-prepares
    # ------------------------------------------------------------------

    def _on_clbft_pre_prepare(self, sender: str, msg: PrePrepare) -> None:
        index = principal_index(sender)
        if index is None or sender != voter_name(self.service, index):
            return
        verdict = self._validate_batch(msg.requests)
        if verdict == "reject":
            return
        if verdict == "defer":
            self._deferred.append((index, msg))
            return
        self.replica.on_message(index, msg)

    def _validate_batch(self, requests: tuple) -> str:
        """Validate every item in a batch: accept, reject, or defer."""
        for item in requests:
            kind = item_kind(item)
            if kind == ITEM_REQUEST:
                if not self._validate_request_item(item):
                    return "reject"
            elif kind in (ITEM_RESULT, ITEM_ABORT):
                request_id = item.op.get("request_id")
                if request_id in self._delivered_results:
                    continue  # stale re-proposal; executing it is a no-op
                key = item_result_key(item)
                if not self._result_validated(request_id, key):
                    return "defer"
            elif kind == ITEM_UTILITY:
                if "value" not in item.op:
                    return "reject"
                wanted = self._own_utility.get(item.timestamp)
                if wanted is None:
                    return "defer"
                if wanted != item.op.get("utility"):
                    return "reject"
        return "accept"

    def _retry_deferred(self) -> None:
        if not self._deferred:
            return
        pending, self._deferred = self._deferred, []
        for index, msg in pending:
            verdict = self._validate_batch(msg.requests)
            if verdict == "accept":
                self.replica.on_message(index, msg)
            elif verdict == "defer":
                self._deferred.append((index, msg))

    # ------------------------------------------------------------------
    # Stage 3 and 9: agreed items reach the local driver
    # ------------------------------------------------------------------

    def _execute_item(self, seqno: int, item: ClientRequest) -> Any:
        kind = item_kind(item)
        if kind == ITEM_REQUEST:
            return self._deliver_request(seqno, item)
        if kind == ITEM_RESULT:
            return self._deliver_result(seqno, item)
        if kind == ITEM_ABORT:
            return self._deliver_abort(seqno, item)
        if kind == ITEM_UTILITY:
            return self._deliver_utility(item)
        return None

    def _deliver_request(self, seqno: int, item: ClientRequest) -> Any:
        # The agreed request is a copy a calling driver authenticated.
        req = payload_request(item.op["payloads"][0])
        self._incoming_meta[req.request_id] = req
        self._gc_seqnos[req.request_id] = seqno
        self._request_copies.pop(request_match_key(req), None)
        self.delivered_requests += 1
        self._env.local_deliver(
            self.driver,
            AgreedEvent(
                kind="request",
                body={
                    "request_id": req.request_id,
                    "caller": str(req.caller),
                    "payload": req.payload,
                    "responder_index": req.responder_index,
                },
            ),
        )
        return {"delivered": str(req.request_id)}

    def _deliver_result(self, seqno: int, item: ClientRequest) -> Any:
        request_id = item.op["request_id"]
        if request_id in self._delivered_results:
            return {"duplicate": True}
        self._delivered_results.add(request_id)
        self._gc_seqnos[request_id] = seqno
        self._cleanup_result_state(request_id)
        self.delivered_replies += 1
        self._env.local_deliver(
            self.driver,
            AgreedEvent(
                kind="reply",
                body={
                    "request_id": request_id,
                    "value": item.op["value"],
                    "aborted": False,
                },
            ),
        )
        return {"delivered": str(request_id)}

    def _deliver_abort(self, seqno: int, item: ClientRequest) -> Any:
        request_id = item.op["request_id"]
        if request_id in self._delivered_results:
            return {"duplicate": True}
        self._delivered_results.add(request_id)
        self._gc_seqnos[request_id] = seqno
        self._cleanup_result_state(request_id)
        self.delivered_aborts += 1
        self._env.local_deliver(
            self.driver,
            AgreedEvent(
                kind="reply",
                body={"request_id": request_id, "value": None, "aborted": True},
            ),
        )
        return {"aborted": str(request_id)}

    def _deliver_utility(self, item: ClientRequest) -> Any:
        self._env.local_deliver(
            self.driver,
            AgreedEvent(
                kind="utility",
                body={
                    "util_seq": item.timestamp,
                    "utility": item.op["utility"],
                    "value": item.op["value"],
                },
            ),
        )
        return {"utility": item.timestamp}

    def _cleanup_result_state(self, request_id: RequestId) -> None:
        self._result_echoes.pop(request_id, None)
        self._own_echo.pop(request_id, None)

    # ------------------------------------------------------------------
    # Checkpoint-driven garbage collection
    # ------------------------------------------------------------------

    @property
    def reply_cache_size(self) -> int:
        """Live entries in the reply store (bounded by checkpoint GC)."""
        return len(self._reply_store)

    def _on_stable_checkpoint(self, stable_seqno: int) -> None:
        """Evict per-request caches whose state was settled at or below
        the stable checkpoint (the technical report's reply-cache GC).

        A retransmission arriving after its reply was collected is
        re-executed from scratch; correct callers stop retransmitting
        once the reply bundle is delivered, and the fc+1-copy rule keeps
        faulty callers from forging late requests, so the window is
        bounded by the checkpoint interval.
        """
        if not self._gc_seqnos:
            return
        n = self.topology.spec(self.service).n
        dead = []
        for rid, seqno in self._gc_seqnos.items():
            if seqno > stable_seqno:
                continue
            meta = self._incoming_meta.get(rid)
            if meta is not None:
                # A delivered request whose local result has not landed
                # yet is still at-most-once-guarded by
                # ``_incoming_meta``; re-proposal would double-execute.
                if rid not in self._reply_store:
                    continue
                # Responder duty not discharged: at deep async windows
                # the stable checkpoint overtakes reply traffic still in
                # flight, and evicting the meta/collection state here
                # would strand the bundle and stall the caller into a
                # retransmission. The entry falls at the checkpoint
                # after the bundle ships.
                if (rid in self._responder_collect
                        or (meta.responder_index % n == self.index
                            and rid not in self._responder_sent)):
                    continue
            dead.append(rid)
        if not dead:
            return
        for rid in dead:
            del self._gc_seqnos[rid]
            self._incoming_meta.pop(rid, None)
            self._reply_store.pop(rid, None)
            self._responder_collect.pop(rid, None)
            self._responder_sent.discard(rid)
            self._delivered_results.discard(rid)
            self._cleanup_result_state(rid)
        METRICS.cache_evictions += len(dead)
