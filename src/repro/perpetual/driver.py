"""The Perpetual driver node.

One driver runs per service replica, co-located with the replica's voter.
The driver hosts the *executor* — the application's deterministic thread
of computation — and performs the active sides of Figure 1:

- stage 1: ship the executor's out-calls to the primary of the view the
  target group was last reported to be in (view 0 until ``ft + 1`` of its
  voters say otherwise, see :class:`~repro.perpetual.messages.ViewHint`),
  authenticated for every target voter, with retransmission to the whole
  target group (and responder rotation) on timeout; the responder and
  the first-attempt recipient skip up to ``ft`` target voters this
  driver suspects of being silent;
- stage 4: hand the executor's replies to the co-located voter;
- stage 7: verify reply bundles from target responders (``ft + 1``
  distinct voter MACs over the result) and echo the verified result to
  the calling voter group;
- timeouts: when an out-call carried a timeout, propose the deterministic
  abort to the voter group when it expires.

All state the executor observes flows through voter agreement, so every
correct replica's executor sees the identical event sequence.
"""

from __future__ import annotations

from typing import Any

from repro.clbft.config import GroupConfig
from repro.common.ids import RequestId, RequestIdAllocator, ServiceId
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.perpetual.executor import (
    AppFactory,
    ExecutorRuntime,
    ReplyEvent,
    RequestEvent,
    Send,
)
from repro.perpetual.messages import (
    AgreedEvent,
    LocalResult,
    OutRequest,
    ReplyBundle,
    ResultSubmission,
    UtilityRequest,
    ViewHint,
    decode_perpetual,
)
from repro.common.metrics import METRICS
from repro.perpetual.voter import driver_name, principal_index, voter_name
from repro.sim.kernel import ProtocolNode, SimNodeEnv, US_PER_MS
from repro.sim.rng import DeterministicRng
from repro.transport.channel import CHANNEL_FLUSH_TAG, ChannelAdapter
from repro.transport.connection import SimConnection
from repro.transport.wire import BatchEnvelope, WireEnvelope, auth_from_wire

RETRANSMIT_TIMEOUT_US = 250_000
#: Truncated binary exponential backoff: ceiling on the rearm delay.
RETRANSMIT_CAP_US = 4_000_000
#: Uniform jitter fraction added to each backoff delay (deterministic:
#: drawn from a per-driver seeded stream, so sim runs stay reproducible).
RETRANSMIT_JITTER = 0.1
#: Retry budget: after this many retransmissions the driver proposes the
#: deterministic abort rather than rearming forever.
RETRY_BUDGET = 10


class DriverNode(ProtocolNode):
    """One Perpetual driver, bound to the simulation kernel."""

    def __init__(
        self,
        topology,
        service: str,
        index: int,
        keys: KeyStore,
        app_factory: AppFactory,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
        retransmit_timeout_us: int = RETRANSMIT_TIMEOUT_US,
        retry_budget: int = RETRY_BUDGET,
        fault: Any | None = None,
        batching: str | int = "off",
    ) -> None:
        self.topology = topology
        self.service = service
        self.index = index
        self.name = driver_name(service, index)
        self._keys = keys
        self._cost_model = cost_model
        self._retransmit_timeout_us = retransmit_timeout_us
        self._retry_budget = retry_budget
        self._rtx_rng = DeterministicRng(0, f"rtx/{self.name}")
        self._fault = fault
        self._batching = batching
        self.wants_flush = batching == "tick"
        self._env: SimNodeEnv | None = None
        self._channel: ChannelAdapter | None = None
        self._allocator = RequestIdAllocator(ServiceId(service), start=1)
        self.runtime = ExecutorRuntime(
            app_factory=app_factory,
            allocate_request_id=self._allocator.next_id,
        )
        # Out-calls awaiting a reply: request-id -> the Send effect's data.
        self._outstanding: dict[RequestId, OutRequest] = {}
        self._timeouts_ms: dict[RequestId, int | None] = {}
        self._echoed: set[RequestId] = set()
        self._util_seq = 0
        # Target-group views: target -> {voter index: highest view it
        # reported}, and the index of the voter leading the view adopted
        # from those reports (where first attempts go; absent = view 0's
        # primary).
        self._view_reports: dict[str, dict[int, int]] = {}
        self._target_primary: dict[str, int] = {}
        # Target voters suspected of being unable to bundle, oldest
        # first, at most ft per target: stage 1 routes around them.
        self._suspects: dict[str, list[int]] = {}

        # Observability.
        self.completed_calls = 0
        self.aborted_calls = 0
        self.first_issue_us: int | None = None
        self.last_completion_us: int = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, env: SimNodeEnv) -> None:
        if self._fault is not None:
            env = self._fault.wrap_env(env)
        self._env = env
        window = self._batching if isinstance(self._batching, int) else None
        self._channel = ChannelAdapter(
            me=self.name,
            keys=self._keys,
            connection=SimConnection(env),
            charge=env.charge,
            cost_model=self._cost_model,
            decode=decode_perpetual,
            batching=self._batching,
            on_first_pending=(
                None if window is None
                else lambda: env.set_timer(CHANNEL_FLUSH_TAG, window)
            ),
        )

    @property
    def voter(self) -> str:
        return voter_name(self.service, self.index)

    @property
    def in_flight_calls(self) -> int:
        """Out-calls issued but not yet settled (completed or aborted).

        Real-parallelism runtimes use this as the workload-done signal: a
        scenario is settled when every live driver reports zero and the
        message queues are drained.
        """
        return len(self._outstanding)

    def _own_voters(self) -> list[str]:
        spec = self.topology.spec(self.service)
        return [voter_name(self.service, i) for i in range(spec.n)]

    # ------------------------------------------------------------------
    # Kernel entry points
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        # Active applications may compute and issue out-calls before any
        # message arrives (the long-running thread of section 4.1).
        self._pump()

    def on_message(self, src: Any, msg: Any) -> None:
        if self._fault is not None and not self._fault.deliver_ok(src):
            return
        if isinstance(msg, WireEnvelope):
            decoded = self._channel.accept(msg)
            if decoded is not None:
                self._on_network(msg.auth.sender, decoded)
            return
        if isinstance(msg, BatchEnvelope):
            for sender, _envelope, decoded in self._channel.open_batch(msg):
                self._on_network(sender, decoded)
            return
        if isinstance(msg, AgreedEvent):
            self._on_agreed_event(msg)

    def _on_network(self, sender: str, protocol_msg: Any) -> None:
        if isinstance(protocol_msg, ReplyBundle):
            self._on_reply_bundle(sender, protocol_msg)
        elif isinstance(protocol_msg, ViewHint):
            self._on_view_hint(sender, protocol_msg)

    def on_flush(self) -> None:
        self._channel.flush()

    def on_timer(self, tag: Any) -> None:
        if self._fault is not None and self._fault.on_timer(tag):
            return
        if tag == "sleep":
            self.runtime.deliver_wakeup()
            self._pump()
            return
        if tag == CHANNEL_FLUSH_TAG:
            self._channel.flush()
            return
        kind, request_id = tag
        if request_id not in self._outstanding:
            return
        if kind == "rtx":
            self._retransmit(request_id)
        elif kind == "abort":
            self._propose_abort(request_id)

    # ------------------------------------------------------------------
    # Executor pump
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Resume the executor and act on everything it emitted."""
        self.runtime.step()
        outbox = self.runtime.take_outbox()
        if outbox.compute_us:
            self._env.charge(outbox.compute_us)
        for request_id, send in outbox.sends:
            self._issue(request_id, send)
        for reply in outbox.replies:
            self._env.local_deliver(
                self.voter,
                LocalResult(
                    request_id=reply.request.request_id, result=reply.payload
                ),
            )
        if outbox.utility is not None:
            self._util_seq += 1
            self._env.local_deliver(
                self.voter,
                UtilityRequest(util_seq=self._util_seq, utility=outbox.utility),
            )
        if outbox.sleep_us is not None:
            self._env.set_timer("sleep", outbox.sleep_us)

    # ------------------------------------------------------------------
    # Stage 1: issuing out-calls
    # ------------------------------------------------------------------

    def _issue(self, request_id: RequestId, send: Send) -> None:
        request = OutRequest(
            request_id=request_id,
            caller=ServiceId(self.service),
            target=ServiceId(send.target),
            payload=send.payload,
            responder_index=self._unsuspected(send.target, request_id.seqno),
            attempt=0,
        )
        self._outstanding[request_id] = request
        self._timeouts_ms[request_id] = send.timeout_ms
        if self.first_issue_us is None:
            self.first_issue_us = self._env.now_us()
        self._transmit_request(request, to_all=False)
        self._env.set_timer(("rtx", request_id), self._retransmit_delay_us(0))
        if send.timeout_ms is not None:
            self._env.set_timer(("abort", request_id), send.timeout_ms * US_PER_MS)

    def _transmit_request(self, request: OutRequest, to_all: bool) -> None:
        """Send a stage-1 request, authenticated for every target voter.

        The primary-only fast path matches the paper; retransmissions go
        to the whole group, whose members relay to their current primary.
        The channel signs for the full audience from one encoding pass.
        """
        target = str(request.target)
        spec = self.topology.spec(target)
        voters = [voter_name(target, i) for i in range(spec.n)]
        if to_all:
            self._channel.multicast_to(voters, voters, request)
        else:
            # A suspected primary is passed over for the next voter, which
            # leads the next view or relays to whoever leads this one.
            primary = self._target_primary.get(target, 0)
            recipient = voters[self._unsuspected(target, primary)]
            self._channel.multicast_to(voters, [recipient], request)

    # ------------------------------------------------------------------
    # Responder suspicion
    # ------------------------------------------------------------------

    def _unsuspected(self, target: str, start: int) -> int:
        """The first target voter index from ``start`` (mod n) that this
        driver does not suspect. At most ``ft < n`` are suspected."""
        n = self.topology.spec(target).n
        suspects = self._suspects.get(target, ())
        index = start % n
        while index in suspects:
            index = (index + 1) % n
        return index

    def _suspect(self, target: str, index: int) -> None:
        """Route around ``index`` until it shows up in a verified bundle.

        Only the newest ``ft`` suspicions are kept, so no more than f
        voters are ever skipped and a merely slow one returns to rotation.
        """
        suspects = self._suspects.setdefault(target, [])
        if index in suspects:
            suspects.remove(index)
        suspects.append(index)
        overflow = len(suspects) - self.topology.spec(target).f
        if overflow > 0:
            del suspects[:overflow]

    def _on_view_hint(self, sender: str, hint: ViewHint) -> None:
        """Follow a target group's view from its voters' reports.

        Adopts the (ft+1)-th largest of the per-voter highest reports:
        at least one correct voter is in that view or a later one, and a
        lying voter can neither push the choice up nor hold it back.
        Reports only rise, so the adopted view never falls. It only picks
        where first attempts go — a retransmission still reaches the whole
        group — so a wrong guess costs one timeout. The primary of the
        view left behind failed to order: it becomes a suspect.
        """
        target = sender.rpartition("/")[0]
        spec = self.topology.spec_or_none(target)
        index = principal_index(sender)
        if (
            spec is None
            or index is None
            or index >= spec.n
            or sender != voter_name(target, index)
            or not isinstance(hint.view, int)
        ):
            return
        reports = self._view_reports.setdefault(target, {})
        if hint.view <= reports.get(index, 0):
            return
        reports[index] = hint.view
        if len(reports) <= spec.f:
            return
        view = sorted(reports.values(), reverse=True)[spec.f]
        primary = GroupConfig(n=spec.n).primary_of(view)
        previous = self._target_primary.get(target, 0)
        if primary != previous:
            self._suspect(target, previous)
        self._target_primary[target] = primary

    def _retransmit_delay_us(self, attempt: int) -> int:
        """Backoff schedule: truncated binary exponential with jitter.

        ``base * 2^attempt`` capped at :data:`RETRANSMIT_CAP_US`, plus a
        uniform jitter of up to :data:`RETRANSMIT_JITTER` of the delay so
        a whole calling group does not retransmit in lockstep. The jitter
        stream is seeded per driver name, keeping simulator runs
        deterministic.
        """
        base = min(self._retransmit_timeout_us << attempt, RETRANSMIT_CAP_US)
        spread = int(base * RETRANSMIT_JITTER)
        if spread <= 0:
            return base
        return base + self._rtx_rng.randint(0, spread)

    def _retransmit(self, request_id: RequestId) -> None:
        request = self._outstanding[request_id]
        attempt = request.attempt + 1
        if attempt > self._retry_budget:
            # Budget exhausted: stop rearming and propose the
            # deterministic abort so the call settles instead of
            # retrying a dead or unreachable target forever.
            self._propose_abort(request_id)
            return
        target = str(request.target)
        # The responder let this call time out: suspect it, and rotate on.
        self._suspect(target, request.responder_index)
        retried = OutRequest(
            request_id=request.request_id,
            caller=request.caller,
            target=request.target,
            payload=request.payload,
            responder_index=self._unsuspected(
                target, request.responder_index + 1
            ),
            attempt=attempt,
        )
        self._outstanding[request_id] = retried
        METRICS.retransmissions += 1
        self._transmit_request(retried, to_all=True)
        self._env.set_timer(("rtx", request_id), self._retransmit_delay_us(attempt))

    # ------------------------------------------------------------------
    # Stage 7: reply bundles
    # ------------------------------------------------------------------

    def _on_reply_bundle(self, sender: str, bundle: ReplyBundle) -> None:
        request = self._outstanding.get(bundle.request_id)
        if request is None or bundle.request_id in self._echoed:
            return
        target = str(request.target)
        sender_index = principal_index(sender)
        if sender_index is None or sender != voter_name(target, sender_index):
            return
        vouching = self._verify_bundle(target, bundle)
        if not vouching:
            return
        # Whoever sent or vouched for a verified bundle is alive. If the
        # responder this driver named is not among them, another voter
        # bundled the call: suspect the named one, as the driver whose
        # retransmission timer fired on it already does.
        alive = vouching | {sender_index}
        if request.responder_index not in alive:
            self._suspect(target, request.responder_index)
        suspects = self._suspects.get(target)
        if suspects:
            suspects[:] = [i for i in suspects if i not in alive]
        self._echoed.add(bundle.request_id)
        submission = ResultSubmission(
            request_id=bundle.request_id, result=bundle.result
        )
        self._echo_submission(submission)

    def _verify_bundle(self, target: str, bundle: ReplyBundle) -> set[int]:
        """The ``ft + 1`` or more distinct target voters whose vouchers for
        the result verify; empty when there are fewer."""
        spec = self.topology.spec(target)
        data_digest = bundle.auth_digest
        factory = self._channel.auth_factory
        vouching = set()
        for voter_index, wire_auth in bundle.vouchers:
            self._env.charge(self._cost_model.verification_cost_us())
            try:
                auth = auth_from_wire(wire_auth)
            except (ValueError, TypeError):
                continue
            if auth.sender != voter_name(target, voter_index):
                continue
            if factory.verify_prehashed(data_digest, auth):
                vouching.add(voter_index)
        return vouching if len(vouching) > spec.f else set()

    def _echo_submission(self, submission: ResultSubmission) -> None:
        """Echo a verified (or timed-out) result to every calling voter."""
        remote = [v for v in self._own_voters() if v != self.voter]
        if remote:
            self._channel.multicast(remote, submission)
        self._env.local_deliver(self.voter, submission)

    def _propose_abort(self, request_id: RequestId) -> None:
        self._echo_submission(
            ResultSubmission(request_id=request_id, result=None, aborted=True)
        )

    # ------------------------------------------------------------------
    # Stages 3 and 9: agreed events from the voter
    # ------------------------------------------------------------------

    def _on_agreed_event(self, event: AgreedEvent) -> None:
        if event.kind == "request":
            body = event.body
            self.runtime.deliver_request(
                RequestEvent(
                    request_id=body["request_id"],
                    caller=body["caller"],
                    payload=body["payload"],
                    responder_index=body["responder_index"],
                )
            )
        elif event.kind == "reply":
            body = event.body
            request_id = body["request_id"]
            self._settle(request_id)
            self.last_completion_us = self._env.now_us()
            if body["aborted"]:
                self.aborted_calls += 1
            else:
                self.completed_calls += 1
            self.runtime.deliver_reply(
                ReplyEvent(
                    request_id=request_id,
                    payload=body["value"],
                    aborted=body["aborted"],
                )
            )
        elif event.kind == "utility":
            body = event.body
            self.runtime.deliver_utility(body["utility"], body["value"])
        self._pump()

    def _settle(self, request_id: RequestId) -> None:
        self._outstanding.pop(request_id, None)
        self._timeouts_ms.pop(request_id, None)
        self._echoed.discard(request_id)
        self._env.cancel_timer(("rtx", request_id))
        self._env.cancel_timer(("abort", request_id))
