"""The CLBFT replica state machine.

Sans-IO: all effects flow through injected callables —

- ``execute(seqno, request)`` — application upcall, invoked in
  sequence-number order exactly once per request;
- ``multicast(msg)`` — authenticated send to every *other* group member;
- ``send_to(index, msg)`` — authenticated send to one group member;
- ``set_timer(tag, delay_us)`` / ``cancel_timer(tag)`` — liveness timers.

The Perpetual voter is the only embedder. Items enter agreement only
through its :meth:`ClbftReplica.submit`, after the voter validated them;
:meth:`ClbftReplica.on_message` takes the six replica-to-replica messages
and nothing else, so a peer cannot inject an item.

The implementation follows Castro & Liskov (OSDI'99) with MAC
authenticators: three-phase normal case (pre-prepare, prepare, commit),
request batching at the primary (at each submit, or once per tick of the
embedder), checkpointing every K sequence numbers with garbage
collection, and view changes carrying checkpoint and prepared-certificate
proofs. Authentication is enforced one layer below (the ChannelAdapter
verifies before the voter feeds messages in), so this module trusts
``src_index``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.clbft.config import GroupConfig
from repro.clbft.log import MessageLog, SeqnoEntry
from repro.clbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    ViewChange,
    batch_digest,
)
from repro.common.metrics import METRICS
from repro.crypto.digest import digest

VIEW_CHANGE_TIMER = "clbft-view-change"
# analysis: allow(WIRE002) — module constant, digested once at import
NULL_DIGEST = digest(("null",))

def request_key(request: ClientRequest) -> tuple[str, int]:
    return (request.client, request.timestamp)


class ClbftReplica:
    """One member of a CLBFT group.

    With ``propose_at_tick`` a primary does not propose inside
    :meth:`submit`: the embedder calls :meth:`propose_pending` at the end
    of each tick (one handler on the simulator, one mailbox drain on a
    real clock), so every item submitted during the tick shares
    pre-prepares of up to ``config.batch_size`` items. Entering a view
    and a sliding watermark window still propose at once.
    """

    def __init__(
        self,
        config: GroupConfig,
        index: int,
        execute: Callable[[int, ClientRequest], None],
        multicast: Callable[[Any], None],
        send_to: Callable[[int, Any], None],
        set_timer: Callable[[str, int], None],
        cancel_timer: Callable[[str], None],
        state_digest: Callable[[], bytes] | None = None,
        on_new_view: Callable[[int], None] | None = None,
        on_stable_checkpoint: Callable[[int], None] | None = None,
        propose_at_tick: bool = False,
    ) -> None:
        self.config = config
        self.index = index
        self._execute = execute
        self._multicast = multicast
        self._send_to = send_to
        self._set_timer = set_timer
        self._cancel_timer = cancel_timer
        # analysis: allow(WIRE002) — checkpoint state digest, taken once
        # per checkpoint interval (K), never per message
        self._state_digest = state_digest or (lambda: digest(self.log.last_executed))
        self._new_view_callback = on_new_view
        self._stable_checkpoint_callback = on_stable_checkpoint
        self._propose_at_tick = propose_at_tick

        self.view = 0
        self.log = MessageLog(config)
        self.next_seqno = 0
        self.in_view_change = False
        self.target_view = 0

        # Pending client requests: key -> request, insertion-ordered.
        self._pending: dict[tuple[str, int], ClientRequest] = {}
        # Every submitted-but-not-executed request, so requests ordered in
        # an abandoned view can be re-proposed after a view change.
        self._all_submitted: dict[tuple[str, int], ClientRequest] = {}
        # Keys already ordered (pre-prepared in the current view or executed).
        self._proposed: set[tuple[str, int]] = set()
        self._executed_keys: set[tuple[str, int]] = set()
        # Seqno each key executed at, so stable checkpoints can garbage-
        # collect the at-most-once bookkeeping above.
        self._executed_at: dict[tuple[str, int], int] = {}
        # View-change votes per target view.
        self._view_changes: dict[int, dict[int, ViewChange]] = {}
        self._timeout_us = config.view_change_timeout_us
        # Normal-case traffic for views above ours, newest log_window
        # messages per sender (see _note_ahead).
        self._ahead: dict[int, deque] = {}
        # The NEW-VIEW this replica issued for the view it leads, and the
        # replicas it was already re-sent to (see _on_view_change).
        self._issued_new_view: NewView | None = None
        self._new_view_resent: set[int] = set()
        # The primary stopped proposing at the high watermark; the next
        # stable checkpoint slides the window and resumes it.
        self._window_full = False

        # Observability counters.
        self.committed_batches = 0
        self.executed_requests = 0
        self.view_changes_completed = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.config.primary_of(self.view) == self.index

    def submit(self, request: ClientRequest) -> None:
        """Submit a validated item for agreement (from the local voter).

        Replicas that are not the primary rely on the submission also
        reaching the primary (every voter submits the same item) and use
        the view-change timer for liveness. An item already executed is
        ignored. A primary proposes at once, or at :meth:`propose_pending`
        under ``propose_at_tick``.
        """
        key = request_key(request)
        if key in self._executed_keys:
            return
        self._all_submitted.setdefault(key, request)
        if key in self._pending or key in self._proposed:
            return
        self._pending[key] = request
        if not self._propose_at_tick:
            self.propose_pending()
        self._ensure_timer()

    def propose_pending(self) -> None:
        """Primary: propose the pending items (the end of a tick under
        ``propose_at_tick``). Items an n == 1 primary's execution submits
        meanwhile join the same loop, so none is left for a tick that
        may never come."""
        if self._pending and self.is_primary and not self.in_view_change:
            self._try_propose()

    def _try_propose(self) -> None:
        """Primary: fold pending requests into pre-prepares while the
        watermark window allows."""
        while self._pending:
            if not self.log.in_window(self.next_seqno + 1):
                self._window_full = True
                return
            batch = []
            for key in list(self._pending):
                if len(batch) >= self.config.batch_size:
                    break
                batch.append(self._pending.pop(key))
                self._proposed.add(key)
            if not batch:
                return
            self.next_seqno += 1
            requests = tuple(batch)
            pre_prepare = PrePrepare(
                view=self.view,
                seqno=self.next_seqno,
                digest=batch_digest(requests),
                requests=requests,
            )
            self.log.set_pre_prepare(self.view, self.next_seqno, pre_prepare)
            self._multicast(pre_prepare)
            # The primary's pre-prepare stands in for its prepare; with
            # n == 1 (unreplicated) the batch is instantly committed.
            self._maybe_commit(self.view, self.next_seqno)

    # ------------------------------------------------------------------
    # Normal-case message handling
    # ------------------------------------------------------------------

    def on_message(self, src_index: int, msg: Any) -> None:
        """Dispatch an authenticated protocol message from ``src_index``.

        Only replica-to-replica messages are taken; anything else (a
        ``ClientRequest`` included) is dropped.
        """
        if isinstance(msg, PrePrepare):
            self._on_pre_prepare(src_index, msg)
        elif isinstance(msg, Prepare):
            self._on_prepare(src_index, msg)
        elif isinstance(msg, Commit):
            self._on_commit(src_index, msg)
        elif isinstance(msg, Checkpoint):
            self._on_checkpoint(src_index, msg)
        elif isinstance(msg, ViewChange):
            self._on_view_change(src_index, msg)
        elif isinstance(msg, NewView):
            self._on_new_view(src_index, msg)

    def _on_pre_prepare(self, src_index: int, msg: PrePrepare) -> None:
        if self.in_view_change or msg.view != self.view:
            self._note_ahead(src_index, msg)
            return
        if src_index != self.config.primary_of(msg.view):
            return  # only the view's primary may order
        if not self.log.in_window(msg.seqno):
            return
        if msg.digest != msg.requests_digest:
            return  # digest does not cover the carried batch
        entry = self.log.entry(msg.view, msg.seqno)
        if entry.pre_prepare is not None:
            if entry.pre_prepare.digest != msg.digest:
                # Equivocating primary: keep the first, let the view change
                # sort it out.
                self._ensure_timer()
            return
        self.log.set_pre_prepare(msg.view, msg.seqno, msg)
        for request in msg.requests:
            key = request_key(request)
            self._pending.pop(key, None)
            self._proposed.add(key)
        prepare = Prepare(
            view=msg.view, seqno=msg.seqno, digest=msg.digest, replica=self.index
        )
        entry.prepares[self.index] = prepare
        self._multicast(prepare)
        self._ensure_timer()
        self._maybe_commit(msg.view, msg.seqno)

    def _on_prepare(self, src_index: int, msg: Prepare) -> None:
        if msg.replica != src_index or msg.replica == self.index:
            return
        if self.in_view_change or msg.view != self.view:
            self._note_ahead(src_index, msg)
            return
        if not self.log.in_window(msg.seqno):
            return
        entry = self.log.entry(msg.view, msg.seqno)
        entry.prepares.setdefault(msg.replica, msg)
        self._maybe_commit(msg.view, msg.seqno)

    def _maybe_commit(self, view: int, seqno: int) -> None:
        entry = self.log.entry_if_exists(view, seqno)
        if entry is None or entry.pre_prepare is None:
            return
        if self.index in entry.commits or not entry.prepared(self.config):
            return
        commit = Commit(
            view=view, seqno=seqno, digest=entry.pre_prepare.digest,
            replica=self.index,
        )
        entry.commits[self.index] = commit
        self._multicast(commit)
        self._maybe_execute()

    def _on_commit(self, src_index: int, msg: Commit) -> None:
        if msg.replica != src_index or msg.replica == self.index:
            return
        if msg.view > self.view:
            self._note_ahead(src_index, msg)
            return
        if not self.log.in_window(msg.seqno):
            return
        entry = self.log.entry(msg.view, msg.seqno)
        entry.commits.setdefault(msg.replica, msg)
        self._maybe_execute()

    def _note_ahead(self, src_index: int, msg: Any) -> None:
        """Keep normal-case traffic for a view above ours.

        ``_enter_view`` replays it: on a non-FIFO link the new primary's
        first pre-prepare can overtake its larger NEW-VIEW, and nothing
        re-sends it. The traffic is also evidence that ``src_index``
        works in that view. f+1 such peers include a correct one, so the
        group installed a view while this replica was cut off: vote for
        the highest view f+1 of them reached (one liar can neither raise
        nor lower it) and that view's primary answers with its NEW-VIEW.
        """
        if msg.view <= self.view:
            return
        stash = self._ahead.get(src_index)
        if stash is None:
            # Per sender, so a faulty replica crowds out only itself.
            stash = self._ahead[src_index] = deque(maxlen=self.config.log_window)
        stash.append(msg)
        if len(self._ahead) < self.config.weak:
            return
        views = sorted((s[-1].view for s in self._ahead.values()), reverse=True)
        reached = views[self.config.weak - 1]
        if not (self.in_view_change and self.target_view >= reached):
            self._start_view_change(reached)

    # ------------------------------------------------------------------
    # Execution and checkpoints
    # ------------------------------------------------------------------

    def _committed_entry(self, seqno: int) -> SeqnoEntry | None:
        for view in range(self.view, -1, -1):
            entry = self.log.entry_if_exists(view, seqno)
            if entry is not None and entry.committed_local(self.config):
                return entry
        return None

    def _maybe_execute(self) -> None:
        """Execute committed batches in sequence-number order."""
        progressed = True
        while progressed:
            progressed = False
            seqno = self.log.last_executed + 1
            if seqno <= self.log.stable_seqno:
                # Covered by a stable checkpoint this replica did not
                # execute up to (adopted in a view change, or reached by
                # its peers while it was cut off).
                self.log.last_executed = self.log.stable_seqno
                self._forget_waiting()
                progressed = True
                continue
            entry = self._committed_entry(seqno)
            if entry is None or entry.executed:
                break
            entry.executed = True
            self.log.last_executed = seqno
            self.committed_batches += 1
            for request in entry.pre_prepare.requests:
                self._execute_once(seqno, request)
            if seqno % self.config.checkpoint_interval == 0:
                self._emit_checkpoint(seqno)
            progressed = True
        if not self._awaiting_execution():
            self._cancel_timer(VIEW_CHANGE_TIMER)
            self._timeout_us = self.config.view_change_timeout_us

    def _forget_waiting(self) -> None:
        """Batches were skipped, not executed: any request this backup
        waits for may have run in them, and the modelled state transfer
        carries no reply table to tell. Waiting on would keep the
        view-change timer of a rejoined replica firing forever; a request
        that is in fact still unordered comes back by retransmission and
        is covered by the peers' timers meanwhile. (A primary's pending
        set is its proposal queue, not a wait list: it stays.)"""
        if self.is_primary:
            return
        self._pending.clear()
        self._all_submitted.clear()
        self._proposed &= self._executed_keys

    def _execute_once(self, seqno: int, request: ClientRequest) -> None:
        key = request_key(request)
        if key in self._executed_keys:
            return
        self._executed_keys.add(key)
        self._executed_at[key] = seqno
        self._pending.pop(key, None)
        self._all_submitted.pop(key, None)
        self._execute(seqno, request)
        self.executed_requests += 1

    def _emit_checkpoint(self, seqno: int) -> None:
        checkpoint = Checkpoint(
            seqno=seqno, state_digest=self._state_digest(), replica=self.index
        )
        if self.log.add_checkpoint(checkpoint):
            self._stable_advanced()
            self._propose_held()
        self._multicast(checkpoint)

    def _on_checkpoint(self, src_index: int, msg: Checkpoint) -> None:
        if msg.replica != src_index:
            return  # a vote counts only for the replica that sent it
        if self.log.add_checkpoint(msg):
            self._stable_advanced()
            self._propose_held()

    def _propose_held(self) -> None:
        """The window slid: a primary the high watermark held back
        proposes what waited, rather than idling until the view-change
        timer replaces it."""
        if self._window_full and self.is_primary and not self.in_view_change:
            self._window_full = False
            self._try_propose()

    def _stable_advanced(self) -> None:
        """The stable checkpoint moved: garbage-collect at-most-once
        bookkeeping for requests it covers, then notify the embedder so
        its per-request caches (e.g. the voter reply store) follow."""
        stable = self.log.stable_seqno
        if self._executed_at:
            dead = [
                key for key, seqno in self._executed_at.items()
                if seqno <= stable
            ]
            for key in dead:
                del self._executed_at[key]
                self._executed_keys.discard(key)
                self._proposed.discard(key)
                self._all_submitted.pop(key, None)
            METRICS.cache_evictions += len(dead)
        if self._stable_checkpoint_callback is not None:
            self._stable_checkpoint_callback(stable)

    # ------------------------------------------------------------------
    # Liveness: view changes
    # ------------------------------------------------------------------

    def _awaiting_execution(self) -> bool:
        # Entries at or below last_executed were decided in another view
        # (e.g. re-issued after an equivocating or mute primary); the
        # abandoned view's copy will never execute and must not keep the
        # view-change timer armed forever.
        return bool(self._pending) or self.log.awaits_execution()

    def _ensure_timer(self) -> None:
        if self._awaiting_execution():
            self._set_timer(VIEW_CHANGE_TIMER, self._timeout_us)

    def on_timer(self, tag: str) -> None:
        if tag == VIEW_CHANGE_TIMER:
            self._start_view_change(self.target_view + 1 if self.in_view_change
                                    else self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        """Vote to abandon the current primary."""
        if new_view <= self.view:
            return
        self.in_view_change = True
        self.target_view = new_view
        # Exponential backoff: if this view change fails too, wait longer.
        self._timeout_us = min(self._timeout_us * 2, 8 * self.config.view_change_timeout_us)
        self._set_timer(VIEW_CHANGE_TIMER, self._timeout_us)
        proofs = []
        for entry in self.log.prepared_proofs_above(self.log.stable_seqno):
            proofs.append(
                PreparedProof(
                    pre_prepare=entry.pre_prepare,
                    prepares=tuple(
                        p for p in entry.prepares.values()
                        if p.digest == entry.pre_prepare.digest
                    ),
                )
            )
        vote = ViewChange(
            new_view=new_view,
            stable_seqno=self.log.stable_seqno,
            checkpoint_proof=self.log.stable_proof,
            prepared=tuple(proofs),
            replica=self.index,
        )
        self._record_view_change(vote)
        self._multicast(vote)
        self._maybe_install_view(new_view)

    def _record_view_change(self, msg: ViewChange) -> None:
        self._view_changes.setdefault(msg.new_view, {})[msg.replica] = msg

    def _on_view_change(self, src_index: int, msg: ViewChange) -> None:
        if msg.replica != src_index or msg.new_view < self.view:
            return
        if msg.new_view == self.view:
            # A vote for the view we already lead: the voter missed our
            # NEW-VIEW (cut off, then saw f+1 peers working here). Send
            # it again, once; it validates it like the original.
            new_view = self._issued_new_view
            if (
                new_view is not None
                and new_view.view == self.view
                and src_index not in self._new_view_resent
            ):
                self._new_view_resent.add(src_index)
                self._send_to(src_index, new_view)
            return
        if not self._verify_view_change(msg):
            return
        self._record_view_change(msg)
        # Join rule: f+1 distinct replicas voting for views above ours is
        # proof that at least one correct replica timed out; join the
        # smallest such view to avoid being left behind.
        ahead = {
            v: votes for v, votes in self._view_changes.items() if v > self.view
        }
        distinct = {r for votes in ahead.values() for r in votes}
        if len(distinct) >= self.config.weak and not (
            self.in_view_change and self.target_view >= min(ahead)
        ):
            self._start_view_change(min(ahead))
        self._maybe_install_view(msg.new_view)

    def _verify_view_change(self, msg: ViewChange) -> bool:
        """Structural validation of a view-change vote's proofs."""
        if msg.stable_seqno > 0:
            matching = [
                c for c in msg.checkpoint_proof
                if isinstance(c, Checkpoint) and c.seqno == msg.stable_seqno
            ]
            voters = {c.replica for c in matching}
            digests = {c.state_digest for c in matching}
            if len(voters) < self.config.quorum or len(digests) != 1:
                return False
        for proof in msg.prepared:
            if not isinstance(proof, PreparedProof) or proof.pre_prepare is None:
                return False
            matching_prepares = {
                p.replica for p in proof.prepares
                if p.digest == proof.pre_prepare.digest
                and p.seqno == proof.pre_prepare.seqno
            }
            if len(matching_prepares) < 2 * self.config.f:
                return False
        return True

    def _maybe_install_view(self, new_view: int) -> None:
        """If we are the new primary and hold 2f+1 votes, issue NEW-VIEW."""
        if self.config.primary_of(new_view) != self.index:
            return
        if new_view <= self.view:
            return
        votes = self._view_changes.get(new_view, {})
        if len(votes) < self.config.quorum:
            return
        selected = tuple(votes.values())
        pre_prepares = self._new_view_pre_prepares(new_view, selected)
        new_view_msg = NewView(
            view=new_view, view_changes=selected, pre_prepares=pre_prepares
        )
        self._issued_new_view = new_view_msg
        self._new_view_resent = set()
        self._multicast(new_view_msg)
        self._enter_view(new_view, pre_prepares, selected)

    def _new_view_pre_prepares(
        self, new_view: int, votes: tuple[ViewChange, ...]
    ) -> tuple:
        """Compute the O set: re-issued pre-prepares for in-flight seqnos."""
        min_s = max(v.stable_seqno for v in votes)
        best: dict[int, PreparedProof] = {}
        for vote in votes:
            for proof in vote.prepared:
                seqno = proof.pre_prepare.seqno
                if seqno <= min_s:
                    continue
                current = best.get(seqno)
                if current is None or proof.pre_prepare.view > current.pre_prepare.view:
                    best[seqno] = proof
        max_s = max(best) if best else min_s
        out = []
        for seqno in range(min_s + 1, max_s + 1):
            proof = best.get(seqno)
            if proof is not None:
                out.append(
                    PrePrepare(
                        view=new_view,
                        seqno=seqno,
                        digest=proof.pre_prepare.digest,
                        requests=proof.pre_prepare.requests,
                    )
                )
            else:
                out.append(
                    PrePrepare(
                        view=new_view, seqno=seqno, digest=NULL_DIGEST, requests=()
                    )
                )
        return tuple(out)

    def _on_new_view(self, src_index: int, msg: NewView) -> None:
        if msg.view <= self.view:
            return
        if src_index != self.config.primary_of(msg.view):
            return
        if len({v.replica for v in msg.view_changes}) < self.config.quorum:
            return
        if not all(self._verify_view_change(v) for v in msg.view_changes):
            return
        expected = self._new_view_pre_prepares(msg.view, msg.view_changes)
        if tuple(p.digest for p in expected) != tuple(
            p.digest for p in msg.pre_prepares
        ):
            return  # new primary mis-computed O; wait for the next view
        self._enter_view(msg.view, msg.pre_prepares, msg.view_changes)
        # Back the new primary as a backup: prepare every re-issued slot.
        for pre_prepare in msg.pre_prepares:
            entry = self.log.entry(msg.view, pre_prepare.seqno)
            prepare = Prepare(
                view=msg.view,
                seqno=pre_prepare.seqno,
                digest=pre_prepare.digest,
                replica=self.index,
            )
            entry.prepares[self.index] = prepare
            self._multicast(prepare)
            self._maybe_commit(msg.view, pre_prepare.seqno)

    def _enter_view(
        self, new_view: int, pre_prepares: tuple, votes: tuple[ViewChange, ...]
    ) -> None:
        self.view = new_view
        self.in_view_change = False
        self.target_view = new_view
        self.view_changes_completed += 1
        METRICS.view_changes += 1
        min_s = max(v.stable_seqno for v in votes)
        if min_s > self.log.stable_seqno:
            # Adopt the proven stable checkpoint (state transfer is modelled
            # as instantaneous; see DESIGN.md section 2).
            self.log.stable_seqno = min_s
            self.log._garbage_collect()
            self._stable_advanced()
        max_seen = min_s
        for pre_prepare in pre_prepares:
            self.log.set_pre_prepare(new_view, pre_prepare.seqno, pre_prepare)
            for request in pre_prepare.requests:
                key = request_key(request)
                self._pending.pop(key, None)
                self._proposed.add(key)
            max_seen = max(max_seen, pre_prepare.seqno)
        self.next_seqno = max_seen
        self._view_changes = {
            v: votes_ for v, votes_ in self._view_changes.items() if v > new_view
        }
        # Requests ordered in an abandoned view but never committed must be
        # re-proposable in the new one.
        ordered_now = {
            request_key(r)
            for (v, _s), e in self.log._entries.items()
            if e.pre_prepare is not None and v == new_view
            for r in e.pre_prepare.requests
        }
        for key in list(self._proposed):
            if key not in ordered_now and key not in self._executed_keys:
                self._proposed.discard(key)
                if key in self._all_submitted:
                    self._pending[key] = self._all_submitted[key]
        self.propose_pending()
        self._maybe_execute()
        self._ensure_timer()
        stashed, self._ahead = self._ahead, {}
        for src_index in sorted(stashed):
            for msg in stashed[src_index]:
                self.on_message(src_index, msg)
        if self._new_view_callback is not None:
            self._new_view_callback(new_view)
