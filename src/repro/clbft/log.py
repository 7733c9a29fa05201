"""The CLBFT message log: certificates, checkpoints, and watermarks.

One :class:`SeqnoEntry` per in-flight sequence number accumulates the
pre-prepare and the prepare/commit votes until the prepared and committed
predicates hold. The :class:`MessageLog` tracks the stable checkpoint and
enforces the watermark window, discarding entries at garbage collection
exactly as Castro & Liskov describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clbft.config import GroupConfig
from repro.clbft.messages import Checkpoint, Commit, PrePrepare, Prepare


@dataclass
class SeqnoEntry:
    """Agreement state for one (view, seqno) slot."""

    pre_prepare: PrePrepare | None = None
    prepares: dict[int, Prepare] = field(default_factory=dict)
    commits: dict[int, Commit] = field(default_factory=dict)
    executed: bool = False

    def matching_prepares(self, digest: bytes) -> int:
        return sum(1 for p in self.prepares.values() if p.digest == digest)

    def matching_commits(self, digest: bytes) -> int:
        return sum(1 for c in self.commits.values() if c.digest == digest)

    def prepared(self, config: GroupConfig) -> bool:
        """Pre-prepare plus 2f matching prepares from distinct backups."""
        if self.pre_prepare is None:
            return False
        return self.matching_prepares(self.pre_prepare.digest) >= 2 * config.f

    def committed_local(self, config: GroupConfig) -> bool:
        """Prepared plus 2f+1 matching commits (including our own)."""
        if not self.prepared(config):
            return False
        return self.matching_commits(self.pre_prepare.digest) >= config.quorum


class MessageLog:
    """Per-replica log with watermarks and checkpoint garbage collection."""

    def __init__(self, config: GroupConfig) -> None:
        self._config = config
        self._entries: dict[tuple[int, int], SeqnoEntry] = {}
        self.stable_seqno = 0
        self.stable_proof: tuple = ()
        self._checkpoints: dict[int, dict[int, Checkpoint]] = {}
        self.last_executed = 0
        #: The highest seqno a pre-prepare was ever logged at (0: none).
        self._top_pre_prepared = 0

    # -- watermarks ---------------------------------------------------------

    @property
    def low_watermark(self) -> int:
        return self.stable_seqno

    @property
    def high_watermark(self) -> int:
        return self.stable_seqno + self._config.log_window

    def in_window(self, seqno: int) -> bool:
        return self.low_watermark < seqno <= self.high_watermark

    # -- entries -------------------------------------------------------------

    def entry(self, view: int, seqno: int) -> SeqnoEntry:
        key = (view, seqno)
        if key not in self._entries:
            self._entries[key] = SeqnoEntry()
        return self._entries[key]

    def entry_if_exists(self, view: int, seqno: int) -> SeqnoEntry | None:
        return self._entries.get((view, seqno))

    def set_pre_prepare(self, view: int, seqno: int, msg: PrePrepare) -> None:
        """Log ``msg`` as the pre-prepare of slot ``(view, seqno)``."""
        self.entry(view, seqno).pre_prepare = msg
        if seqno > self._top_pre_prepared:
            self._top_pre_prepared = seqno

    def awaits_execution(self) -> bool:
        """Some live entry above ``last_executed`` holds a pre-prepare.

        O(1): entries leave the log only at garbage collection, which
        drops every seqno at or below the stable checkpoint, and none
        above ``last_executed`` has executed — so such an entry exists
        exactly when the highest pre-prepared seqno is above both.
        """
        top = self._top_pre_prepared
        return top > self.last_executed and top > self.stable_seqno

    def executed(self, seqno: int) -> bool:
        return seqno <= self.last_executed or any(
            e.executed for (v, s), e in self._entries.items() if s == seqno
        )

    def prepared_proofs_above(self, seqno: int) -> list[SeqnoEntry]:
        """Entries with a prepared certificate for seqnos above ``seqno``.

        Used to build view-change messages; when several views hold
        entries for one seqno, the highest-view prepared one wins.
        """
        best: dict[int, tuple[int, SeqnoEntry]] = {}
        for (view, s), entry in self._entries.items():
            if s <= seqno or not entry.prepared(self._config):
                continue
            current = best.get(s)
            if current is None or view > current[0]:
                best[s] = (view, entry)
        return [entry for _, (_, entry) in sorted(best.items())]

    # -- checkpoints ---------------------------------------------------------

    def add_checkpoint(self, msg: Checkpoint) -> bool:
        """Record a checkpoint vote; returns True if it became stable."""
        if msg.seqno <= self.stable_seqno:
            return False
        votes = self._checkpoints.setdefault(msg.seqno, {})
        votes[msg.replica] = msg
        matching = [
            v for v in votes.values() if v.state_digest == msg.state_digest
        ]
        if len(matching) >= self._config.quorum:
            self._make_stable(msg.seqno, tuple(matching))
            return True
        return False

    def _make_stable(self, seqno: int, proof: tuple) -> None:
        self.stable_seqno = seqno
        self.stable_proof = proof
        self._garbage_collect()

    def _garbage_collect(self) -> None:
        """Discard entries and checkpoint votes at or below the stable point."""
        self._entries = {
            key: entry
            for key, entry in self._entries.items()
            if key[1] > self.stable_seqno
        }
        self._checkpoints = {
            seqno: votes
            for seqno, votes in self._checkpoints.items()
            if seqno > self.stable_seqno
        }

    @property
    def live_entry_count(self) -> int:
        return len(self._entries)
