"""CLBFT group configuration and view arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.quorum import agreement_quorum, fault_bound, weak_certificate


@dataclass(frozen=True)
class GroupConfig:
    """Static parameters of one CLBFT replica group.

    ``checkpoint_interval`` is the paper's K (checkpoints every K
    sequence numbers); ``log_window`` the watermark width L (in multiples
    of K, following Castro & Liskov's suggestion of a small multiple);
    ``batch_size`` the maximum requests the primary folds into one
    pre-prepare, reproducing the pipelining of the Perpetual prototype.
    A batch holds the requests pending when the primary proposes: under
    tick batching that is once per tick (every item of one mailbox
    drain), otherwise at every submit, where a batch fills only with
    what queued while the window was full or a view change was on.
    """

    n: int
    checkpoint_interval: int = 16
    log_window: int = 64
    batch_size: int = 8
    view_change_timeout_us: int = 500_000

    @property
    def f(self) -> int:
        return fault_bound(self.n)

    @property
    def quorum(self) -> int:
        """Prepared/committed certificate size: 2f + 1."""
        return agreement_quorum(self.n)

    @property
    def weak(self) -> int:
        """Weak certificate size: f + 1."""
        return weak_certificate(self.n)

    def primary_of(self, view: int) -> int:
        """Replica index acting as primary in ``view``."""
        return view % self.n
