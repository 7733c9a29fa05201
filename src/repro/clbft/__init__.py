"""CLBFT: the Castro-Liskov Practical Byzantine Fault Tolerance algorithm.

This is a from-scratch implementation of the agreement substrate the paper
builds on (section 2.1): pre-prepare / prepare / commit three-phase
agreement under MAC authenticators, periodic checkpoints with garbage
collection, and view changes for liveness under a faulty primary.

The module is sans-IO: :class:`repro.clbft.replica.ClbftReplica` consumes
protocol messages and emits them through injected callables, so the same
code runs on the discrete-event simulator and the threaded runtime. In
Perpetual, each service's *voter group* embeds one CLBFT instance and uses
it to agree both on external requests sent to the service and on replies
to requests the service issued (Figure 1, stages 2 and 8). The voter is
the only embedder: items enter agreement through its validated
``submit``, never from a peer.

Contract: replicas are sans-IO deterministic state machines — identical
inputs produce identical outputs and sends on every substrate (rules
DET001-DET005). All messaging crosses the channel layer; the codec in
:mod:`repro.clbft.messages` is injected into the ChannelAdapter rather
than called directly (encode-once, rule WIRE001). Layer map:
``docs/architecture.md``.
"""

from repro.clbft.config import GroupConfig
from repro.clbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.clbft.replica import ClbftReplica

__all__ = [
    "Checkpoint",
    "ClbftReplica",
    "ClientRequest",
    "Commit",
    "GroupConfig",
    "NewView",
    "PrePrepare",
    "Prepare",
    "ViewChange",
]
