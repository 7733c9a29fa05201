"""Perpetual: Byzantine fault-tolerant replicated-to-replicated interaction.

Implements the algorithm of paper section 2.1 (Figure 1): each service
replica is a co-located (voter, driver) pair; voter groups run CLBFT to
agree on external requests and on replies to the service's own out-calls;
drivers host the application *executor* — a deterministic, long-running,
single thread of computation that issues requests, consumes replies, and
serves incoming requests, synchronously or asynchronously.

Package layout:

- :mod:`repro.perpetual.executor`  -- the effect-based executor model
  (``Send`` / ``ReceiveReply`` / ``ReceiveRequest`` / ``SendReply`` /
  ``Compute`` / ``CurrentTime`` / ``Timestamp`` / ``Random``);
- :mod:`repro.perpetual.messages`  -- Perpetual wire messages (stage-1
  requests, stage-5 reply forwards, stage-6 reply bundles, stage-7 result
  submissions) and agreement-item construction;
- :mod:`repro.perpetual.voter`     -- the voter node (embeds CLBFT);
- :mod:`repro.perpetual.driver`    -- the driver node (hosts the executor);
- :mod:`repro.perpetual.group`     -- topology and deployment of service
  groups on the simulation kernel.

Contract: voters and drivers are deterministic protocol nodes speaking
only through their ChannelAdapter (encode-once / digest-once, see
``docs/architecture.md``); with batching enabled they expose the
``wants_flush``/``on_flush`` hooks the substrates call at the end of a
tick (a handler on the simulator, a mailbox drain on a real clock); under
``"tick"`` a voter's primary proposes there too, before the flush.
"""

from repro.perpetual.executor import (
    Compute,
    CurrentTime,
    ExecutorRuntime,
    Random,
    ReceiveAny,
    ReceiveReply,
    ReceiveRequest,
    ReplyEvent,
    RequestEvent,
    Send,
    SendReply,
    Timestamp,
)
from repro.perpetual.group import ServiceGroup, Topology

__all__ = [
    "Compute",
    "CurrentTime",
    "ExecutorRuntime",
    "Random",
    "ReceiveAny",
    "ReceiveReply",
    "ReceiveRequest",
    "ReplyEvent",
    "RequestEvent",
    "Send",
    "SendReply",
    "ServiceGroup",
    "Timestamp",
    "Topology",
]
