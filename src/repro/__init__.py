"""Perpetual-WS reproduction.

A from-scratch Python implementation of the system described in
"Byzantine Fault-Tolerant Web Services for n-Tier and Service Oriented
Architectures" (Pallemulle & Goldman, WUCSE-2007-53 / ICDCS 2008):

- ``repro.clbft``      -- Castro-Liskov Practical Byzantine Fault Tolerance.
- ``repro.perpetual``  -- the Perpetual replicated-to-replicated algorithm.
- ``repro.soap``       -- a minimal SOAP / WS-Addressing engine (Axis2 stand-in).
- ``repro.ws``         -- the Perpetual-WS middleware and public API.
- ``repro.sim``        -- deterministic discrete-event simulation substrate.
- ``repro.scenario``   -- declarative deployment: one ScenarioSpec, four
  runtimes (sim / threaded / asyncio / process).
- ``repro.tpcw``       -- the TPC-W macro-benchmark (bookstore, RBEs, PGE, bank).

The top-level package re-exports the public API a downstream user needs to
deploy a replicated web service: the ``MessageHandler`` programming model
for writing one, and ``ScenarioBuilder`` / ``run_scenario`` for deploying
it on any of the four substrates.

Start with ``docs/architecture.md`` for the layer map (sim kernel ->
transport -> ws/channel -> clbft/perpetual -> scenario runtimes) and
the cross-layer contracts every package below states and the analysis
rules enforce.
"""

from repro.common.config import ReplicationConfig, ServiceSpec
from repro.common.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    RequestAborted,
)
from repro.perpetual.executor import (
    Compute,
    CurrentTime,
    Random,
    ReceiveReply,
    ReceiveRequest,
    Send,
    SendReply,
    Timestamp,
)
from repro.scenario import (
    ScenarioBuilder,
    ScenarioSpec,
    get_runtime,
    run_scenario,
)
from repro.ws.api import MessageContext, MessageHandler, Utils

__all__ = [
    "AuthenticationError",
    "Compute",
    "ConfigurationError",
    "CurrentTime",
    "MessageContext",
    "MessageHandler",
    "ProtocolError",
    "Random",
    "ReceiveReply",
    "ReceiveRequest",
    "ReplicationConfig",
    "ReproError",
    "RequestAborted",
    "ScenarioBuilder",
    "ScenarioSpec",
    "Send",
    "SendReply",
    "ServiceSpec",
    "Timestamp",
    "Utils",
    "get_runtime",
    "run_scenario",
]

__version__ = "1.0.0"
