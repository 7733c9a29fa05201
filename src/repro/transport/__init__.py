"""Transport: the ChannelAdapter and Connection abstraction.

The Perpetual prototype (paper section 2.1.2) abstracts "transport,
authentication, and encryption details" behind a ChannelAdapter whose
transport-specific parts live in pluggable Connection modules (the Java
prototype ships an SSL/TCP Connection). This package reproduces that
layering:

- :class:`repro.transport.channel.ChannelAdapter` — signs outgoing
  messages with MAC authenticators, verifies incoming ones, charges the
  crypto cost model, and hands verified protocol messages up;
- :class:`repro.transport.connection.Connection` — the wire; its one
  implementation hands envelopes to the node environment of whichever
  substrate hosts the node;
- :mod:`repro.transport.wire` — framing of protocol messages into
  authenticated wire envelopes, and the envelopes' two wire forms: the
  plain-data one the canonical codec can encode and the binary one a
  transport hop carries.

Contract: this is the only layer that constructs envelopes (rule
WIRE003) — encode once into a shared blob, digest once per message,
sign once per multicast, and, with batching enabled, one MAC vector per
(sender, receiver) batch via :class:`repro.transport.wire.BatchEnvelope`
and ``ChannelAdapter.flush``/``open_batch``. Full description:
``docs/architecture.md`` ("The channel layer and batching").
"""

from repro.transport.channel import ChannelAdapter
from repro.transport.connection import Connection, SimConnection
from repro.transport.wire import WireEnvelope

__all__ = [
    "ChannelAdapter",
    "Connection",
    "SimConnection",
    "WireEnvelope",
]
