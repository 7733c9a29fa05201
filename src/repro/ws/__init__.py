"""Perpetual-WS: the middleware's public programming surface.

This package is what a downstream web-service developer imports:

- :mod:`repro.ws.api`        -- ``MessageContext``, the ``MessageHandler``
  operations (paper Figure 3: send / receiveReply / sendReceive /
  receiveRequest / sendReply) and the deterministic ``Utils``;
- :mod:`repro.ws.adapter`    -- bridges WS-level applications onto the
  Perpetual executor model (WS-Addressing correlation, SOAP marshaling
  through the engine pipes);
- :mod:`repro.ws.registry`   -- ``perpetual://`` endpoint references
  resolved to service names.

Contract: handlers are deterministic (``Utils`` supplies agreed time
and randomness) and all messaging rides the channel layer — the
encode-once/digest-once path of ``docs/architecture.md``. Deployment
is not here: the paper's static ``replicas.xml`` (section 5.2) is this
repo's :class:`repro.scenario.ScenarioSpec` — every service with its
replication degree, in one description any substrate deploys.
"""

from repro.ws.api import MessageContext, MessageHandler, Options, Utils

__all__ = [
    "MessageContext",
    "MessageHandler",
    "Options",
    "Utils",
]
