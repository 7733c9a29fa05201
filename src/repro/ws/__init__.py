"""Perpetual-WS: the middleware's public programming surface.

This package is what a downstream web-service developer imports:

- :mod:`repro.ws.api`        -- ``MessageContext``, the ``MessageHandler``
  operations (paper Figure 3: send / receiveReply / sendReceive /
  receiveRequest / sendReply) and the deterministic ``Utils``;
- :mod:`repro.ws.adapter`    -- bridges WS-level applications onto the
  Perpetual executor model (WS-Addressing correlation, SOAP marshaling
  through the engine pipes);
- :mod:`repro.ws.descriptor` -- parses an actual ``replicas.xml`` document;
- :mod:`repro.ws.registry`   -- a static UDDI stand-in for endpoint
  resolution (the paper's future-work discovery direction).

Contract: handlers are deterministic (``Utils`` supplies agreed time
and randomness) and all messaging rides the channel layer — the
encode-once/digest-once path of ``docs/architecture.md``. Deployment
is not here: build a :class:`repro.scenario.ScenarioSpec` (one spec, any
substrate), or use the imperative simulator facade
:class:`repro.scenario.sim.Deployment`, re-exported below.
"""

from repro.ws.api import MessageContext, MessageHandler, Options, Utils
from repro.ws.registry import ServiceRegistry


def __getattr__(name: str):
    # Deployment lives in repro.scenario.sim (which imports repro.ws
    # submodules); resolving it lazily keeps this package importable
    # from inside that module without a cycle.
    if name in ("Deployment", "ServiceDeployment"):
        from repro.scenario import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Deployment",
    "MessageContext",
    "MessageHandler",
    "Options",
    "ServiceDeployment",
    "ServiceRegistry",
    "Utils",
]
