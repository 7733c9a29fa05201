"""``perpetual://`` endpoint references, resolved statically.

The paper notes UDDI cannot serve replicated endpoint references and that
Perpetual-WS therefore uses static ``replicas.xml`` mappings (section
5.2); here that mapping is the :class:`~repro.scenario.spec.ScenarioSpec`,
which every replica holds whole. An endpoint reference only has to name
its service: ``perpetual://service`` (optionally ``/replica``) and the
bare ``service`` both resolve to ``service``.
"""

from __future__ import annotations

SCHEME = "perpetual://"


def service_name(endpoint: str) -> str:
    """The service an endpoint reference names."""
    if endpoint.startswith(SCHEME):
        endpoint = endpoint[len(SCHEME):]
    return endpoint.split("/", 1)[0]
