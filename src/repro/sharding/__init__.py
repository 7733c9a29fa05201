"""Client routing tier for sharded (multi-group) scenarios.

A sharded :class:`~repro.scenario.spec.ScenarioSpec` declares N
independent BFT groups (``spec.groups``), each with its own services and
faults, behind a single routing policy (``spec.routing``). This package
is the *only* place allowed to decide which group owns a principal:

- :class:`HashRing` — deterministic consistent-hash ring over the group
  names (SHA-256 points, ``vnodes`` virtual points per group);
- :class:`Router` — resolves every service to its home group:
  group-declared services are pinned (``service_name``), top-level
  client services are ring-assigned by their service name
  (``consistent_hash``); ``forward()`` labels a call cross-group;
- :func:`build_router` — the router a spec describes (None for classic
  single-group specs), which every substrate injects into every driver
  of every group on its one node table or worker set.

**Contract (rule SHARD001):** protocol and application code must not
construct routers or rings, and must not ask which group owns a
principal — only this package, the scenario substrates, and the
analysis tooling may. Drivers receive an injected router handle and
only ever call ``forward()`` on it; cross-group calls travel the
existing nested-invocation path, counted by the
``requests_routed``/``cross_group_calls`` METRICS counters.

Everything here is deterministic (hashlib only — the package is inside
the DET001–005 analysis scope) and rebuilt from spec JSON, so worker
processes reconstruct the exact same routing table from their spawn
payload. See the sharding sections of ``docs/architecture.md`` and
``docs/scenarios.md``.
"""

from repro.sharding.router import HashRing, RouteDecision, Router, build_router

__all__ = ["HashRing", "RouteDecision", "Router", "build_router"]
