"""Declarative scenario descriptions: one spec, any substrate.

A :class:`ScenarioSpec` is the deployment-wide description the paper keeps
in ``replicas.xml`` (section 5.2), extended with everything our
experiments used to hand-wire: services with replication degrees and
application factories (referenced *by name* through the registry in
:mod:`repro.scenario.apps`, so a spec stays JSON-serialisable), the
network model, the crypto cost model, fault injections, and a run budget.

Every runtime substrate — the deterministic simulator, the threaded
cluster, and the multi-process cluster — executes the same spec through
the :class:`repro.scenario.runtime.Runtime` protocol; nothing in a spec
names a substrate.

Specs round-trip through JSON (``to_json`` / ``from_json``), which is what
``python -m repro.experiments run --scenario file.json`` consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from repro.common.errors import ConfigurationError

FAULT_KINDS = ("crash", "link", "byzantine", "delay", "partition", "restart")
NETWORK_KINDS = ("lan", "uniform")

#: Byzantine behaviours accepted by ``FaultSpec(kind="byzantine")``.
BYZANTINE_MODES = ("equivocate", "corrupt", "mute")

_LINK_PARAM_KEYS = frozenset({"src", "dst", "drop", "extra_delay_us"})


def _service_to_dict(s: "ServiceDecl") -> dict:
    return {
        "name": s.name,
        "n": s.n,
        "app": {"kind": s.app.kind, "params": s.app.params},
        "crypto": s.crypto,
        "hosts": list(s.hosts) if s.hosts is not None else None,
        "clbft": s.clbft,
    }


def _service_from_dict(s: dict) -> "ServiceDecl":
    return ServiceDecl(
        name=s["name"],
        n=s["n"],
        app=AppSpec(
            kind=s["app"]["kind"],
            params=dict(s["app"].get("params") or {}),
        ),
        crypto=s.get("crypto"),
        hosts=tuple(s["hosts"]) if s.get("hosts") is not None else None,
        clbft=s.get("clbft"),
    )


def _fault_to_dict(f: "FaultSpec") -> dict:
    return {
        "kind": f.kind,
        "service": f.service,
        "index": f.index,
        "params": f.params,
    }


def _fault_from_dict(f: dict) -> "FaultSpec":
    return FaultSpec(
        kind=f["kind"],
        service=f.get("service", ""),
        index=f.get("index", 0),
        params=dict(f.get("params") or {}),
    )


def _is_principal_of(name: str, services: tuple) -> bool:
    """True iff ``name`` is ``service/vN`` or ``service/dN`` with a
    declared service and in-range replica index."""
    service, sep, tail = name.rpartition("/")
    if (not sep or len(tail) < 2 or tail[0] not in ("v", "d")
            or not tail[1:].isdigit()):
        return False
    for decl in services:
        if decl.name == service:
            return int(tail[1:]) < decl.n
    return False


@dataclass(frozen=True)
class AppSpec:
    """An application factory reference: registry name plus parameters.

    ``params`` must stay JSON-safe; the registry builder receives it
    verbatim (in a worker process it is all the builder gets).
    """

    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceDecl:
    """One replicated service in a scenario."""

    name: str
    n: int
    app: AppSpec
    #: Per-service crypto cost model override (None = scenario-wide model).
    crypto: str | None = None
    #: Simulated host placement override (one entry per replica); the
    #: TPC-W setup runs every RBE on one host. Substrates without host
    #: modelling ignore it.
    hosts: tuple[str, ...] | None = None
    #: CLBFT configuration overrides passed to every replica's voter.
    clbft: dict | None = None


@dataclass(frozen=True)
class NetworkSpec:
    """The network model: ``lan`` (paper testbed) or ``uniform``.

    ``params`` feed the model constructor (``propagation_us``,
    ``ns_per_byte``, ``jitter_us`` for lan; ``latency_us`` for uniform).
    Real-parallelism substrates ignore latency parameters — their network
    is the actual machine.
    """

    kind: str = "lan"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FaultSpec:
    """One fault injection.

    Enforced on every substrate (sim, threaded, process — workers on the
    process substrate receive the fault script in their spawn payload):

    - ``crash``: replica ``index`` of ``service`` never speaks (its
      voter/driver pair is cut off — or, on the process substrate, never
      spawned);
    - ``byzantine``: replica ``index`` of ``service`` runs the scripted
      Byzantine behaviour in ``params["mode"]`` — ``"equivocate"``
      (conflicting pre-prepares to disjoint replica halves while
      primary), ``"corrupt"`` (garbled execution replies), or ``"mute"``
      (a slow-drip primary that stalls ordering until the CLBFT
      view-change timer fires); requires a group with f >= 1 (n >= 4);
    - ``delay``: replica ``index`` of ``service`` defers every outbound
      message by ``params["delay_us"]`` (+ optional deterministic
      ``jitter_us``);
    - ``partition``: splits ``service`` into ``params["side"]`` (replica
      indices) vs the rest from ``start_after_us`` (default 0) until the
      ``heal_after_us`` deadline;
    - ``restart``: replica ``index`` of ``service`` crashes at
      ``params["down_after_us"]`` (default 0) and rejoins at
      ``params["up_after_us"]``, catching up with the group's view and
      its stable checkpoints (no application state transfer).

    **Simulator only** (the other substrates' network is the actual
    machine, so per-link shaping cannot be enforced; ThreadedRuntime and
    ProcessRuntime reject it with a ConfigurationError):

    - ``link``: per-link drop/delay rules, ``params`` holding ``src``,
      ``dst`` (principal names like ``"svc/v0"``/``"svc/d0"`` or ``"*"``
      wildcards), ``drop`` probability in [0, 1] and/or a non-negative
      ``extra_delay_us``.
    """

    kind: str
    service: str = ""
    index: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, substrate-agnostic scenario description."""

    name: str
    services: tuple[ServiceDecl, ...] = ()
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Scenario-wide crypto cost model name (see repro.scenario.apps).
    crypto: str = "mac"
    #: Explicit cost-model parameters (``sign_us``, ``verify_us``,
    #: ``per_receiver_us``). When set, the model is constructed from the
    #: spec itself rather than looked up in the process-local registry —
    #: required for custom models to reach spawned worker processes.
    crypto_params: dict | None = None
    faults: tuple[FaultSpec, ...] = ()
    #: Run budget: simulated seconds on the simulator, a wall-clock cap
    #: on real-parallelism substrates (both stop earlier at quiescence).
    duration_s: float = 60.0
    seed: int = 11
    #: Optional simulator event budget (None = unbounded).
    max_events: int | None = None
    #: Channel-layer batching: ``"off"`` (one envelope per message),
    #: ``"tick"`` (aggregate per destination within one tick: a handler
    #: invocation on the simulator, a mailbox drain on the real-clock
    #: substrates), or a positive integer flush window in µs
    #: (buffered messages flush when the window timer fires). See
    #: ``docs/scenarios.md``.
    batching: str | int = "off"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def all_services(self) -> tuple[ServiceDecl, ...]:
        """Every service, in declaration order (``bench/`` reads it)."""
        return self.services

    def all_faults(self) -> tuple[FaultSpec, ...]:
        """Every fault, in declaration order (``bench/`` reads it)."""
        return self.faults

    def service(self, name: str) -> ServiceDecl:
        for decl in self.services:
            if decl.name == name:
                return decl
        raise ConfigurationError(f"scenario {self.name!r} has no service {name!r}")

    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; returns self for chaining."""
        seen: set[str] = set()
        for decl in self.services:
            if (not decl.name or "/" in decl.name or "\x00" in decl.name):
                # "/" delimits principal names (svc/vN), NUL delimits the
                # process runtime's wire-frame routing header.
                raise ConfigurationError(
                    f"invalid service name {decl.name!r}"
                )
            if decl.name in seen:
                raise ConfigurationError(f"duplicate service {decl.name!r}")
            seen.add(decl.name)
            if decl.n < 1:
                raise ConfigurationError(
                    f"service {decl.name!r} has replication degree {decl.n}"
                )
            if decl.hosts is not None and len(decl.hosts) != decl.n:
                raise ConfigurationError(
                    f"service {decl.name!r}: {len(decl.hosts)} hosts for "
                    f"{decl.n} replicas"
                )
        if self.batching not in ("off", "tick") and not (
            isinstance(self.batching, int)
            and not isinstance(self.batching, bool)
            and self.batching > 0
        ):
            raise ConfigurationError(
                f"batching must be 'off', 'tick', or a positive flush "
                f"window in microseconds (got {self.batching!r})"
            )
        if self.network.kind not in NETWORK_KINDS:
            raise ConfigurationError(
                f"unknown network kind {self.network.kind!r} "
                f"(known: {', '.join(NETWORK_KINDS)})"
            )
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {fault.kind!r} "
                    f"(known: {', '.join(FAULT_KINDS)})"
                )
            if fault.kind == "link":
                self._validate_link_fault(fault)
                continue
            # Every remaining kind names a (service, index) replica;
            # partition uses the service but addresses replicas via
            # params["side"].
            decl = self.service(fault.service)
            if fault.kind != "partition" and not 0 <= fault.index < decl.n:
                raise ConfigurationError(
                    f"{fault.kind} fault index {fault.index} out of range "
                    f"for service {fault.service!r} (n={decl.n})"
                )
            if fault.kind == "byzantine":
                mode = fault.params.get("mode", "equivocate")
                if mode not in BYZANTINE_MODES:
                    raise ConfigurationError(
                        f"unknown byzantine mode {mode!r} "
                        f"(known: {', '.join(BYZANTINE_MODES)})"
                    )
                if decl.n < 4:
                    raise ConfigurationError(
                        f"byzantine fault on service {fault.service!r} "
                        f"needs a group tolerating at least one fault "
                        f"(n >= 4, got n={decl.n})"
                    )
            elif fault.kind == "delay":
                delay_us = fault.params.get("delay_us")
                if not isinstance(delay_us, int) or delay_us < 1:
                    raise ConfigurationError(
                        f"delay fault on {fault.service!r}/{fault.index} "
                        f"needs a positive integer delay_us "
                        f"(got {delay_us!r})"
                    )
                jitter = fault.params.get("jitter_us", 0)
                if not isinstance(jitter, int) or jitter < 0:
                    raise ConfigurationError(
                        f"delay fault jitter_us must be a non-negative "
                        f"integer (got {jitter!r})"
                    )
            elif fault.kind == "partition":
                side = fault.params.get("side")
                if (not isinstance(side, (list, tuple)) or not side
                        or not all(isinstance(i, int) for i in side)):
                    raise ConfigurationError(
                        f"partition fault on service {fault.service!r} "
                        f"needs a non-empty integer list in params['side']"
                    )
                if not all(0 <= i < decl.n for i in side):
                    raise ConfigurationError(
                        f"partition side {list(side)} out of range for "
                        f"service {fault.service!r} (n={decl.n})"
                    )
                if len(set(side)) >= decl.n:
                    raise ConfigurationError(
                        f"partition side must be a proper subset of "
                        f"service {fault.service!r}'s replicas"
                    )
                start = fault.params.get("start_after_us", 0)
                heal = fault.params.get("heal_after_us")
                if (not isinstance(start, int) or start < 0
                        or not isinstance(heal, int) or heal <= start):
                    raise ConfigurationError(
                        f"partition fault on {fault.service!r} needs "
                        f"0 <= start_after_us < heal_after_us "
                        f"(got {start!r}, {heal!r})"
                    )
            elif fault.kind == "restart":
                down = fault.params.get("down_after_us", 0)
                up = fault.params.get("up_after_us")
                if (not isinstance(down, int) or down < 0
                        or not isinstance(up, int) or up <= down):
                    raise ConfigurationError(
                        f"restart fault on {fault.service!r}/{fault.index} "
                        f"needs 0 <= down_after_us < up_after_us "
                        f"(got {down!r}, {up!r})"
                    )
        return self

    def _validate_link_fault(self, fault: "FaultSpec") -> None:
        unknown = set(fault.params) - _LINK_PARAM_KEYS
        if unknown:
            raise ConfigurationError(
                f"link fault has unknown params {sorted(unknown)} "
                f"(known: {sorted(_LINK_PARAM_KEYS)})"
            )
        for role in ("src", "dst"):
            endpoint = fault.params.get(role)
            if endpoint == "*":
                continue
            if not isinstance(endpoint, str) or not _is_principal_of(
                endpoint, self.services
            ):
                raise ConfigurationError(
                    f"link fault {role} {endpoint!r} names no principal: "
                    f"expected '*' or 'service/vN'/'service/dN' with a "
                    f"declared service and in-range replica index"
                )
        drop = fault.params.get("drop", 0.0)
        if not isinstance(drop, (int, float)) or not 0.0 <= drop <= 1.0:
            raise ConfigurationError(
                f"link fault drop probability must lie in [0, 1] "
                f"(got {drop!r})"
            )
        extra = fault.params.get("extra_delay_us", 0)
        if not isinstance(extra, int) or extra < 0:
            raise ConfigurationError(
                f"link fault extra_delay_us must be a non-negative "
                f"integer (got {extra!r})"
            )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "services": [_service_to_dict(s) for s in self.services],
            "network": {"kind": self.network.kind, "params": self.network.params},
            "crypto": self.crypto,
            "crypto_params": self.crypto_params,
            "faults": [_fault_to_dict(f) for f in self.faults],
            "duration_s": self.duration_s,
            "seed": self.seed,
            "max_events": self.max_events,
            "batching": self.batching,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        try:
            known = {f.name for f in fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise ConfigurationError(
                    f"scenario document has unknown keys {sorted(unknown)} "
                    f"(known: {sorted(known)})"
                )
            network_data = data.get("network") or {}
            return cls(
                name=data["name"],
                services=tuple(
                    _service_from_dict(s) for s in data.get("services", ())
                ),
                network=NetworkSpec(
                    kind=network_data.get("kind", "lan"),
                    params=dict(network_data.get("params") or {}),
                ),
                crypto=data.get("crypto", "mac"),
                crypto_params=(
                    dict(data["crypto_params"])
                    if data.get("crypto_params") is not None else None
                ),
                faults=tuple(
                    _fault_from_dict(f) for f in data.get("faults", ())
                ),
                duration_s=data.get("duration_s", 60.0),
                seed=data.get("seed", 11),
                max_events=data.get("max_events"),
                batching=data.get("batching", "off"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed scenario document: {exc}") from exc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given top-level fields replaced."""
        return replace(self, **changes)


class ScenarioBuilder:
    """Fluent constructor for :class:`ScenarioSpec`.

    Example::

        spec = (
            ScenarioBuilder("two-tier")
            .network("lan", propagation_us=170)
            .crypto("mac")
            .service("target", n=4, app="counter")
            .service("caller", n=4, app="sync_caller",
                     target="target", total_calls=50)
            .crash("target", 2)
            .duration(60)
            .build()
        )
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._services: list[ServiceDecl] = []
        self._network = NetworkSpec()
        self._crypto = "mac"
        self._crypto_params: dict | None = None
        self._faults: list[FaultSpec] = []
        self._duration_s = 60.0
        self._seed = 11
        self._max_events: int | None = None
        self._batching: str | int = "off"

    def service(
        self,
        name: str,
        n: int,
        app: str,
        crypto: str | None = None,
        hosts: list[str] | None = None,
        clbft: dict | None = None,
        **params: Any,
    ) -> "ScenarioBuilder":
        """Add a replicated service; ``params`` go to the app builder."""
        self._services.append(ServiceDecl(
            name=name,
            n=n,
            app=AppSpec(kind=app, params=params),
            crypto=crypto,
            hosts=tuple(hosts) if hosts is not None else None,
            clbft=clbft,
        ))
        return self

    def network(self, kind: str, **params: Any) -> "ScenarioBuilder":
        self._network = NetworkSpec(kind=kind, params=params)
        return self

    def crypto(self, model: str, **params: Any) -> "ScenarioBuilder":
        """Select the cost model by registry name, or define it inline
        (``sign_us`` / ``verify_us`` / ``per_receiver_us``)."""
        self._crypto = model
        self._crypto_params = params or None
        return self

    def crash(self, service: str, index: int) -> "ScenarioBuilder":
        """Crash replica ``index`` of ``service`` from the start."""
        self._faults.append(FaultSpec(kind="crash", service=service, index=index))
        return self

    def link_fault(self, src: str, dst: str, **params: Any) -> "ScenarioBuilder":
        """Inject per-link faults (``drop``, ``extra_delay_us``); sim only."""
        self._faults.append(
            FaultSpec(kind="link", params=dict(params, src=src, dst=dst))
        )
        return self

    def byzantine(
        self, service: str, index: int, mode: str = "equivocate"
    ) -> "ScenarioBuilder":
        """Script replica ``index`` of ``service`` as Byzantine
        (``equivocate`` / ``corrupt`` / ``mute``)."""
        self._faults.append(
            FaultSpec(kind="byzantine", service=service, index=index,
                      params={"mode": mode})
        )
        return self

    def delay(
        self, service: str, index: int, delay_us: int, jitter_us: int = 0
    ) -> "ScenarioBuilder":
        """Defer every message replica ``index`` of ``service`` sends."""
        params: dict = {"delay_us": delay_us}
        if jitter_us:
            params["jitter_us"] = jitter_us
        self._faults.append(
            FaultSpec(kind="delay", service=service, index=index, params=params)
        )
        return self

    def partition(
        self,
        service: str,
        side: list[int],
        heal_after_us: int,
        start_after_us: int = 0,
    ) -> "ScenarioBuilder":
        """Split ``service`` into ``side`` vs the rest until the heal
        deadline."""
        params: dict = {"side": list(side), "heal_after_us": heal_after_us}
        if start_after_us:
            params["start_after_us"] = start_after_us
        self._faults.append(
            FaultSpec(kind="partition", service=service, params=params)
        )
        return self

    def restart(
        self, service: str, index: int, up_after_us: int, down_after_us: int = 0
    ) -> "ScenarioBuilder":
        """Crash replica ``index`` of ``service`` at ``down_after_us``
        and bring it back at ``up_after_us``."""
        params: dict = {"up_after_us": up_after_us}
        if down_after_us:
            params["down_after_us"] = down_after_us
        self._faults.append(
            FaultSpec(kind="restart", service=service, index=index, params=params)
        )
        return self

    def duration(self, seconds: float) -> "ScenarioBuilder":
        self._duration_s = float(seconds)
        return self

    def seed(self, seed: int) -> "ScenarioBuilder":
        self._seed = seed
        return self

    def max_events(self, budget: int | None) -> "ScenarioBuilder":
        self._max_events = budget
        return self

    def batching(self, mode: str | int) -> "ScenarioBuilder":
        """Channel batching: ``"off"``, ``"tick"``, or a window in µs."""
        self._batching = mode
        return self

    def build(self) -> ScenarioSpec:
        return ScenarioSpec(
            name=self._name,
            services=tuple(self._services),
            network=self._network,
            crypto=self._crypto,
            crypto_params=self._crypto_params,
            faults=tuple(self._faults),
            duration_s=self._duration_s,
            seed=self._seed,
            max_events=self._max_events,
            batching=self._batching,
        ).validate()
