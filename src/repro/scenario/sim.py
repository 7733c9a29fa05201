"""The simulator substrate: ``SimRuntime`` and its deployment machinery.

A :class:`Deployment` binds the discrete-event kernel, the key store, the
topology (the ``replicas.xml`` model), and the registry together, and
deploys services as :class:`~repro.perpetual.group.ServiceGroup`\\ s of
co-located voter/driver pairs. :class:`SimRuntime` executes a declarative
:class:`~repro.scenario.spec.ScenarioSpec` on top of it — the imperative
``Deployment`` surface remains available for tests and bespoke setups,
but every experiment entry point goes through scenarios.

The simulator is the only substrate with a modelled network, so it is
also the only one honouring latency parameters and ``link`` faults;
``crash`` faults cut the replica's voter and driver off the network (a
crashed machine never speaks again).
"""

from __future__ import annotations

from typing import Callable

from repro.common.encoding import clear_wire_caches
from repro.common.errors import ConfigurationError
from repro.common.metrics import METRICS
from repro.faults import FaultPlan
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.perpetual.executor import AppFactory
from repro.perpetual.group import ServiceGroup, Topology, deploy_service
from repro.perpetual.voter import driver_name, voter_name
from repro.scenario.apps import build_app, scenario_cost_model
from repro.scenario.runtime import (
    Runtime,
    ScenarioMetrics,
    live_snapshots,
    service_metrics,
)
from repro.scenario.spec import ScenarioSpec
from repro.sim.kernel import Simulator, US_PER_S
from repro.sim.network import (
    FaultyLink,
    LanModel,
    NetworkModel,
    PartitionModel,
    UniformLatency,
)
from repro.soap.engine import SoapEngine
from repro.ws.adapter import (
    WsAdapter,
    WsAppFactory,
    collecting_executor_factory,
)
from repro.ws.descriptor import parse_replicas_xml
from repro.ws.registry import ServiceRegistry


class ServiceDeployment:
    """One deployed service: the replica group plus per-replica adapters."""

    def __init__(
        self,
        name: str,
        group: ServiceGroup,
        adapters: list[WsAdapter] | None = None,
    ) -> None:
        self.name = name
        self.group = group
        self.adapters = adapters or []

    @property
    def n(self) -> int:
        return self.group.n

    def completed_calls(self) -> int:
        return self.group.completed_calls()

    def aborted_calls(self) -> int:
        return self.group.aborted_calls()

    def requests_served(self) -> int:
        if self.adapters:
            return self.adapters[0].requests_served
        return self.group.delivered_requests()

    def engines(self) -> list[SoapEngine]:
        return [adapter.engine for adapter in self.adapters]


class Deployment:
    """A whole multi-tier Perpetual-WS system on one simulator."""

    def __init__(
        self,
        name: str = "deployment",
        network: NetworkModel | None = None,
        sim: Simulator | None = None,
    ) -> None:
        self.name = name
        self.sim = sim or Simulator()
        self.sim.set_network(network or LanModel())
        self.keys = KeyStore.for_deployment(name)
        self.topology = Topology()
        self.registry = ServiceRegistry()
        self.services: dict[str, ServiceDeployment] = {}
        self._declared: set[str] = set()

    # ------------------------------------------------------------------
    # Topology declaration
    # ------------------------------------------------------------------

    def declare(self, name: str, n: int) -> None:
        """Declare a service's replication degree before deploying it.

        All services must be declared before any is deployed, because
        every node needs the complete topology for quorum arithmetic
        (exactly the role of ``replicas.xml``).
        """
        spec = self.topology.add(name, n)
        self.registry.register(spec)
        self._declared.add(name)

    def declare_from_xml(self, replicas_xml: str | bytes) -> None:
        """Declare every service listed in a replicas.xml document."""
        for spec in parse_replicas_xml(replicas_xml):
            self.topology.specs[str(spec.service)] = spec
            self.registry.register(spec)
            self._declared.add(str(spec.service))

    # ------------------------------------------------------------------
    # Service deployment
    # ------------------------------------------------------------------

    def add_service(
        self,
        name: str,
        app: WsAppFactory,
        n: int | None = None,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
        clbft_overrides: dict | None = None,
        engine_factory: Callable[[], SoapEngine] | None = None,
        hosts: list[str] | None = None,
        fault_plan=None,
        batching: str | int = "off",
        router=None,
        home_group: str | None = None,
    ) -> ServiceDeployment:
        """Deploy a WS-level application as a replicated service."""
        self._ensure_declared(name, n)
        adapters: list[WsAdapter] = []
        group = deploy_service(
            substrate=self.sim,
            topology=self.topology,
            keys=self.keys,
            service=name,
            app_factory=collecting_executor_factory(
                name, app, adapters,
                engine_factory=engine_factory,
                resolve=self.registry.service_name,
            ),
            cost_model=cost_model,
            clbft_overrides=clbft_overrides,
            hosts=hosts,
            fault_plan=fault_plan,
            batching=batching,
            router=router,
            home_group=home_group,
        )
        deployed = ServiceDeployment(name=name, group=group, adapters=adapters)
        self.services[name] = deployed
        return deployed

    def add_raw_service(
        self,
        name: str,
        app_factory: AppFactory,
        n: int | None = None,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
        clbft_overrides: dict | None = None,
    ) -> ServiceDeployment:
        """Deploy an executor-level application (no SOAP layer)."""
        self._ensure_declared(name, n)
        group = deploy_service(
            substrate=self.sim,
            topology=self.topology,
            keys=self.keys,
            service=name,
            app_factory=app_factory,
            cost_model=cost_model,
            clbft_overrides=clbft_overrides,
        )
        deployed = ServiceDeployment(name=name, group=group)
        self.services[name] = deployed
        return deployed

    def _ensure_declared(self, name: str, n: int | None) -> None:
        if name not in self._declared:
            if n is None:
                raise ConfigurationError(
                    f"service {name!r} was never declared and no replication "
                    "degree was given"
                )
            self.declare(name, n)
        elif n is not None and self.topology.spec(name).n != n:
            raise ConfigurationError(
                f"service {name!r} declared with n={self.topology.spec(name).n} "
                f"but deployed with n={n}"
            )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, seconds: float | None = None, max_events: int | None = None) -> int:
        """Run the simulation (bounded by time and/or event count)."""
        until_us = None
        if seconds is not None:
            until_us = self.sim.now_us + int(seconds * US_PER_S)
        return self.sim.run(until_us=until_us, max_events=max_events)

    @property
    def now_us(self) -> int:
        return self.sim.now_us


# ---------------------------------------------------------------------------
# The scenario runtime on the simulator substrate
# ---------------------------------------------------------------------------


def build_network(spec: ScenarioSpec) -> tuple[NetworkModel, PartitionModel | None]:
    """The network model a spec describes, with fault wrappers applied.

    Returns the outermost model plus the partition layer (present only
    when the spec injects crash faults).
    """
    params = dict(spec.network.params)
    if spec.network.kind == "lan":
        model: NetworkModel = LanModel(**params)
    elif spec.network.kind == "uniform":
        model = UniformLatency(**params)
    else:
        raise ConfigurationError(f"unknown network kind {spec.network.kind!r}")

    link_faults = [f for f in spec.faults if f.kind == "link"]
    if link_faults:
        faulty = FaultyLink(model)
        for fault in link_faults:
            rule = dict(fault.params)
            src = rule.pop("src", "*")
            dst = rule.pop("dst", "*")
            faulty.add_rule(src, dst, **rule)
        model = faulty

    partition: PartitionModel | None = None
    if any(f.kind == "crash" for f in spec.faults):
        partition = PartitionModel(model)
        model = partition
    return model, partition


class SimRuntime(Runtime):
    """Executes scenarios on the deterministic discrete-event kernel.

    A sharded spec (``spec.groups`` non-empty) runs as one sub-kernel
    per group: ``run()`` deploys, runs, and observes each group's
    single-group slice (see :func:`repro.sharding.group_subspec`) on a
    fresh child ``SimRuntime`` in declaration order — sequential, so the
    METRICS counter windows of the groups never overlap — and
    ``metrics()`` merges the per-group observations deterministically.
    Single-group scenarios take the classic path below, untouched and
    bit-identical to previous releases. Cross-group calls cannot be
    simulated (each sub-kernel is a closed world); the live substrates
    execute them for real.
    """

    name = "sim"

    def __init__(self) -> None:
        self.deployment: Deployment | None = None
        self._spec: ScenarioSpec | None = None
        self._probes: dict[str, Callable[[], dict] | None] = {}
        self._metrics_base: dict[str, int] = {}
        #: Router injected into drivers (sharded sub-kernels only).
        self._router = None
        #: Sharded parent state: per-group (name, metrics) observations.
        self._group_parts: list[tuple[str, ScenarioMetrics]] | None = None

    def deploy(self, spec: ScenarioSpec) -> "SimRuntime":
        spec.validate()
        if spec.groups:
            # Sharded: plan only — each group's sub-kernel is deployed
            # lazily by run(), immediately before it runs.
            from repro.sharding import build_router

            self._spec = spec
            self._router = build_router(spec)
            self._group_parts = []
            return self
        # Every scenario starts with cold wire caches: runs measure equal
        # cache state and dead message graphs from earlier runs are freed.
        clear_wire_caches()
        network, partition = build_network(spec)
        fault_plan = FaultPlan.from_spec(spec)
        deployment = Deployment(name=spec.name, network=network)
        for decl in spec.services:
            deployment.declare(decl.name, decl.n)
        for decl in spec.services:
            built = build_app(decl.app)
            deployment.add_service(
                decl.name,
                built.factory,
                cost_model=scenario_cost_model(spec, decl),
                clbft_overrides=decl.clbft,
                hosts=list(decl.hosts) if decl.hosts is not None else None,
                fault_plan=None if fault_plan.empty else fault_plan,
                batching=spec.batching,
                router=self._router,
                home_group=(
                    self._router.group_for_service(decl.name)
                    if self._router is not None else None
                ),
            )
            self._probes[decl.name] = built.probe
        for fault in spec.faults:
            if fault.kind == "crash":
                partition.kill(voter_name(fault.service, fault.index))
                partition.kill(driver_name(fault.service, fault.index))
        self.deployment = deployment
        self._spec = spec
        self._metrics_base = METRICS.snapshot()
        return self

    def run(self, until_s: float | None = None) -> None:
        if self._group_parts is not None:
            from repro.sharding import group_subspec

            for group in self._spec.groups:
                child = SimRuntime()
                child._router = self._router
                child.deploy(group_subspec(self._spec, group, self._router))
                child.run(until_s)
                self._group_parts.append((group.name, child.metrics()))
            return
        self.deployment.run(
            seconds=self._spec.duration_s if until_s is None else until_s,
            max_events=self._spec.max_events,
        )

    def metrics(self) -> ScenarioMetrics:
        if self._group_parts is not None:
            from repro.sharding import merge_group_metrics

            return merge_group_metrics(
                self._spec.name, self.name, self._group_parts
            )
        services = {
            name: service_metrics(
                self._spec,
                self._router,
                name,
                live_snapshots(
                    self._spec, name, deployed.group, deployed.adapters,
                    self._probes[name],
                ),
            )
            for name, deployed in self.deployment.services.items()
        }
        snapshot = METRICS.snapshot()
        return ScenarioMetrics(
            scenario=self._spec.name,
            runtime=self.name,
            services=services,
            now_us=self.deployment.now_us,
            events_processed=self.deployment.sim.events_processed,
            processes=1,
            counters={
                key: value - self._metrics_base.get(key, 0)
                for key, value in snapshot.items()
            },
        )

    def shutdown(self) -> None:
        """Nothing to release: the simulator is plain in-process state."""
