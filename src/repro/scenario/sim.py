"""The simulator substrate: ``SimRuntime`` and its deployment machinery.

A :class:`Deployment` binds the discrete-event kernel, the key store, the
topology (the ``replicas.xml`` model), and the registry together, and
deploys services as :class:`~repro.perpetual.group.ServiceGroup`\\ s of
co-located voter/driver pairs — the imperative surface for tests,
examples and bespoke setups. :class:`SimRuntime` executes a declarative
:class:`~repro.scenario.spec.ScenarioSpec` on the same kernel through
the shared deploy loop of :mod:`repro.scenario.local`; every experiment
entry point goes through scenarios.

The simulator is the only substrate with a modelled network, so it is
also the only one honouring latency parameters and ``link`` faults;
``crash`` faults cut the replica's voter and driver off the network (a
crashed machine never speaks again).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.perpetual.executor import AppFactory
from repro.perpetual.group import ServiceGroup, Topology, deploy_service
from repro.scenario.local import LocalRuntime
from repro.scenario.spec import ScenarioSpec
from repro.sim.kernel import Simulator, US_PER_S
from repro.sim.network import (
    FaultyLink,
    LanModel,
    NetworkModel,
    PartitionModel,
    UniformLatency,
)
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
                name, app, adapters, resolve=self.registry.service_name
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

    link_faults = [f for f in spec.all_faults() if f.kind == "link"]
    if link_faults:
        faulty = FaultyLink(model)
        for fault in link_faults:
            rule = dict(fault.params)
            src = rule.pop("src", "*")
            dst = rule.pop("dst", "*")
            faulty.add_rule(src, dst, **rule)
        model = faulty

    partition: PartitionModel | None = None
    if any(f.kind == "crash" for f in spec.all_faults()):
        partition = PartitionModel(model)
        model = partition
    return model, partition


class SimRuntime(LocalRuntime):
    """Executes scenarios on the deterministic discrete-event kernel.

    Every service of the spec — all groups of a sharded one — is
    deployed onto one :class:`~repro.sim.kernel.Simulator` carrying the
    spec's network; a crash fault cuts the replica off that network.
    """

    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        self.sim: Simulator | None = None
        self._partition: PartitionModel | None = None

    def _node_table(self, spec: ScenarioSpec) -> Simulator:
        network, self._partition = build_network(spec)
        self.sim = Simulator()
        self.sim.set_network(network)
        return self.sim

    def _crash(self, node: str) -> None:
        self._partition.kill(node)

    def _run_for(self, seconds: float) -> None:
        self.sim.run(
            until_us=self.sim.now_us + int(seconds * US_PER_S),
            max_events=self._spec.max_events,
        )

    def _clock(self) -> tuple[int, int]:
        return self.sim.now_us, self.sim.events_processed

    def shutdown(self) -> None:
        """Nothing to release: the simulator is plain in-process state."""
