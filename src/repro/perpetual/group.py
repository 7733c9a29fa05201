"""Topology and deployment of Perpetual service groups.

:class:`Topology` is the in-memory form of the paper's ``replicas.xml``
(section 5.2): every deployment ships a static map from service name to
replica-group description because UDDI cannot resolve replicated endpoint
references. :func:`deploy_service` deploys one service's voters and drivers
as a :class:`ServiceGroup` on the simulation kernel or a real-clock node
host, co-locating each replica's pair (on the simulator: on one simulated
host CPU) exactly as the paper co-locates them on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import ServiceSpec, make_spec
from repro.common.errors import ConfigurationError
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.perpetual.driver import DriverNode
from repro.perpetual.executor import AppFactory
from repro.perpetual.voter import VoterNode, driver_name, voter_name


@dataclass
class Topology:
    """The deployment-wide service registry (``replicas.xml`` stand-in)."""

    specs: dict[str, ServiceSpec] = field(default_factory=dict)

    def add(self, name: str, n: int) -> ServiceSpec:
        spec = make_spec(name, n)
        self.specs[name] = spec
        return spec

    def spec(self, name: str) -> ServiceSpec:
        try:
            return self.specs[name]
        except KeyError:
            raise ConfigurationError(
                f"service {name!r} is not in the deployment topology"
            ) from None

    def spec_or_none(self, name: str) -> ServiceSpec | None:
        return self.specs.get(name)


@dataclass
class ServiceGroup:
    """A deployed replica group: n co-located (voter, driver) pairs."""

    service: str
    voters: list[VoterNode]
    drivers: list[DriverNode]

    @property
    def n(self) -> int:
        return len(self.voters)


def build_replica(
    topology: Topology,
    service: str,
    index: int,
    keys: KeyStore,
    app_factory: AppFactory,
    cost_model: CryptoCostModel = MAC_COST_MODEL,
    clbft_overrides: dict | None = None,
    retransmit_timeout_us: int | None = None,
    fault_script: Any | None = None,
    batching: str | int = "off",
    router: Any | None = None,
    home_group: str | None = None,
) -> tuple[VoterNode, DriverNode]:
    """One replica's co-located voter/driver pair, unattached.

    The single construction path every substrate shares — the simulator,
    the threaded cluster, and multi-process workers all build replicas
    here and differ only in the environment they attach. ``fault_script``
    (a :class:`repro.faults.ReplicaFaultScript`) scripts this replica as
    faulty: each half gets its own injector wired into its hooks.
    """
    voter_fault = driver_fault = None
    if fault_script is not None:
        from repro.faults import FaultInjector

        voter_fault = FaultInjector(fault_script, role="voter")
        driver_fault = FaultInjector(fault_script, role="driver")
    voter = VoterNode(
        topology=topology,
        service=service,
        index=index,
        keys=keys,
        cost_model=cost_model,
        clbft_overrides=clbft_overrides,
        fault=voter_fault,
        batching=batching,
    )
    driver_kwargs: dict[str, Any] = {}
    if retransmit_timeout_us is not None:
        driver_kwargs["retransmit_timeout_us"] = retransmit_timeout_us
    driver = DriverNode(
        topology=topology,
        service=service,
        index=index,
        keys=keys,
        app_factory=app_factory,
        cost_model=cost_model,
        fault=driver_fault,
        batching=batching,
        router=router,
        home_group=home_group,
        **driver_kwargs,
    )
    return voter, driver


def deploy_service(
    substrate: Any,
    topology: Topology,
    keys: KeyStore,
    service: str,
    app_factory: AppFactory,
    cost_model: CryptoCostModel = MAC_COST_MODEL,
    clbft_overrides: dict | None = None,
    retransmit_timeout_us: int | None = None,
    hosts: list[str] | None = None,
    fault_plan: Any | None = None,
    batching: str | int = "off",
    router: Any | None = None,
    home_group: str | None = None,
) -> ServiceGroup:
    """Deploy every replica of ``service`` onto ``substrate``.

    ``substrate`` is whatever hands out node environments through
    ``add_node(node_id, node, host=)``: the :class:`~repro.sim.kernel
    .Simulator` or a real-clock :class:`~repro.runtime.host.NodeHost`
    scheduler — the one deploy path of every in-process substrate.

    On the simulator the voter and driver of replica ``i`` share the
    simulated host ``{service}/h{i}`` so their work serialises on one
    CPU, matching the paper's co-location of both halves on a single
    machine. ``hosts`` overrides the host names, letting several
    services share machines (the TPC-W setup runs every RBE on one
    host). Real-clock substrates ignore the placement.
    """
    spec = topology.spec(service)
    voters: list[VoterNode] = []
    drivers: list[DriverNode] = []
    for index in range(spec.n):
        host = hosts[index] if hosts is not None else f"{service}/h{index}"
        voter, drv = build_replica(
            topology=topology,
            service=service,
            index=index,
            keys=keys,
            app_factory=app_factory,
            cost_model=cost_model,
            clbft_overrides=clbft_overrides,
            retransmit_timeout_us=retransmit_timeout_us,
            fault_script=(
                fault_plan.script_for(service, index)
                if fault_plan is not None else None
            ),
            batching=batching,
            router=router,
            home_group=home_group,
        )
        voter.attach(
            substrate.add_node(voter_name(service, index), voter, host=host)
        )
        voters.append(voter)
        drv.attach(
            substrate.add_node(driver_name(service, index), drv, host=host)
        )
        drivers.append(drv)
    return ServiceGroup(service=service, voters=voters, drivers=drivers)
