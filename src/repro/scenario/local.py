"""The one deploy loop of every substrate whose nodes share this process.

:class:`LocalRuntime` deploys a :class:`~repro.scenario.spec.ScenarioSpec`
onto one node table — the simulator kernel (:class:`repro.scenario.sim
.SimRuntime`) or a real-clock :class:`~repro.runtime.host.NodeHost`
scheduler (:class:`repro.scenario.threaded.InProcessRuntime`) — and
observes it. A sharded spec is no special case: every group's services
land on the same table with the router injected into every driver, so
cross-group calls travel the same path as local ones.

A subclass supplies only what differs between substrates: the node
table (``_node_table``), how a crash fault takes a node out
(``_crash``), how the scenario advances (``_run_for``), its clock
(``_clock``), and two class attributes — the fault kinds it cannot
express and its drivers' first retransmission timeout.

This module runs on the simulator, so it is inside the determinism
rules' scope: host clocks stay in the real-clock subclass.
"""

from __future__ import annotations

from typing import Callable

from repro.common.metrics import METRICS
from repro.crypto.keys import KeyStore
from repro.faults import FaultPlan, require_supported_kinds
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
from repro.sharding import build_router
from repro.ws.adapter import WsAdapter, collecting_executor_factory


class LocalRuntime(Runtime):
    """Deploys and observes scenarios on one in-process node table."""

    #: Fault kinds the substrate cannot express (rejected at deploy).
    unsupported_faults: tuple[str, ...] = ()
    #: A driver's first-attempt retransmission timeout; None keeps the
    #: driver's own default.
    retransmit_timeout_us: int | None = None

    def __init__(self) -> None:
        self._spec: ScenarioSpec | None = None
        self._router = None
        self._groups: dict[str, ServiceGroup] = {}
        self._adapters: dict[str, list[WsAdapter]] = {}
        self._probes: dict[str, Callable[[], dict] | None] = {}
        self._metrics_base: dict[str, int] = {}

    # -- what each substrate supplies ----------------------------------------

    def _node_table(self, spec: ScenarioSpec):
        """The ``add_node`` substrate every replica is deployed onto."""
        raise NotImplementedError

    def _crash(self, node: str) -> None:
        """Take ``node`` out for good (a crash fault)."""
        raise NotImplementedError

    def _run_for(self, seconds: float) -> None:
        """Advance the scenario by at most ``seconds``."""
        raise NotImplementedError

    def _clock(self) -> tuple[int, int]:
        """``(now_us, events_processed)`` for the metrics."""
        raise NotImplementedError

    # -- the shared body ------------------------------------------------------

    def deploy(self, spec: ScenarioSpec) -> "LocalRuntime":
        spec.validate()
        require_supported_kinds(spec, self.unsupported_faults, self.name)
        fault_plan = FaultPlan.from_spec(spec)
        router = build_router(spec)
        nodes = self._node_table(spec)
        topology = Topology()
        for decl in spec.all_services():
            topology.add(decl.name, decl.n)
        keys = KeyStore.for_deployment(spec.name)
        for decl in spec.all_services():
            built = build_app(decl.app)
            self._adapters[decl.name] = []
            self._probes[decl.name] = built.probe
            self._groups[decl.name] = deploy_service(
                nodes,
                topology,
                keys,
                decl.name,
                collecting_executor_factory(
                    decl.name, built.factory, self._adapters[decl.name]
                ),
                cost_model=scenario_cost_model(spec, decl),
                clbft_overrides=decl.clbft,
                retransmit_timeout_us=self.retransmit_timeout_us,
                hosts=list(decl.hosts) if decl.hosts is not None else None,
                fault_plan=None if fault_plan.empty else fault_plan,
                batching=spec.batching,
                router=router,
                home_group=(
                    router.group_for_service(decl.name)
                    if router is not None else None
                ),
            )
        for fault in spec.all_faults():
            if fault.kind == "crash":
                self._crash(voter_name(fault.service, fault.index))
                self._crash(driver_name(fault.service, fault.index))
        self._spec = spec
        self._router = router
        self._metrics_base = METRICS.snapshot()
        return self

    def run(self, until_s: float | None = None) -> None:
        self._run_for(self._spec.duration_s if until_s is None else until_s)

    def metrics(self) -> ScenarioMetrics:
        services = {
            name: service_metrics(
                self._spec,
                self._router,
                name,
                live_snapshots(
                    self._spec, name, group, self._adapters[name],
                    self._probes[name],
                ),
            )
            for name, group in self._groups.items()
        }
        now_us, events_processed = self._clock()
        snapshot = METRICS.snapshot()
        return ScenarioMetrics(
            scenario=self._spec.name,
            runtime=self.name,
            services=services,
            now_us=now_us,
            events_processed=events_processed,
            processes=1,
            counters={
                key: value - self._metrics_base.get(key, 0)
                for key, value in snapshot.items()
            },
        )
