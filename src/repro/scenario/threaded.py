"""The in-process real-clock substrates: threaded and asyncio.

``InProcessRuntime`` executes the same :class:`~repro.scenario.spec
.ScenarioSpec` the simulator runs, on a :mod:`repro.runtime` scheduler:
:class:`ThreadedRuntime` on the :class:`~repro.runtime.cluster
.ThreadedCluster` (one consumer thread per voter/driver, messages
racing through thread-safe mailboxes), :class:`repro.scenario.aio
.AsyncioRuntime` on the :class:`~repro.runtime.aio.AioCluster` (every
node a task on one event loop). Everything but the scheduler is shared.
There is no modelled network — latency parameters in the spec are
ignored (real queues are the network) — and ``link`` faults are
rejected as unsupported (they parameterise the modelled network, which
only the simulator has). ``crash`` faults map to ``drop_node`` on the
replica's voter/driver pair; ``byzantine``, ``delay``, ``partition``,
and ``restart`` faults run through the same :class:`repro.faults
.FaultInjector` hooks as every other substrate.

``run`` hands the scheduler one *settled* predicate and parks until it
holds or the wall-clock budget elapses, then reports the same
:class:`~repro.scenario.runtime.ScenarioMetrics` shape as every other
substrate.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.common.encoding import clear_wire_caches
from repro.common.metrics import METRICS
from repro.crypto.keys import KeyStore
from repro.faults import FaultPlan, require_supported_kinds
from repro.perpetual.group import ServiceGroup, Topology, deploy_service
from repro.perpetual.voter import driver_name, voter_name
from repro.runtime.cluster import ThreadedCluster
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

#: A driver's first-attempt retransmission timeout on the in-process
#: substrates. The simulator and the process workers keep the driver's
#: own default (``perpetual.driver.RETRANSMIT_TIMEOUT_US``, 250 ms); the
#: in-process value is 100 ms, and the ``failover``/``echo_window``
#: benchmark numbers depend on it, so aligning the two is a separate,
#: measured change.
IN_PROCESS_RETRANSMIT_TIMEOUT_US = 100_000


class InProcessRuntime(Runtime):
    """Executes scenarios on one scheduler inside this process."""

    def __init__(self) -> None:
        self.cluster = None
        self._spec: ScenarioSpec | None = None
        self._groups: dict[str, ServiceGroup] = {}
        self._adapters: dict[str, list[WsAdapter]] = {}
        self._probes: dict[str, Callable[[], dict] | None] = {}
        self._epoch = 0.0
        self._metrics_base: dict[str, int] = {}
        self._router = None

    def _make_cluster(self):
        """The scheduler to deploy onto (the subclasses' one decision)."""
        raise NotImplementedError

    def deploy(self, spec: ScenarioSpec) -> "InProcessRuntime":
        spec.validate()
        require_supported_kinds(spec, ("link",), self.name)
        fault_plan = FaultPlan.from_spec(spec)
        # Sharded specs deploy every group onto this one cluster: the
        # groups' nodes run side by side, and cross-group calls travel
        # the same mailboxes as local ones — routed, because every
        # driver gets the router.
        router = build_router(spec)
        # Cold wire caches per deployment, as on every substrate.
        clear_wire_caches()
        cluster = self._make_cluster()
        topology = Topology()
        for decl in spec.all_services():
            topology.add(decl.name, decl.n)
        keys = KeyStore.for_deployment(spec.name)
        for decl in spec.all_services():
            built = build_app(decl.app)
            self._adapters[decl.name] = []
            self._probes[decl.name] = built.probe
            self._groups[decl.name] = deploy_service(
                cluster,
                topology,
                keys,
                decl.name,
                collecting_executor_factory(
                    decl.name, built.factory, self._adapters[decl.name]
                ),
                cost_model=scenario_cost_model(spec, decl),
                clbft_overrides=decl.clbft,
                retransmit_timeout_us=IN_PROCESS_RETRANSMIT_TIMEOUT_US,
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
                cluster.drop_node(voter_name(fault.service, fault.index))
                cluster.drop_node(driver_name(fault.service, fault.index))
        self.cluster = cluster
        self._spec = spec
        self._router = router
        self._metrics_base = METRICS.snapshot()
        return self

    def _settled(self) -> bool:
        """Nothing unprocessed, nothing armed, no out-call in flight.

        An empty mailbox alone is not completion: a crashed primary
        leaves progress waiting on view-change timers, and timer-driven
        workloads (TPC-W think times) idle between self-scheduled events
        — both with empty mailboxes for seconds. ``idle()`` is exact (a
        handler mid-run and a timer on its way to a mailbox both count
        as unprocessed), and once it holds no driver can change, so
        reading ``in_flight_calls`` after it is race-free.
        """
        dropped = self.cluster.dropped
        return self.cluster.idle() and all(
            drv.in_flight_calls == 0
            for name, group in self._groups.items()
            for index, drv in enumerate(group.drivers)
            if driver_name(name, index) not in dropped
        )

    def run(self, until_s: float | None = None) -> None:
        self._epoch = time.monotonic()
        self.cluster.run(
            self._settled, self._spec.duration_s if until_s is None else until_s
        )

    def errors(self) -> list[BaseException]:
        """Exceptions raised inside node handlers."""
        return self.cluster.errors()

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
        elapsed_us = int((time.monotonic() - self._epoch) * 1_000_000)
        snapshot = METRICS.snapshot()
        return ScenarioMetrics(
            scenario=self._spec.name,
            runtime=self.name,
            services=services,
            now_us=max(elapsed_us, 0),
            processes=1,
            counters={
                key: value - self._metrics_base.get(key, 0)
                for key, value in snapshot.items()
            },
        )

    def shutdown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None


class ThreadedRuntime(InProcessRuntime):
    """Executes scenarios on real threads with racy interleavings."""

    name = "threaded"

    def __init__(self, debug_locks: bool = False) -> None:
        super().__init__()
        #: Lock sanitizer (repro.runtime.sanitizer): wrap the cluster's
        #: shared structures in assert-owner proxies so the static
        #: guarded-by annotations are checked on every mutation.
        self.debug_locks = debug_locks

    def _make_cluster(self) -> ThreadedCluster:
        return ThreadedCluster(debug_locks=self.debug_locks)
