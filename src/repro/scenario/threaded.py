"""The threaded substrate: scenarios on one OS thread per protocol node.

``ThreadedRuntime`` executes the same :class:`~repro.scenario.spec
.ScenarioSpec` the simulator runs, but on the
:class:`~repro.runtime.cluster.ThreadedCluster`: every voter and driver
gets a consumer thread, messages race through thread-safe mailboxes, and
timers fire from a shared wheel. There is no modelled network — latency
parameters in the spec are ignored (real queues are the network) — and
``link`` faults are rejected as unsupported (they parameterise the
modelled network, which only the simulator has). ``crash`` faults map to
:meth:`ThreadedCluster.drop_node` on the replica's voter/driver pair;
``byzantine``, ``delay``, ``partition``, and ``restart`` faults run
through the same :class:`repro.faults.FaultInjector` hooks as every
other substrate.

``run`` starts the cluster and parks until quiescence (every mailbox
stays empty) or the wall-clock budget elapses, then reports the same
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
from repro.perpetual.group import ServiceGroup, Topology
from repro.perpetual.voter import driver_name, voter_name
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.deploy import deploy_threaded_service
from repro.scenario.apps import BuiltApp, build_app, scenario_cost_model
from repro.scenario.runtime import (
    Runtime,
    ScenarioMetrics,
    ServiceMetrics,
    live_indices,
    observer_index,
    view_lag,
)
from repro.scenario.spec import ScenarioSpec
from repro.sharding import build_router
from repro.ws.adapter import WsAdapter, collecting_executor_factory


class ThreadedRuntime(Runtime):
    """Executes scenarios on real threads with racy interleavings."""

    name = "threaded"

    def __init__(self, debug_locks: bool = False) -> None:
        #: Lock sanitizer (repro.runtime.sanitizer): wrap the cluster's
        #: shared structures in assert-owner proxies so the static
        #: guarded-by annotations are checked on every mutation.
        self.debug_locks = debug_locks
        self.cluster: ThreadedCluster | None = None
        self._spec: ScenarioSpec | None = None
        self._groups: dict[str, ServiceGroup] = {}
        self._adapters: dict[str, list[WsAdapter]] = {}
        self._probes: dict[str, Callable[[], dict] | None] = {}
        self._epoch = 0.0
        self._metrics_base: dict[str, int] = {}
        self._router = None

    def _ws_factory(self, service: str, built: BuiltApp):
        return collecting_executor_factory(
            service, built.factory, self._adapters[service]
        )

    def _make_cluster(self):
        """Substrate hook: AsyncioRuntime deploys the same way onto an
        AioCluster (same add_node/drop_node/timers surface)."""
        return ThreadedCluster(debug_locks=self.debug_locks)

    def deploy(self, spec: ScenarioSpec) -> "ThreadedRuntime":
        spec.validate()
        require_supported_kinds(spec, ("link",), self.name)
        fault_plan = FaultPlan.from_spec(spec)
        # Sharded specs deploy every group onto this one cluster: each
        # node already owns a thread, so the groups' worker sets run
        # concurrently, and cross-group calls travel the same mailboxes
        # as local ones — routed, because every driver gets the router.
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
            self._groups[decl.name] = deploy_threaded_service(
                cluster,
                topology,
                keys,
                decl.name,
                self._ws_factory(decl.name, built),
                cost_model=scenario_cost_model(spec, decl),
                clbft_overrides=decl.clbft,
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

    def _live_drivers(self):
        dropped = self.cluster.dropped
        for name, group in self._groups.items():
            for index, drv in enumerate(group.drivers):
                if driver_name(name, index) not in dropped:
                    yield drv

    def _settled(self) -> bool:
        """No in-flight out-calls and no armed timers.

        Mailbox quiescence alone is not completion: a crashed primary
        leaves progress waiting on view-change timers, and timer-driven
        workloads (TPC-W think times) idle between self-scheduled events
        — both with empty mailboxes for seconds. A scenario is settled
        only when the workload reports nothing outstanding *and* nothing
        is scheduled to wake up.
        """
        if self.cluster.timers_armed():
            return False
        return all(drv.in_flight_calls == 0 for drv in self._live_drivers())

    def run(self, until_s: float | None = None) -> None:
        self._epoch = time.monotonic()
        self.cluster.start()
        budget = self._spec.duration_s if until_s is None else until_s
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            if time.monotonic() - self._epoch < 0.3:
                # Warm-up: on_start traffic may not have been enqueued yet.
                time.sleep(0.02)
                continue
            remaining = max(deadline - time.monotonic(), 0.05)
            quiescent = self.cluster.await_quiescent(
                timeout_s=min(remaining, 1.0)
            )
            if not (quiescent and self._settled()):
                continue
            # Confirm over a second look: a handler may have been mid-run
            # (mailbox drained, state not yet updated) on the first.
            time.sleep(0.1)
            if self.cluster.mailboxes_empty() and self._settled():
                return

    def errors(self) -> list[BaseException]:
        """Exceptions raised inside node handler threads."""
        return self.cluster.errors()

    def metrics(self) -> ScenarioMetrics:
        services: dict[str, ServiceMetrics] = {}
        for name, group in self._groups.items():
            observer = observer_index(self._spec, name)
            driver = group.drivers[observer]
            voter = group.voters[observer]
            adapters = self._adapters[name]
            probe = self._probes.get(name)
            services[name] = ServiceMetrics(
                n=group.n,
                completed_calls=driver.completed_calls,
                aborted_calls=driver.aborted_calls,
                delivered_requests=voter.delivered_requests,
                requests_served=(
                    adapters[observer].requests_served
                    if len(adapters) > observer else voter.delivered_requests
                ),
                first_issue_us=driver.first_issue_us or 0,
                last_completion_us=driver.last_completion_us,
                view_changes=max(
                    v.replica.view_changes_completed for v in group.voters
                ),
                view_lag=view_lag(
                    group.voters[i].replica.view
                    for i in live_indices(self._spec, name)
                ),
                reply_cache_size=voter.reply_cache_size,
                app=probe() if probe is not None else {},
                group=self._spec.group_of(name) or (
                    self._router.group_for_service(name)
                    if self._router is not None else None
                ),
            )
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
