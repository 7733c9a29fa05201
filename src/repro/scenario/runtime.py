"""The substrate-agnostic Runtime protocol.

A :class:`Runtime` executes a :class:`~repro.scenario.spec.ScenarioSpec`:

- ``deploy(spec)``  — construct every service's voter/driver replicas on
  the substrate (and arm fault injections);
- ``run(until_s)``  — drive the scenario (simulated seconds on the
  simulator; a wall-clock cap elsewhere — every substrate stops early at
  quiescence);
- ``metrics()``     — substrate-independent observation: per-service
  protocol counters plus application probe output;
- ``shutdown()``    — release threads/processes (idempotent).

Four implementations ship: :class:`repro.scenario.sim.SimRuntime`
(deterministic discrete-event kernel), :class:`repro.scenario.threaded
.ThreadedRuntime` (one OS thread per node), :class:`repro.scenario
.process.ProcessRuntime` (one OS process per voter/driver pair,
fused-codec envelopes over pipes or localhost TCP sockets), and
:class:`repro.scenario.aio.AsyncioRuntime` (every node a task on one
asyncio event loop). ``run_scenario`` is the one-call entry point the
figure generators, the TPC-W harness, and the CLI all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.scenario.spec import ScenarioSpec

RUNTIME_NAMES = ("sim", "threaded", "process", "asyncio")


def live_indices(spec: ScenarioSpec, service: str) -> list[int]:
    """Replica indices of ``service`` that no crash fault took out."""
    crashed = {
        f.index for f in spec.all_faults()
        if f.kind == "crash" and f.service == service
    }
    return [i for i in range(spec.service(service).n) if i not in crashed]


def observer_index(spec: ScenarioSpec, service: str) -> int:
    """The replica whose driver reports a service's metrics.

    Replica 0 everywhere (the paper records at replica 0), unless a
    crash fault took it out — then the lowest live index observes, on
    every substrate identically.
    """
    live = live_indices(spec, service)
    return live[0] if live else 0


def view_lag(views) -> int:
    """Spread of the CLBFT views a group's live replicas are in."""
    views = list(views)
    return max(views) - min(views) if views else 0


@dataclass
class ServiceMetrics:
    """Per-service observation, identical in shape on every substrate."""

    n: int = 0
    completed_calls: int = 0
    aborted_calls: int = 0
    delivered_requests: int = 0
    requests_served: int = 0
    first_issue_us: int = 0
    last_completion_us: int = 0
    #: CLBFT view changes completed (max over the group's live replicas).
    view_changes: int = 0
    #: Highest minus lowest CLBFT view over the group's live replicas:
    #: 0 when healthy, > 0 while a replica has not rejoined its view.
    view_lag: int = 0
    #: Observer voter's reply-store size (bounded by checkpoint GC).
    reply_cache_size: int = 0
    #: Application probe output (workload counters, TPC-W stats, ...).
    app: dict = field(default_factory=dict)
    #: Home group in a sharded scenario (None on classic single-group
    #: runs, so unsharded metrics keep their exact pre-sharding shape).
    group: str | None = None


def replica_snapshot(voter, driver, adapter, app: dict) -> dict:
    """One replica's observable state, as plain data.

    The unit every substrate feeds :func:`service_metrics`: read off the
    live voter/driver/adapter objects in-process (:func:`live_snapshots`),
    or carried in a process worker's stats frame (which adds its own
    transport fields around these). ``app`` is the application probe's
    output as seen from this replica's process.
    """
    return {
        "in_flight": driver.in_flight_calls,
        "completed_calls": driver.completed_calls,
        "aborted_calls": driver.aborted_calls,
        "delivered_requests": voter.delivered_requests,
        "requests_served": adapter.requests_served,
        "first_issue_us": driver.first_issue_us or 0,
        "last_completion_us": driver.last_completion_us,
        "view_changes": voter.replica.view_changes_completed,
        "view": voter.replica.view,
        "reply_cache_size": voter.reply_cache_size,
        "app": app,
    }


def live_snapshots(spec: ScenarioSpec, name: str, group, adapters, probe) -> dict:
    """Snapshots of an in-process ``ServiceGroup``'s live replicas."""
    app = probe() if probe is not None else {}
    return {
        i: replica_snapshot(group.voters[i], group.drivers[i], adapters[i], app)
        for i in live_indices(spec, name)
    }


def service_metrics(
    spec: ScenarioSpec, router, name: str, snapshots: dict[int, dict]
) -> ServiceMetrics:
    """The one place a service's metrics are assembled, on every substrate.

    ``snapshots`` maps replica index to its :func:`replica_snapshot`,
    *live replicas only* (a crashed replica is left out in-process and
    is never spawned on the process substrate). The observer's snapshot
    supplies the per-replica fields — falling back to the lowest
    reporting replica if the observer has not reported yet — and the
    view fields aggregate over all of them.
    """
    group = spec.group_of(name) or (
        router.group_for_service(name) if router is not None else None
    )
    n = spec.service(name).n
    if not snapshots:
        return ServiceMetrics(n=n, group=group)
    data = snapshots.get(observer_index(spec, name))
    if data is None:
        data = snapshots[min(snapshots)]
    return ServiceMetrics(
        n=n,
        completed_calls=data["completed_calls"],
        aborted_calls=data["aborted_calls"],
        delivered_requests=data["delivered_requests"],
        requests_served=data["requests_served"],
        first_issue_us=data["first_issue_us"],
        last_completion_us=data["last_completion_us"],
        view_changes=max(s["view_changes"] for s in snapshots.values()),
        view_lag=view_lag(s["view"] for s in snapshots.values()),
        reply_cache_size=data["reply_cache_size"],
        app=dict(data["app"]),
        group=group,
    )


@dataclass
class ScenarioMetrics:
    """One scenario run's observation across all services."""

    scenario: str
    runtime: str
    services: dict[str, ServiceMetrics] = field(default_factory=dict)
    now_us: int = 0
    events_processed: int = 0
    #: OS processes hosting protocol nodes (1 for in-process substrates).
    processes: int = 1
    #: Delta of :data:`repro.common.metrics.METRICS` over this run
    #: (retransmissions, view_changes, faults_injected, cache_evictions,
    #: and the wire/kernel counters). Process runtimes sum their workers'
    #: snapshots.
    counters: dict = field(default_factory=dict)

    def total_completed(self) -> int:
        return sum(s.completed_calls for s in self.services.values())

    def total_aborted(self) -> int:
        return sum(s.aborted_calls for s in self.services.values())

    def by_group(self) -> dict[str | None, dict]:
        """Per-group aggregation, keyed by group name in first-seen
        (declaration) order; classic runs yield one ``None`` bucket."""
        out: dict[str | None, dict] = {}
        for name, svc in self.services.items():
            bucket = out.setdefault(
                svc.group,
                {"services": [], "completed_calls": 0, "aborted_calls": 0},
            )
            bucket["services"].append(name)
            bucket["completed_calls"] += svc.completed_calls
            bucket["aborted_calls"] += svc.aborted_calls
        return out


class Runtime:
    """Base class every scenario substrate implements."""

    name = "abstract"

    def deploy(self, spec: ScenarioSpec) -> "Runtime":
        raise NotImplementedError

    def run(self, until_s: float | None = None) -> None:
        raise NotImplementedError

    def metrics(self) -> ScenarioMetrics:
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def get_runtime(name: str) -> Runtime:
    """Construct a runtime by name: one of :data:`RUNTIME_NAMES`."""
    if name == "sim":
        from repro.scenario.sim import SimRuntime

        return SimRuntime()
    if name == "threaded":
        from repro.scenario.threaded import ThreadedRuntime

        return ThreadedRuntime()
    if name == "process":
        from repro.scenario.process import ProcessRuntime

        return ProcessRuntime()
    if name == "asyncio":
        from repro.scenario.aio import AsyncioRuntime

        return AsyncioRuntime()
    raise ConfigurationError(
        f"unknown runtime {name!r} (known: {', '.join(RUNTIME_NAMES)})"
    )


def run_scenario(
    spec: ScenarioSpec,
    runtime: str | Runtime = "sim",
    until_s: float | None = None,
) -> ScenarioMetrics:
    """Deploy, run, observe, and tear down one scenario on one substrate."""
    rt = get_runtime(runtime) if isinstance(runtime, str) else runtime
    rt.deploy(spec)
    try:
        rt.run(until_s)
        return rt.metrics()
    finally:
        rt.shutdown()
