"""The five workloads, as :class:`~repro.scenario.ScenarioSpec` builders.

Each workload is a closed loop: the scenario's own caller service keeps a
fixed number of calls outstanding and issues the next only when one
completes, so a slower system receives less load. All load is generated
inside the one benchmark process (and, for ``payload_proc``, its forked
workers).

Every builder takes the run's ``seed`` (it feeds ``ScenarioSpec.seed``,
the request payload bytes, and the TPC-W browsers' page choices), the
wall-clock ``duration_s``, and ``total_calls`` — ``None`` for the
open-ended real-clock runs, a fixed count for the traced simulator runs
whose operation counts must repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

import bench.timed  # noqa: F401  (registers the bench_timed app kind)
from repro.scenario import AppSpec, FaultSpec, ScenarioBuilder, ScenarioSpec
from repro.scenario.presets import tpcw_scenario, two_tier_scenario

#: "Never finishes" for a closed loop that is stopped by the clock.
UNBOUNDED_CALLS = 10**9

#: Replicas per group on the replicated tiers (f = 1).
N = 4

#: Body size of ``payload_proc`` requests.
PAYLOAD_BYTES = 16 * 1024

#: TPC-W browsers in ``tpcw_chain``.
RBE_COUNT = 4

#: Four customers exhaust the default 5,000.00 card limit within
#: seconds at zero think time, after which every payment is declined and
#: the approve/decline mix — and the work per order — shifts mid-run. A
#: limit no run can reach keeps the workload stationary.
CARD_LIMIT_CENTS = 10**15

#: When the ``failover`` fault fires and heals, as fractions of the run.
FAULT_DOWN_AT = 0.3
FAULT_UP_AT = 0.5


#: The stock applications that issue calls; each gets the stopwatch.
_CALLER_KINDS = ("sync_caller", "async_caller", "rbe")


def _with_stopwatch(
    spec: ScenarioSpec, check: str | None = None, body: dict | None = None
) -> ScenarioSpec:
    """``spec`` with every caller application wrapped in ``bench_timed``
    (and, if given, ``body`` as the callers' request body)."""
    services = []
    for decl in spec.services:
        if decl.app.kind in _CALLER_KINDS:
            inner_params = dict(decl.app.params)
            if body is not None:
                inner_params["body"] = body
            params = {"inner": decl.app.kind, "inner_params": inner_params}
            if check is not None:
                params["check"] = check
            decl = replace(
                decl, app=AppSpec(kind=bench.timed.APP_KIND, params=params)
            )
        services.append(decl)
    return spec.with_(services=tuple(services)).validate()


def _calls(total_calls: int | None) -> int:
    return UNBOUNDED_CALLS if total_calls is None else total_calls


def _echo_pair(
    name: str,
    seed: int,
    duration_s: float,
    total_calls: int | None,
    window: int,
    batching: str,
) -> ScenarioSpec:
    """caller n=4 -> target n=4 ``counter``: the section 6.2 pair."""
    spec = two_tier_scenario(
        N, N, total_calls=_calls(total_calls), window=window,
        duration_s=duration_s, batching=batching, name=name,
    )
    return _with_stopwatch(
        spec.with_(seed=seed),
        check="counter_unordered" if window > 1 else "counter",
        body={"nonce": random.Random(seed).randbytes(8).hex()},
    )


def echo_sync(seed: int, duration_s: float, total_calls: int | None) -> ScenarioSpec:
    return _echo_pair(
        "bench-echo-sync", seed, duration_s, total_calls, window=1, batching="off"
    )


def echo_window(seed: int, duration_s: float, total_calls: int | None) -> ScenarioSpec:
    return _echo_pair(
        "bench-echo-window", seed, duration_s, total_calls, window=10,
        batching="tick",
    )


def failover(seed: int, duration_s: float, total_calls: int | None) -> ScenarioSpec:
    """``echo_sync`` whose target primary (replica 0 leads view 0) goes
    down at 30% of the run and comes back at 50%."""
    spec = _echo_pair(
        "bench-failover", seed, duration_s, total_calls, window=1, batching="off"
    )
    restart = FaultSpec(
        kind="restart", service="target", index=0,
        params={
            "down_after_us": int(duration_s * FAULT_DOWN_AT * 1e6),
            "up_after_us": int(duration_s * FAULT_UP_AT * 1e6),
        },
    )
    return spec.with_(faults=(restart,)).validate()


def tpcw_chain(seed: int, duration_s: float, total_calls: int | None) -> ScenarioSpec:
    """The paper's Figure 5 chain at zero think time, each browser timed.

    ``total_calls`` is unused: the browsers never finish, so the traced
    simulator run is bounded by virtual time instead.
    """
    spec = tpcw_scenario(
        rbe_count=RBE_COUNT, n_pge=N, n_bank=N, duration_s=duration_s,
        think_time_mean_us=0, seed=seed, name="bench-tpcw-chain",
    )
    bank = AppSpec(kind="bank", params={"card_limit_cents": CARD_LIMIT_CENTS})
    services = tuple(
        replace(decl, app=bank) if decl.app.kind == "bank" else decl
        for decl in spec.services
    )
    return _with_stopwatch(spec.with_(services=services))


def payload_proc(seed: int, duration_s: float, total_calls: int | None) -> ScenarioSpec:
    """caller n=1 -> target n=4 ``echo`` with 16 KiB bodies, window 4."""
    blob = random.Random(seed).randbytes(PAYLOAD_BYTES // 2).hex()
    spec = (
        ScenarioBuilder("bench-payload-proc")
        .seed(seed)
        .duration(duration_s)
        .batching("off")
        .service("target", n=N, app="echo")
        .service(
            "caller", n=1, app="async_caller", target="target",
            total_calls=_calls(total_calls), window=4, body={"blob": blob},
        )
        .build()
    )
    return _with_stopwatch(spec, check="echo")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float, int | None], ScenarioSpec]
    #: Real-clock substrate: ``"asyncio"`` or ``"process"``.
    substrate: str
    #: Calls in the traced simulator run; ``None`` (the browsers never
    #: finish) bounds it by ``TRACE_VIRTUAL_S`` of virtual time instead.
    trace_calls: int | None = 200


#: Virtual seconds of the traced ``tpcw_chain`` run (about 270
#: interactions: the n=1 bookstore's modelled CPU is the bottleneck).
TRACE_VIRTUAL_S = 3.0

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("echo_sync", echo_sync, "asyncio"),
        Workload("echo_window", echo_window, "asyncio"),
        Workload("tpcw_chain", tpcw_chain, "asyncio", trace_calls=None),
        Workload("payload_proc", payload_proc, "process"),
        Workload("failover", failover, "asyncio"),
    )
}


def timed_services(spec: ScenarioSpec) -> list[str]:
    """The services whose observer replica carries the stopwatch."""
    return [
        decl.name for decl in spec.all_services()
        if decl.app.kind == bench.timed.APP_KIND
    ]
