"""One real-clock run of a workload, its output checks, and the
end-to-end metrics taken from it.

Everything is measured from outside the program: wall-clock stamps
around ``Runtime.deploy`` / ``Runtime.run``, the completion samples the
``bench_timed`` caller hands back through its probe, ``getrusage``, and
the substrate-independent :class:`~repro.scenario.ScenarioMetrics`.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field

from bench.estimator import (
    FLAG_FAULT,
    FLAG_ORDER,
    FLAG_WRONG,
    NS_PER_S,
    Sample,
    decode_samples,
    longest_gap_s,
    percentile,
    quiet_window,
    recovery_ratio,
    span_window,
)
from bench.workloads import (
    CARD_LIMIT_CENTS,
    FAULT_DOWN_AT,
    RBE_COUNT,
    Workload,
    timed_services,
)
from repro.scenario import Runtime, ScenarioMetrics, ScenarioSpec
from repro.scenario.aio import AsyncioRuntime
from repro.scenario.process import ProcessRuntime

#: Length of a set-up repetition: several times every workload's first
#: call (5-60 ms here), so a slow stretch of the host still sees one.
SETUP_RUN_S = 0.3
#: Set-ups per run besides the measured run's own; ``setup_s`` is the
#: median of all of them. Process set-ups fork five workers each.
SETUP_REPEATS = {"asyncio": 10, "process": 6}


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _make_runtime(substrate: str, poll_interval_s: float) -> Runtime:
    if substrate == "asyncio":
        return AsyncioRuntime()
    if substrate != "process":
        raise ValueError(f"no real-clock substrate named {substrate!r}")
    # The bench_timed app kind exists only in this process's registry; a
    # worker knows it because fork copies the registry, and only then.
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError(
            "payload_proc needs the 'fork' multiprocessing start method, "
            f"not {multiprocessing.get_start_method()!r}"
        )
    # A long poll interval keeps the stats frames (which carry every
    # sample so far) off the measured path.
    return ProcessRuntime(poll_interval_s=poll_interval_s, transport="pipe")


@dataclass
class RealRun:
    """What one real-clock run left behind."""

    spec: ScenarioSpec
    start_ns: int
    end_ns: int
    deploy_s: float
    samples: list[Sample]
    metrics: ScenarioMetrics
    cpu_self_s: float
    cpu_children_s: float
    #: Output-check violations other than per-call failures.
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """``deploy()`` plus the time to the first completed call."""
        return self.deploy_s + (self.samples[0].done_ns - self.start_ns) / NS_PER_S

    @property
    def aborted(self) -> int:
        return self.metrics.total_aborted()

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.aborted

    @property
    def failed(self) -> int:
        bad = sum(1 for s in self.samples if s.flags & (FLAG_FAULT | FLAG_WRONG))
        return bad + self.aborted

    @property
    def faulted(self) -> bool:
        return bool(self.spec.all_faults())

    @property
    def fault_ns(self) -> int:
        """When the ``failover`` fault fires (also the point the
        fault-free workloads' stall metrics are taken from)."""
        return self.start_ns + int((self.end_ns - self.start_ns) * FAULT_DOWN_AT)


def run_real(
    workload: Workload,
    seed: int,
    seconds: float,
    profile: cProfile.Profile | None = None,
    poll_interval_s: float = 1.0,
    fault_free: bool = False,
) -> RealRun:
    """Deploy, run for ``seconds`` of wall clock, observe, tear down.

    ``fault_free`` strips the workload's fault injections (the profiled
    passes of the traced run attribute the fault-free path).
    """
    spec = workload.build(seed, seconds, None)
    if fault_free:
        spec = spec.with_(faults=()).validate()
    runtime = _make_runtime(workload.substrate, poll_interval_s)
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    deploy_from = time.perf_counter_ns()
    try:
        runtime.deploy(spec)
        start_ns = time.perf_counter_ns()
        if profile is not None:
            profile.enable()
        try:
            # Always the explicit cap: a closed loop that never finishes
            # must not be waited on for quiescence.
            runtime.run(seconds)
        finally:
            if profile is not None:
                profile.disable()
        metrics = runtime.metrics()
        if workload.substrate == "process":
            errors = [
                f"{key}: {text}"
                for key, texts in runtime.worker_errors().items()
                for text in texts
            ]
        else:
            errors = [repr(exc) for exc in runtime.errors()]
    finally:
        # Joins the workers, so their CPU time lands in RUSAGE_CHILDREN
        # and none outlives a failed run.
        runtime.shutdown()
    samples: list[Sample] = []
    for name in timed_services(spec):
        samples += decode_samples(metrics.services[name].app["samples"])
    samples.sort()
    run = RealRun(
        spec=spec,
        start_ns=start_ns,
        end_ns=start_ns + int(seconds * NS_PER_S),
        deploy_s=(start_ns - deploy_from) / NS_PER_S,
        samples=samples,
        metrics=metrics,
        cpu_self_s=_cpu_seconds(resource.RUSAGE_SELF) - cpu_self,
        cpu_children_s=_cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children,
        problems=[f"handler error: {text}" for text in errors],
    )
    _check_outputs(run)
    return run


def _check_outputs(run: RealRun) -> None:
    """Whole-run invariants; per-call checks are already in the flags."""
    problems = run.problems
    metrics = run.metrics
    if not run.samples:
        problems.append("no call completed")
    view_changes = max(
        [s.view_changes for s in metrics.services.values()]
        + [metrics.counters.get("view_changes", 0)]
    )
    if run.faulted and view_changes == 0:
        problems.append("the fault never forced a view change")
    if not run.faulted and view_changes:
        problems.append(f"{view_changes} view change(s) on a fault-free workload")
    bookstore = metrics.services.get("bookstore")
    if bookstore is not None:
        store = bookstore.app
        settled = store["approved"] + store["declined"]
        # Calls in flight when the clock stopped: at most one per browser.
        if not 0 <= store["pge_calls"] - settled <= RBE_COUNT:
            problems.append(
                f"bookstore settled {settled} of {store['pge_calls']} payments"
            )
        if not 0 <= store["interactions"] - len(run.samples) <= RBE_COUNT:
            problems.append(
                f"browsers completed {len(run.samples)} of the bookstore's "
                f"{store['interactions']} interactions"
            )
        if store["declined"]:
            problems.append(
                f"{store['declined']} payment(s) declined under a card limit "
                f"of {CARD_LIMIT_CENTS} cents"
            )


@dataclass
class Result:
    """The metrics of one end-to-end or traced run of a workload."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Output-check violations other than per-call failures.
    problems: list[str]
    #: Printed beside the metrics, not part of the result line.
    info: dict[str, float] = field(default_factory=dict)
    #: Names of metrics that repeat exactly from run to run.
    exact: set[str] = field(default_factory=set)


def measure(workload: Workload, seed: int, seconds: float) -> Result:
    """Set up several times, run once for ``seconds``, and summarise."""
    runs = [
        run_real(workload, seed, SETUP_RUN_S, poll_interval_s=0.1)
        for _ in range(SETUP_REPEATS[workload.substrate])
    ]
    runs.append(run_real(workload, seed, seconds))
    # A set-up that saw no call finish has no set-up time; if none did,
    # the measured run reports the failure.
    setups = [run.setup_s for run in runs if run.samples]
    return summarise(runs[-1], statistics.median(setups) if setups else 0.0)


def summarise(run: RealRun, setup_s: float) -> Result:
    """The gated metrics over the run's window: from the fault on for a
    faulted run, the quiet window otherwise."""
    if run.faulted:
        window = span_window(run.samples, run.fault_ns, run.end_ns)
    else:
        window = quiet_window(run.samples, run.start_ns, run.end_ns)
    problems = list(run.problems)
    if not window.samples:
        problems.append("no call completed inside the measured window")
        return Result({}, run.attempted, run.failed, problems)
    whole = span_window(run.samples, run.start_ns, run.end_ns)
    latencies = sorted(s.latency_ns for s in run.samples)
    metrics = {
        "throughput_rps": window.throughput_rps,
        "latency_p50_ms": window.latency_ms(0.5),
        "latency_p90_ms": window.latency_ms(0.9),
        "order_latency_p50_ms": window.latency_ms(0.5, FLAG_ORDER),
        "setup_s": setup_s,
    }
    info = {
        "window_seconds": window.seconds,
        "window_samples": len(window.samples),
        "window_order_samples": window.count(FLAG_ORDER),
        "whole_run_throughput_rps": whole.throughput_rps,
        "whole_run_latency_p50_ms": percentile(latencies, 0.5) / 1e6,
        "whole_run_latency_p99_ms": percentile(latencies, 0.99) / 1e6,
        "deploy_s": run.deploy_s,
        "aborted_calls": run.aborted,
        "retransmissions": run.metrics.counters.get("retransmissions", 0),
    }
    if run.faulted:
        info["outage_s"] = longest_gap_s(run.samples, run.fault_ns, run.end_ns)
        info["recovery_ratio"] = recovery_ratio(
            run.samples, run.start_ns, run.fault_ns, run.end_ns
        )
    else:
        # Above 1 by construction; how far above says how much the host
        # slowed the rest of the run.
        info["quiet_over_whole_run"] = window.throughput_rps / whole.throughput_rps
    if "bookstore" in run.metrics.services:
        info["card_limit_cents"] = CARD_LIMIT_CENTS
    return Result(metrics, run.attempted, run.failed, problems, info=info)
