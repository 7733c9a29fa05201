"""The traced run: where a request's cost goes, layer by layer.

Layers are the packages under ``src/repro``. Four sources feed the
per-layer metrics of one workload, none of which touches the program:

1. **Simulator passes** of the workload's shape with a fixed request
   count (fixed virtual time for ``tpcw_chain``; a faulted workload is
   traced without its fault — the simulator's view-change storm after a
   primary restart costs tens of seconds). One plain timed pass gives the
   exact operation counts from the ``METRICS`` delta in
   ``ScenarioMetrics.counters``; one pass under ``cProfile`` gives self
   time and calls per layer; one pass with a counting wrapper on
   ``SimConnection.transmit`` gives bytes on the wire. Traced over plain
   wall time is ``trace.overhead_ratio``.
2. **Direct timed calls** into public functions of the codec, crypto and
   transport layers, minimum of several batches, on a null-body and a
   16 KiB-body request message.
3. **A plain real-clock pass** (half the run length): CPU time by
   ``getrusage``, view changes and retransmissions where they can
   actually happen, and the longest stall / recovery ratio around the
   point where ``failover`` injects its fault.
4. **A real-clock pass under cProfile** (asyncio workloads only, a
   sixth of the run length) for the ``runtime`` package, which the
   simulator never enters. Not exact.

End-to-end metrics never come from any of these.
"""

from __future__ import annotations

import cProfile
import gc
import time
import timeit
from typing import Callable

from bench.estimator import longest_gap_s, recovery_ratio
from bench.measure import RealRun, Result, run_real
from bench.workloads import TRACE_VIRTUAL_S, Workload, timed_services
from repro.clbft.messages import decode_message, encode_message, message_to_wire
from repro.common.encoding import canonical_encode, decode_payload
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.digest import digest
from repro.crypto.keys import KeyStore
from repro.perpetual.messages import OutRequest
from repro.scenario import ScenarioMetrics, ScenarioSpec
from repro.scenario.sim import SimRuntime
from repro.soap.envelope import SoapEnvelope
from repro.transport.connection import SimConnection
from repro.transport.socket_frame import FrameDecoder, encode_frame
from repro.transport.wire import WireEnvelope, envelope_from_wire, envelope_to_wire

LAYERS = (
    "common", "crypto", "transport", "clbft", "perpetual", "ws", "soap",
    "apps", "tpcw", "sim", "runtime", "scenario", "faults", "sharding",
)

#: Virtual-time cap of a fixed-count simulator pass (it ends at
#: quiescence long before).
SIM_CAP_S = 600.0

_REPRO_MARKER = "/repro/"


def layer_of(filename: str) -> str | None:
    """The layer a profiled function's file belongs to, if any.

    The standard library's ``asyncio`` counts as ``runtime``: it is the
    scheduler the asyncio substrate's mailboxes and timers sit on, and
    otherwise its cost would land on whichever module called
    ``asyncio.run``.
    """
    path = filename.replace("\\", "/")
    _head, marker, tail = path.rpartition(_REPRO_MARKER)
    if marker:
        package = tail.split("/", 1)[0]
        return package if package in LAYERS else None
    return "runtime" if "/asyncio/" in path else None


def bucket_profile(stats: dict) -> dict[str, tuple[float, int]]:
    """``{layer: (self_seconds, calls)}`` from a ``pstats`` stats table.

    A function defined in a layer counts there. Self time of anything
    else — C builtins, the standard library, this benchmark's own
    forwarding generator — is charged to the layers that called it: each
    caller edge of the profiler's caller table carries the self time
    spent under that caller, and a caller that is itself outside every
    layer (``json`` and ``hmac`` internals) passes its share on to *its*
    callers in proportion to the cumulative time of their edges. What
    reaches no layer lands in ``"other"``. ``calls`` counts calls of the
    layer's own functions only, which is what repeats exactly.

    ``stats`` maps ``(file, line, name)`` to ``(primitive_calls, calls,
    self_s, cumulative_s, {caller: (calls, primitive_calls, self_s,
    cumulative_s)})``.
    """
    owners_memo: dict[tuple, dict[str, float]] = {}
    visiting: set[tuple] = set()

    def split(callers: dict, field: int) -> dict[tuple, float]:
        """Each caller's fraction by edge ``field``, or by edge call
        count where the clock saw nothing."""
        for index in (field, 0):
            total = sum(edge[index] for edge in callers.values())
            if total:
                return {c: edge[index] / total for c, edge in callers.items()}
        return {}

    def owners(func: tuple) -> dict[str, float]:
        """The layers answerable for time spent under ``func``."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        known = owners_memo.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        fractions = split(callers, 3)
        if func in visiting or not fractions:
            return {"other": 1.0}
        visiting.add(func)
        merged: dict[str, float] = {}
        for caller, fraction in fractions.items():
            for layer, part in owners(caller).items():
                merged[layer] = merged.get(layer, 0.0) + part * fraction
        visiting.discard(func)
        owners_memo[func] = merged
        return merged

    names = LAYERS + ("other",)
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for func, (_primitive, total_calls, own_s, _cumulative, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += own_s
            calls[layer] += total_calls
            continue
        fractions = split(callers, 2)
        if not fractions:
            self_s["other"] += own_s
        for caller, fraction in fractions.items():
            for owner, part in owners(caller).items():
                self_s[owner] += own_s * fraction * part
    return {layer: (self_s[layer], calls[layer]) for layer in names}


def _completed(metrics: ScenarioMetrics, spec: ScenarioSpec) -> int:
    return sum(
        len(metrics.services[name].app["samples"]) // 3
        for name in timed_services(spec)
    )


def _sim_pass(
    spec: ScenarioSpec, until_s: float, profile: cProfile.Profile | None = None
) -> tuple[ScenarioMetrics, float]:
    """One simulator run of ``spec``; returns its metrics and wall time."""
    runtime = SimRuntime()
    runtime.deploy(spec)
    # The profiler counts a generator's finalisation as a call of it, so
    # garbage of earlier runs collected under the profiler would leak
    # into this run's call counts: collect it now and hold the collector
    # off (for the plain pass too, so the two wall times compare).
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            runtime.run(until_s)
        finally:
            if profile is not None:
                profile.disable()
        wall_s = time.perf_counter() - started
        return runtime.metrics(), wall_s
    finally:
        gc.enable()
        runtime.shutdown()


def _sim_bytes(spec: ScenarioSpec, until_s: float) -> int:
    """Bytes handed to the simulated wire: the sum of ``size_bytes`` over
    every ``SimConnection.transmit`` of one pass."""
    original = SimConnection.transmit
    total = 0

    def counting(self, dst, envelope):
        nonlocal total
        total += envelope.size_bytes
        original(self, dst, envelope)

    SimConnection.transmit = counting
    try:
        _sim_pass(spec, until_s)
    finally:
        SimConnection.transmit = original
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(workload: Workload, seed: int) -> tuple[dict[str, float], set[str]]:
    """Source 1: exact counts, profiled layers, wire bytes, overhead.

    Returns the metrics and the names among them that are exact: the
    simulator is deterministic, so those repeat to the last digit.
    """
    if workload.trace_calls is None:
        spec, until_s = workload.build(seed, TRACE_VIRTUAL_S, None), TRACE_VIRTUAL_S
    else:
        spec = workload.build(seed, SIM_CAP_S, workload.trace_calls)
        until_s = SIM_CAP_S
    spec = spec.with_(faults=()).validate()

    plain, plain_s = _sim_pass(spec, until_s)
    requests = _completed(plain, spec)
    if requests == 0:
        raise RuntimeError(f"{workload.name}: the traced run completed no call")
    profile = cProfile.Profile()
    traced, traced_s = _sim_pass(spec, until_s, profile)
    if _completed(traced, spec) != requests:
        raise RuntimeError(f"{workload.name}: the simulator did not repeat itself")
    wire_bytes = _sim_bytes(spec, until_s)

    counters = plain.counters
    encodes = counters["encode_calls"]
    exact = {
        "common.encodes_per_req": encodes / requests,
        "common.encode_cache_hit_ratio": _ratio(
            counters["encode_cache_hits"], encodes + counters["encode_cache_hits"]
        ),
        "crypto.digests_per_req": counters["digest_calls"] / requests,
        "crypto.macs_per_req": counters["mac_computations"] / requests,
        "crypto.mac_verifies_per_req": counters["mac_verifications"] / requests,
        "transport.envelopes_per_req": counters["envelopes_sent"] / requests,
        "transport.multicasts_per_req": counters["multicasts"] / requests,
        "transport.msgs_per_batch": _ratio(
            counters["batch_messages"], counters["batches_sent"]
        ),
        "transport.bytes_per_req": wire_bytes / requests,
        "sim.events_per_req": plain.events_processed / requests,
        "perpetual.cache_evictions_per_req": counters["cache_evictions"] / requests,
    }
    timed = {"trace.overhead_ratio": traced_s / plain_s}
    profile.create_stats()
    for layer, (self_s, calls) in bucket_profile(profile.stats).items():
        if layer != "other":
            timed[f"{layer}.self_ms_per_req"] = self_s * 1e3 / requests
            exact[f"{layer}.calls_per_req"] = calls / requests
    return {**exact, **timed}, set(exact)


# ---------------------------------------------------------------------------
# Source 2: direct timed calls
# ---------------------------------------------------------------------------


def best_us(call: Callable[[], object], batches: int = 9, batch_s: float = 2e-3) -> float:
    """Minimum per-call time of ``call`` in microseconds over several
    batches sized to last about ``batch_s`` each."""
    once = max(timeit.timeit(call, number=1), 1e-7)
    per_batch = max(1, int(batch_s / once))
    return min(timeit.repeat(call, number=per_batch, repeat=batches)) / per_batch * 1e6


def _request_message(body_bytes: int) -> OutRequest:
    """A stage-1 request as the WS layer builds it: a SOAP envelope,
    marshalled, inside an ``OutRequest``."""
    envelope = SoapEnvelope(
        headers={"wsa:To": "target", "wsa:MessageID": "urn:bench:1"},
        body={"blob": "x" * body_bytes} if body_bytes else {},
    )
    return OutRequest(
        request_id=RequestId(ServiceId("caller"), 1),
        caller=ServiceId("caller"),
        target=ServiceId("target"),
        payload=envelope.to_xml(),
        responder_index=0,
    )


def direct_metrics() -> dict[str, float]:
    """Per-call microseconds of the stateless layer entry points."""
    receivers = [f"target/v{i}" for i in range(4)]
    keys = KeyStore.for_deployment("bench-direct")
    sender = AuthenticatorFactory(keys, "caller/d0")
    receiver = AuthenticatorFactory(keys, receivers[0])
    out: dict[str, float] = {}
    for size_name, body_bytes in (("null", 0), ("16k", 16 * 1024)):
        message = _request_message(body_bytes)
        plain = message_to_wire(message)
        encoded = canonical_encode(plain)
        fused = encode_message(message)
        auth = sender.sign(fused, receivers)
        envelope = WireEnvelope(payload=fused, auth=auth)
        wire = envelope_to_wire(envelope)
        hop = canonical_encode(wire)
        frame = encode_frame(hop)

        def frame_roundtrip():
            return FrameDecoder().feed(encode_frame(hop))

        def hop_codec():
            # What one process hop pays: see scenario.process._net_frame
            # on the way out and the worker's decode on the way in.
            data = canonical_encode(envelope_to_wire(envelope))
            return envelope_from_wire(decode_payload(data))

        timed = {
            "common.encode_us": lambda: canonical_encode(plain),
            "common.decode_us": lambda: decode_payload(encoded),
            "clbft.encode_message_us": lambda: encode_message(message),
            "clbft.decode_message_us": lambda: decode_message(fused),
            "crypto.digest_us": lambda: digest(fused),
            "crypto.sign_us": lambda: sender.sign(fused, receivers),
            "crypto.verify_us": lambda: receiver.verify(fused, auth),
            "transport.envelope_to_wire_us": lambda: envelope_to_wire(envelope),
            "transport.envelope_from_wire_us": lambda: envelope_from_wire(wire),
            "transport.frame_roundtrip_us": frame_roundtrip,
            "transport.hop_codec_us": hop_codec,
        }
        if FrameDecoder().feed(frame) != [hop] or not receiver.verify(fused, auth):
            raise RuntimeError("direct-call fixtures do not round-trip")
        for name, call in timed.items():
            out[f"{name}.{size_name}"] = best_us(call)
    return out


# ---------------------------------------------------------------------------
# Sources 3 and 4: real-clock passes
# ---------------------------------------------------------------------------


def real_metrics(run: RealRun) -> dict[str, float]:
    """Source 3, from a plain real-clock run."""
    completed = len(run.samples)
    cpu_s = run.cpu_self_s + run.cpu_children_s
    counters = run.metrics.counters
    return {
        "scenario.cpu_ms_per_req": cpu_s * 1e3 / completed,
        "scenario.parent_cpu_share": run.cpu_self_s / cpu_s,
        "scenario.worker_count": run.metrics.processes,
        "clbft.view_changes": max(
            [s.view_changes for s in run.metrics.services.values()]
        ),
        "perpetual.retransmissions_per_req": counters["retransmissions"] / completed,
        "faults.outage_s": longest_gap_s(run.samples, run.fault_ns, run.end_ns),
        "faults.recovery_ratio": recovery_ratio(
            run.samples, run.start_ns, run.fault_ns, run.end_ns
        ),
    }


def trace(workload: Workload, seed: int, seconds: float) -> Result:
    """Every per-layer metric of ``workload`` from the four sources."""
    metrics, exact = sim_metrics(workload, seed)
    metrics.update(direct_metrics())
    runs = [run_real(workload, seed, seconds / 2)]
    if runs[0].samples:
        metrics.update(real_metrics(runs[0]))
    if workload.substrate == "asyncio":
        profile = cProfile.Profile()
        profiled = run_real(
            workload, seed, seconds / 6, profile=profile, fault_free=True
        )
        runs.append(profiled)
        if profiled.samples:
            profile.create_stats()
            self_s, calls = bucket_profile(profile.stats)["runtime"]
            metrics["runtime.self_ms_per_req"] = self_s * 1e3 / len(profiled.samples)
            metrics["runtime.calls_per_req"] = calls / len(profiled.samples)
            exact.discard("runtime.calls_per_req")
    return Result(
        metrics=metrics,
        attempted=sum(run.attempted for run in runs),
        failed=sum(run.failed for run in runs),
        problems=[problem for run in runs for problem in run.problems],
        exact=exact,
    )
