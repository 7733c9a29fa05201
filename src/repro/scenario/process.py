"""The multi-process substrate: one OS process per voter/driver pair.

``ProcessRuntime`` places each replica's co-located voter/driver pair in
its own ``multiprocessing`` process, exactly the paper's placement of
both halves on one machine. Everything that crosses a process boundary
is a :class:`~repro.transport.wire.WireEnvelope` in its binary form,
around payloads of the one canonical codec, so protocol code runs
unchanged; local voter<->driver traffic stays inside the worker.

Wiring:

- the parent owns one duplex pipe per worker and runs two threads: a
  *router* that drains every worker's outbound frames (so worker sends
  never block) and an *egress* writer that owns all pipe writes (so a
  slow worker can stall only the egress queue, never the router — the
  classic pipe-buffer deadlock cannot form);
- a protocol frame forwards the sender's bytes: a NUL-separated routing
  header, then the envelope in the binary form of
  :func:`repro.transport.wire.envelope_to_bytes` — payload and MAC tags
  raw, nothing re-serialised on either hop::

      b"net" 00 | src (UTF-8) 00 | dst (UTF-8) 00 | envelope
      envelope = b"e" | u32 len | payload | auth       (batches: b"b" ...;
                 the full grammar is in ``transport/wire.py``)

  The router reads only the header (two NUL searches) and forwards the
  whole frame opaquely, so routing cost is O(header); the receiving
  worker parses the envelope strictly and verifies its own MAC entry
  over the payload digest as on every substrate. Control frames
  (``ready`` / ``go`` / ``poll`` / ``stats`` / ``stop`` / ``bye``) are
  small canonical-codec tuples;
- a frame that does not parse (short header, unknown kind byte, a
  length overrunning the frame, trailing bytes, an undecodable name) is
  dropped and recorded — the worker in the ``errors`` list of its stats
  frames, the router against the sending worker — so
  :meth:`ProcessRuntime.worker_errors` names it while the worker loop
  and the router keep serving: one Byzantine peer cannot crash a
  correct replica;
- each worker zeroes the fork-inherited METRICS before touching any
  frame (see :func:`_worker_main`);
- ``crash`` faults are expressed by never spawning the replica's worker:
  a crashed machine never speaks; ``byzantine``, ``delay``,
  ``partition``, and ``restart`` faults travel inside the spec JSON and
  are rebuilt into :class:`repro.faults.FaultInjector` hooks by each
  worker's bootstrap. ``link`` faults parameterise the modelled network
  and are rejected (simulator-only).

``run`` stops at exact quiescence — two consecutive poll waves with the
same counts in which every worker answered idle and every ``net`` frame
count balances (:func:`closed_wave`; Mattern's four-counter method) — or
when the wall-clock budget elapses. ``metrics`` performs one fresh poll
so the numbers are current even after ``run`` returned early.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait as connection_wait

from repro.common.encoding import canonical_encode, decode_payload
from repro.common.errors import ConfigurationError, ProtocolError
from repro.faults import require_supported_kinds
from repro.runtime.host import MSG, START, TIMER, NodeHost
from repro.scenario.runtime import (
    Runtime,
    ScenarioMetrics,
    replica_snapshot,
    service_metrics,
)
from repro.scenario.spec import ScenarioSpec
from repro.transport.wire import (
    BatchEnvelope,
    WireEnvelope,
    envelope_from_bytes,
    envelope_to_bytes,
)

#: How long deploy() waits for every worker's ready frame.
READY_TIMEOUT_S = 30.0
#: Counter-poll cadence during run().
POLL_INTERVAL_S = 0.15


def _frame(*parts) -> bytes:
    """A control frame: a small canonical-codec tuple."""
    return canonical_encode(parts)


_NET = b"net\x00"

#: Error-list key for inbound frames that did not parse: no node owns them.
_BAD_FRAME = "<frame>"


def _net_frame(src: str, dst: str, envelope) -> bytes:
    """A protocol frame: routing header + the envelope's binary form."""
    return b"".join(
        (
            _NET,
            src.encode("utf-8"), b"\x00",
            dst.encode("utf-8"), b"\x00",
            envelope_to_bytes(envelope),
        )
    )


def _net_header(data: bytes) -> tuple[str, str, int]:
    """``(src, dst, offset of the envelope)`` of a protocol frame.

    Two NUL searches, never a look at the body. The frame comes from
    another process, so a short header or an undecodable name raises
    :class:`ProtocolError` instead of whatever the unpacking would.
    """
    src_end = data.find(b"\x00", len(_NET))
    dst_end = data.find(b"\x00", src_end + 1)
    if src_end < 0 or dst_end < 0:
        raise ProtocolError(
            f"protocol frame of {len(data)} bytes has a short header"
        )
    try:
        src = data[len(_NET):src_end].decode("utf-8")
        dst = data[src_end + 1:dst_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"undecodable principal in frame header: {exc}"
        ) from exc
    return src, dst, dst_end + 1


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _WorkerHost(NodeHost):
    """One worker process: a voter/driver pair on the process scheduler.

    The mailbox is one ``deque`` of ``(src, dst, msg)`` for both nodes;
    what blocks is ``conn.poll`` — until the next frame arrives or the
    timer heap's next deadline, whichever is sooner. One drain of the
    shared mailbox is the events queued when it began plus the timers
    then due; both nodes' tick batching flushes at its end.
    """

    def __init__(self, conn: Connection) -> None:
        super().__init__()
        self.conn = conn
        self.local: deque[tuple[str, str, object]] = deque()
        #: ``net`` frames written to the parent / taken in from it: this
        #: worker's half of the four counters :func:`closed_wave` balances.
        self.frames_sent = 0
        self.frames_received = 0

    def post(self, src: str, dst: str, msg) -> None:
        if dst in self.nodes:
            self.local.append((src, dst, msg))
            self.unprocessed += 1
            return
        if not isinstance(msg, (WireEnvelope, BatchEnvelope)):
            raise ConfigurationError(
                f"only wire envelopes may cross process boundaries, "
                f"got {type(msg).__name__} for {dst!r}"
            )
        self.conn.send_bytes(_net_frame(src, dst, msg))
        self.frames_sent += 1

    def _deliver_local(self) -> None:
        """Drain the mailbox, and what the drains post to it, until empty."""
        local = self.local
        while True:
            count = len(local)
            for _ in range(count):
                src, dst, msg = local.popleft()
                if dst in self.nodes:
                    self.step(dst, MSG, src, msg)
            due = self.due_timers()
            for key, tag in due:
                self.step(key, TIMER, None, tag)
            if count or due:
                for key in self.nodes:
                    self.end_drain(key)
            self.unprocessed -= count
            if not local:
                return

    def loop(self, stats) -> None:
        """Serve frames and timers until the parent says stop."""
        while True:
            self._deliver_local()
            if self.local:
                timeout = 0.0
            else:
                deadline = self.timers.next_deadline()
                timeout = 0.05 if deadline is None else min(
                    self.until(deadline), 0.05
                )
            if not self.conn.poll(timeout):
                continue
            # Drain every pending frame before handling, so inbound pipe
            # pressure is released promptly.
            frames = []
            try:
                while True:
                    frames.append(self.conn.recv_bytes())
                    if not self.conn.poll(0):
                        break
            except (EOFError, OSError):
                return
            for data in frames:
                if data.startswith(_NET):
                    # Counted as it leaves the pipe: from here the frame
                    # is in ``local`` (not idle) or handled.
                    self.frames_received += 1
                    # The bytes are another principal's: a frame that
                    # does not parse is dropped and reported, never raised.
                    try:
                        src, dst, offset = _net_header(data)
                        envelope, _ = envelope_from_bytes(data, offset)
                    except ProtocolError as exc:
                        self._errors.setdefault(_BAD_FRAME, []).append(exc)
                        continue
                    self.local.append((src, dst, envelope))
                    self.unprocessed += 1
                    continue
                frame = decode_payload(data)
                kind = frame[0]
                if kind == "go":
                    self.restart_clock()
                    for key in self.nodes:
                        self.step(key, START, None, None)
                    for key in self.nodes:
                        self.end_drain(key)
                    self.unprocessed -= len(self.nodes)
                elif kind == "poll":
                    self.conn.send_bytes(_frame("stats", stats()))
                elif kind == "stop":
                    self.conn.send_bytes(_frame("stats", stats()))
                    self.conn.send_bytes(_frame("bye"))
                    return
            self._deliver_local()


def _worker_main(spec_json: str, service: str, index: int, conn: Connection) -> None:
    """Bootstrap one voter/driver pair and serve its event loop.

    The fork-inherited METRICS are zeroed first, so this worker's stats
    frames report only its own activity. No other state needs resetting:
    derived values (decodes, digests, match keys) live on the message
    objects they are derived from, so nothing inherited over ``fork``
    can answer for a message this worker decodes.
    """
    from repro.common.metrics import METRICS

    METRICS.reset()

    from repro.crypto.keys import KeyStore
    from repro.faults import FaultPlan
    from repro.perpetual.group import Topology, build_replica
    from repro.perpetual.voter import driver_name, voter_name
    from repro.scenario.apps import build_app, scenario_cost_model
    from repro.ws.adapter import WsAdapter, collecting_executor_factory

    spec = ScenarioSpec.from_json(spec_json)
    decl = spec.service(service)
    topology = Topology()
    for s in spec.services:
        topology.add(s.name, s.n)
    keys = KeyStore.for_deployment(spec.name)
    built = build_app(decl.app)

    # The fault script rides inside the spec JSON: rebuild the plan here
    # so the adversary layer is identical to the in-process substrates.
    fault_plan = FaultPlan.from_spec(spec)

    host = _WorkerHost(conn)
    adapters: list[WsAdapter] = []
    voter, driver = build_replica(
        topology=topology,
        service=service,
        index=index,
        keys=keys,
        app_factory=collecting_executor_factory(service, built.factory, adapters),
        cost_model=scenario_cost_model(spec, decl),
        clbft_overrides=decl.clbft,
        fault_script=fault_plan.script_for(service, index),
        batching=spec.batching,
    )
    voter.attach(host.add_node(voter_name(service, index), voter))
    driver.attach(host.add_node(driver_name(service, index), driver))

    def stats() -> dict:
        return {
            "idle": host.idle() and not host.local,
            "frames_sent": host.frames_sent,
            "frames_received": host.frames_received,
            "counters": METRICS.snapshot(),
            "errors": [repr(exc) for exc in host.errors()],
            **replica_snapshot(
                voter, driver, adapters[0],
                built.probe() if built.probe is not None else {},
            ),
        }

    conn.send_bytes(_frame("ready"))
    try:
        host.loop(stats)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def closed_wave(workers, answers, read, written, dropped):
    """The counts of a closed poll wave, or ``None`` while it is open.

    It closes when every one of ``workers`` answered the wave's poll
    (``answers``), idle with no out-call in flight, and no ``net`` frame
    is in a pipe from a worker (``frames_sent`` equals ``read``), in a
    pipe to one (``written`` equals ``frames_received``) or queued in the
    parent (every frame read was written or ``dropped``).
    """
    counts = []
    for key in sorted(workers):
        stats = answers.get(key)
        if stats is None or not stats["idle"] or stats["in_flight"]:
            return None
        sent, received = stats["frames_sent"], stats["frames_received"]
        if sent != read.get(key, 0) or written.get(key, 0) != received:
            return None
        counts.append((key, sent, received))
    if sum(read.values()) != sum(written.values()) + dropped:
        return None
    return tuple(counts), dropped


class ProcessRuntime(Runtime):
    """Executes scenarios across real OS processes."""

    name = "process"

    def __init__(
        self,
        poll_interval_s: float = POLL_INTERVAL_S,
        transport: str = "pipe",
    ) -> None:
        # Workers speak to the parent over duplex pipes only; the keyword
        # stays for callers that still name that transport.
        if transport != "pipe":
            raise ConfigurationError(
                f"unknown transport {transport!r} (the process substrate "
                "runs over pipes only)"
            )
        self._poll_interval_s = poll_interval_s
        self._spec: ScenarioSpec | None = None
        self._procs: dict[tuple[str, int], multiprocessing.Process] = {}
        self._conns: dict[tuple[str, int], Connection] = {}
        self._alive: dict[Connection, tuple[str, int]] = {}
        self._stats: dict[tuple[str, int], dict] = {}
        self._stats_seq: dict[tuple[str, int], int] = {}
        #: Frames the router could not parse, by the worker that sent them.
        self._frame_errors: dict[tuple[str, int], list[str]] = {}
        #: The parent's counters for :func:`closed_wave`: ``net`` frames
        #: read from / written to each worker, and frames read but
        #: dropped (no live destination, an unparsable header, a failed
        #: write).
        self._read: dict[tuple[str, int], int] = {}
        self._written: dict[tuple[str, int], int] = {}
        self._dropped = 0
        self._byes: set[tuple[str, int]] = set()
        self._ready: set[tuple[str, int]] = set()
        self._lock = threading.Lock()
        self._egress: "queue.Queue" = queue.Queue()
        self._stopping = threading.Event()
        self._router_thread: threading.Thread | None = None
        self._egress_thread: threading.Thread | None = None
        self._epoch = 0.0

    # -- deployment ----------------------------------------------------------

    def deploy(self, spec: ScenarioSpec) -> "ProcessRuntime":
        spec.validate()
        require_supported_kinds(spec, ("link",), self.name)
        # Fail fast on anything a worker could not rebuild from the spec
        # document alone, with the real error — a worker dying during
        # bootstrap would otherwise surface only as its exit code. The
        # build_app results are deliberately discarded (construction is
        # the thorough parameter check).
        from repro.scenario.apps import (
            BUILTIN_COST_MODELS,
            build_app,
            scenario_cost_model,
        )

        for decl in spec.services:
            build_app(decl.app)
            scenario_cost_model(spec, decl)
            name = decl.crypto if decl.crypto is not None else spec.crypto
            self_describing = decl.crypto is None and spec.crypto_params is not None
            if name not in BUILTIN_COST_MODELS and not self_describing:
                raise ConfigurationError(
                    f"cost model {name!r} exists only in this process's "
                    "registry; worker processes cannot rebuild it — carry "
                    "it in the spec via crypto_params instead"
                )
        crashed = {
            (f.service, f.index) for f in spec.faults if f.kind == "crash"
        }
        self._spec = spec
        ctx = multiprocessing.get_context()
        spec_json = spec.to_json()
        # The router/egress threads start before the first spawn (they
        # idle happily on an empty connection table), so a spawn failure
        # part-way through the loop still leaves a fully functional
        # teardown path: shutdown() can broadcast stop, drain the pipes,
        # and join both threads — no orphans on partial startup.
        self._router_thread = threading.Thread(target=self._route, daemon=True)
        self._egress_thread = threading.Thread(target=self._drain_egress, daemon=True)
        self._router_thread.start()
        self._egress_thread.start()
        try:
            for decl in spec.services:
                for index in range(decl.n):
                    if (decl.name, index) in crashed:
                        continue  # a crashed machine is simply never started
                    self._start_worker(ctx, spec_json, decl.name, index)

            deadline = time.monotonic() + READY_TIMEOUT_S
            while time.monotonic() < deadline:
                with self._lock:
                    pending = set(self._conns) - self._ready
                if not pending:
                    break
                # A worker that exits before reporting ready died during
                # bootstrap: say so now, not READY_TIMEOUT_S later.
                dead = sorted(
                    (key, self._procs[key].exitcode) for key in pending
                    if self._procs[key].exitcode is not None
                )
                if dead:
                    raise ConfigurationError(
                        "workers died during bootstrap (worker, exit code): "
                        f"{dead}"
                    )
                time.sleep(0.01)
            else:
                raise ConfigurationError(
                    f"workers never became ready: {sorted(pending)}"
                )
        except BaseException:
            self.shutdown()
            raise
        self._epoch = time.monotonic()
        self._broadcast("go")
        return self

    def _start_worker(
        self, ctx, spec_json: str, service: str, index: int
    ) -> None:
        """Spawn one replica's worker process and register its pipe."""
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(spec_json, service, index, child_conn),
            daemon=True,
            name=f"repro-{service}-{index}",
        )
        proc.start()
        child_conn.close()
        # The router/egress threads read these maps under self._lock;
        # writing under the same lock keeps the discipline local instead
        # of relying on thread start order.
        with self._lock:
            self._procs[(service, index)] = proc
            self._conns[(service, index)] = parent_conn
            self._alive[parent_conn] = (service, index)

    def worker_pids(self) -> list[int]:
        """PIDs of the worker processes (one per live voter/driver pair)."""
        return sorted(p.pid for p in self._procs.values())

    # -- parent threads ------------------------------------------------------

    def _owner(self, principal: str) -> tuple[str, int] | None:
        service, _, tail = principal.rpartition("/")
        if len(tail) >= 2 and tail[0] in ("v", "d") and tail[1:].isdigit():
            return (service, int(tail[1:]))
        return None

    def _route(self) -> None:
        """Drain every worker's outbound pipe; forward or record frames."""
        while not self._stopping.is_set():
            with self._lock:
                conns = list(self._alive)
            if not conns:
                time.sleep(0.02)
                continue
            for conn in connection_wait(conns, timeout=0.1):
                key = self._alive.get(conn)
                # Drain every frame already waiting before the next wait().
                while True:
                    try:
                        data = conn.recv_bytes()
                    except (EOFError, OSError):
                        with self._lock:
                            self._alive.pop(conn, None)
                        break
                    try:
                        if self._on_frame(key, conn, data):
                            break
                    except ProtocolError as exc:
                        # A worker's malformed frame is dropped and held
                        # against it; the router serves everyone else.
                        with self._lock:
                            self._frame_errors.setdefault(key, []).append(
                                repr(exc)
                            )
                    if not conn.poll(0):
                        break

    def _on_frame(self, key, conn, data: bytes) -> bool:
        """Forward or record one worker frame; True once it said bye."""
        if data.startswith(_NET):
            owner = None
            try:
                # O(header) routing: the envelope bytes stay opaque.
                owner = self._owner(_net_header(data)[1])
            finally:
                # Counted even when the header does not parse.
                with self._lock:
                    self._read[key] = self._read.get(key, 0) + 1
                    routed = owner in self._conns and owner not in self._byes
                    if not routed:
                        self._dropped += 1
                if routed:
                    self._egress.put((owner, data))
            return False
        frame = decode_payload(data)
        kind = frame[0]
        if kind == "stats":
            with self._lock:
                self._stats[key] = frame[1]
                self._stats_seq[key] = self._stats_seq.get(key, 0) + 1
        elif kind == "ready":
            with self._lock:
                self._ready.add(key)
        elif kind == "bye":
            with self._lock:
                self._byes.add(key)
                self._alive.pop(conn, None)
            return True
        return False

    def _drain_egress(self) -> None:
        """Single writer for every worker pipe (see module docstring)."""
        while True:
            item = self._egress.get()
            if item is None:
                return
            key, data = item
            try:
                self._conns[key].send_bytes(data)
                written = True
            except OSError:
                written = False
            if data.startswith(_NET):
                with self._lock:
                    if written:
                        self._written[key] = self._written.get(key, 0) + 1
                    else:
                        self._dropped += 1

    def _broadcast(self, kind: str) -> None:
        data = _frame(kind)
        for key in self._conns:
            if key not in self._byes:
                self._egress.put((key, data))

    # -- running -------------------------------------------------------------

    def run(self, until_s: float | None = None) -> None:
        budget = self._spec.duration_s if until_s is None else until_s
        deadline = time.monotonic() + budget
        previous = None
        while time.monotonic() < deadline:
            # No worker exits before the stop broadcast: a dead process
            # here is a crash, and waiting out the budget on its frozen
            # counters would mask it.
            dead = sorted(
                key for key, proc in self._procs.items()
                if not proc.is_alive() and key not in self._byes
            )
            if dead:
                raise RuntimeError(f"worker processes died mid-run: {dead}")
            with self._lock:
                baseline = dict(self._stats_seq)
            # ``go`` went out ahead of this poll on the same FIFO egress
            # queue, so no answer predates a worker's on_start.
            self._broadcast("poll")
            time.sleep(self._poll_interval_s)
            with self._lock:
                # A worker busy in a handler answers no poll, and its
                # last frame would repeat as if nothing were happening:
                # only answers to this wave's poll count.
                answers = {
                    key: stats for key, stats in self._stats.items()
                    if self._stats_seq[key] > baseline.get(key, 0)
                }
                wave = closed_wave(
                    self._conns, answers, self._read, self._written,
                    self._dropped,
                )
            if wave is not None and wave == previous:
                return
            previous = wave

    # -- observation ---------------------------------------------------------

    def _refresh_stats(self, timeout_s: float = 2.0) -> None:
        with self._lock:
            alive = {self._alive[c] for c in self._alive}
            baseline = dict(self._stats_seq)
        if not alive:
            return
        self._broadcast("poll")
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if all(
                    self._stats_seq.get(key, 0) > baseline.get(key, 0)
                    for key in alive
                ):
                    return
            time.sleep(0.01)

    def metrics(self) -> ScenarioMetrics:
        self._refresh_stats()
        with self._lock:
            stats = {key: dict(value) for key, value in self._stats.items()}
        # Crashed replicas are never spawned, so every reporting worker
        # is a live replica.
        services = {
            decl.name: service_metrics(
                self._spec,
                decl.name,
                {i: data for (name, i), data in stats.items() if name == decl.name},
            )
            for decl in self._spec.services
        }
        # Counters sum across workers: each zeroes METRICS at bootstrap,
        # so the sum is exactly this run's activity.
        counters: dict[str, int] = {}
        for data in stats.values():
            for key, value in (data.get("counters") or {}).items():
                counters[key] = counters.get(key, 0) + value
        elapsed_us = int((time.monotonic() - self._epoch) * 1_000_000)
        return ScenarioMetrics(
            scenario=self._spec.name,
            runtime=self.name,
            services=services,
            now_us=max(elapsed_us, 0),
            processes=len(self._procs),
            counters=counters,
        )

    def worker_errors(self) -> dict[tuple[str, int], list[str]]:
        """What went wrong at each worker (diagnostics): exceptions its
        handlers raised, inbound frames it could not parse, and frames of
        its own that the router could not."""
        with self._lock:
            found = {
                key: list(self._stats.get(key, {}).get("errors", ()))
                + self._frame_errors.get(key, [])
                for key in {*self._stats, *self._frame_errors}
            }
        return {key: errors for key, errors in found.items() if errors}

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        if self._stopping.is_set():
            return  # idempotent
        if self._procs:
            self._broadcast("stop")
            # Workers acknowledge with a final stats frame, a bye, and a
            # pipe close; the router drops closed pipes from the alive set.
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._alive:
                        break
                time.sleep(0.02)
            for proc in self._procs.values():
                proc.join(timeout=2.0)
            for proc in self._procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
        # Always stop the parent threads — deploy() starts them even for
        # a scenario whose crash faults left zero workers to spawn.
        self._stopping.set()
        self._egress.put(None)
        if self._router_thread is not None:
            self._router_thread.join(timeout=2.0)
        if self._egress_thread is not None:
            self._egress_thread.join(timeout=2.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._procs = {}
