"""The multi-process substrate: one OS process per voter/driver pair.

``ProcessRuntime`` places each replica's co-located voter/driver pair in
its own ``multiprocessing`` process, exactly the paper's placement of
both halves on one machine. Everything that crosses a process boundary
is a fused-codec :class:`~repro.transport.wire.WireEnvelope` — PR 1 made
that codec the full serialisation boundary, so protocol code runs
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
- each worker bootstrap zeroes METRICS and then calls
  :func:`repro.common.encoding.clear_wire_caches` before touching any
  frame: the decode memos are keyed on object identity and must never
  cross a process boundary (under the default ``fork`` start method the
  parent's caches arrive in the child's memory otherwise). The clear
  bumps the ``wire_cache_clears`` counter, so the summed worker stats
  prove every start path ran the hook;
- the ``transport`` knob selects how workers rendezvous with the
  parent: ``"pipe"`` (the default — one duplex ``multiprocessing`` pipe
  per worker) or ``"tcp"``, where the parent listens on an ephemeral
  localhost port and every worker dials back and speaks the same frames
  through the length-prefixed :class:`~repro.transport.socket_frame
  .SocketConnection`. The router, egress writer, and worker loop are
  byte-for-byte shared between the two — tcp is the off-box stepping
  stone (swap ``127.0.0.1`` for real host addresses and the same
  scenarios run across machines);
- ``crash`` faults are expressed by never spawning the replica's worker:
  a crashed machine never speaks; ``byzantine``, ``delay``,
  ``partition``, and ``restart`` faults travel inside the spec JSON and
  are rebuilt into :class:`repro.faults.FaultInjector` hooks by each
  worker's bootstrap. ``link`` faults parameterise the modelled network
  and are rejected (simulator-only).

``run`` polls worker counters until they are stable over polls every
live worker answered (quiescence) or the wall-clock budget elapses;
``metrics`` performs one fresh poll so the
numbers are current even after ``run`` returned early.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait as connection_wait

from repro.common.encoding import canonical_encode, clear_wire_caches, decode_payload
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
from repro.sharding import build_router
from repro.transport.socket_frame import FrameError, SocketConnection
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
#: Consecutive identical counter snapshots that count as quiescence.
QUIESCENT_POLLS = 3


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
    timer heap's next deadline, whichever is sooner.
    """

    def __init__(self, conn: Connection) -> None:
        super().__init__()
        self.conn = conn
        self.local: deque[tuple[str, str, object]] = deque()

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

    def _deliver_local(self) -> None:
        local = self.local
        while local:
            src, dst, msg = local.popleft()
            if dst in self.nodes:
                self.step(dst, MSG, src, msg)
            self.unprocessed -= 1
        for key, tag in self.due_timers():
            self.step(key, TIMER, None, tag)

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
            except (EOFError, OSError, FrameError):
                return
            for data in frames:
                if data.startswith(_NET):
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
                        self.unprocessed -= 1
                elif kind == "poll":
                    self.conn.send_bytes(_frame("stats", stats()))
                elif kind == "stop":
                    self.conn.send_bytes(_frame("stats", stats()))
                    self.conn.send_bytes(_frame("bye"))
                    return
            self._deliver_local()


def _worker_main(
    spec_json: str,
    service: str,
    index: int,
    conn: Connection | None,
    address: tuple[str, int] | None = None,
) -> None:
    """Bootstrap one voter/driver pair and serve its event loop.

    On the tcp transport ``conn`` is ``None`` and the worker dials
    ``address`` back to the parent's listener; the framed socket then
    speaks the exact pipe protocol. Bootstrap order matters: zero the
    fork-inherited METRICS first, then run :func:`clear_wire_caches` —
    the documented process-start hook — before touching any frame.
    Identity-keyed decode memos inherited over ``fork`` reference the
    parent's object graph and must never serve lookups in the child;
    clearing after the reset lets the hook's ``wire_cache_clears`` bump
    survive into this worker's stats frames, which is how tests pin the
    hook onto every start path.
    """
    from repro.common.metrics import METRICS

    # Forked counters arrive pre-incremented from the parent; zero them
    # so this worker's stats frames report only its own activity.
    METRICS.reset()
    clear_wire_caches()

    from repro.crypto.keys import KeyStore
    from repro.faults import FaultPlan
    from repro.perpetual.group import Topology, build_replica
    from repro.perpetual.voter import driver_name, voter_name
    from repro.scenario.apps import build_app, scenario_cost_model
    from repro.ws.adapter import WsAdapter, collecting_executor_factory

    if conn is None:
        conn = SocketConnection(socket.create_connection(address))

    spec = ScenarioSpec.from_json(spec_json)
    decl = spec.service(service)
    # Sharded specs rebuild the full routing table here: the topology
    # spans every group (the flat principal namespace routes cross-group
    # frames through the parent exactly like local ones), and the driver
    # gets the router handle plus its home group.
    from repro.sharding import build_router

    router = build_router(spec)
    topology = Topology()
    for s in spec.all_services():
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
        router=router,
        home_group=(
            router.group_for_service(service) if router is not None else None
        ),
    )
    voter.attach(host.add_node(voter_name(service, index), voter))
    driver.attach(host.add_node(driver_name(service, index), driver))

    def stats() -> dict:
        return {
            "pid": os.getpid(),
            "timers_armed": host.timers.armed_count(),
            "counters": METRICS.snapshot(),
            "errors": [repr(exc) for exc in host.errors()],
            **replica_snapshot(
                voter, driver, adapters[0],
                built.probe() if built.probe is not None else {},
            ),
        }

    conn.send_bytes(_frame("ready", service, index))
    try:
        host.loop(stats)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ProcessRuntime(Runtime):
    """Executes scenarios across real OS processes."""

    name = "process"

    def __init__(
        self,
        poll_interval_s: float = POLL_INTERVAL_S,
        transport: str = "pipe",
    ) -> None:
        if transport not in ("pipe", "tcp"):
            raise ConfigurationError(
                f"unknown transport {transport!r} (known: pipe, tcp)"
            )
        self.transport = transport
        self._poll_interval_s = poll_interval_s
        self._spec: ScenarioSpec | None = None
        self._procs: dict[tuple[str, int], multiprocessing.Process] = {}
        self._conns: dict[tuple[str, int], Connection] = {}
        self._alive: dict[Connection, tuple[str, int]] = {}
        #: Workers that were spawned and must report ready. On the pipe
        #: transport this mirrors ``self._conns`` (registered at spawn);
        #: on tcp, connections only appear when workers dial back, so
        #: readiness is tracked against the spawn set.
        self._expected: set[tuple[str, int]] = set()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stats: dict[tuple[str, int], dict] = {}
        self._stats_seq: dict[tuple[str, int], int] = {}
        #: Frames the router could not parse, by the worker that sent them.
        self._frame_errors: dict[tuple[str, int], list[str]] = {}
        self._byes: set[tuple[str, int]] = set()
        self._ready: set[tuple[str, int]] = set()
        self._lock = threading.Lock()
        self._egress: "queue.Queue" = queue.Queue()
        self._stopping = threading.Event()
        self._router_thread: threading.Thread | None = None
        self._egress_thread: threading.Thread | None = None
        self._epoch = 0.0
        #: Sharding routing table (None on classic single-group specs).
        self._router = None

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

        for decl in spec.all_services():
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
            (f.service, f.index) for f in spec.all_faults() if f.kind == "crash"
        }
        self._spec = spec
        self._router = build_router(spec)
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
        if self.transport == "tcp":
            # Ephemeral localhost rendezvous: workers dial back and their
            # first frame (ready) identifies them to the acceptor.
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._listener.settimeout(0.2)
            self._accept_thread = threading.Thread(
                target=self._accept, daemon=True
            )
            self._accept_thread.start()
        try:
            for decl in spec.all_services():
                for index in range(decl.n):
                    if (decl.name, index) in crashed:
                        continue  # a crashed machine is simply never started
                    self._start_worker(ctx, spec_json, decl.name, index)

            deadline = time.monotonic() + READY_TIMEOUT_S
            while time.monotonic() < deadline:
                with self._lock:
                    if self._ready == self._expected:
                        break
                    pending = self._expected - self._ready
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
                missing = sorted(self._expected - self._ready)
                raise ConfigurationError(
                    f"workers never became ready: {missing}"
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
        """Spawn one replica's worker process and register its channel.

        Pipe transport: the duplex pipe exists before the child does, so
        the connection registers here. Tcp transport: the worker gets the
        listener's address and the acceptor thread registers the
        connection when the worker dials back with its ready frame.
        """
        if self.transport == "tcp":
            address = self._listener.getsockname()
            proc = ctx.Process(
                target=_worker_main,
                args=(spec_json, service, index, None, address),
                daemon=True,
                name=f"repro-{service}-{index}",
            )
            proc.start()
            with self._lock:
                self._procs[(service, index)] = proc
                self._expected.add((service, index))
            return
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
            self._expected.add((service, index))

    def _accept(self) -> None:
        """Tcp transport only: register dial-back workers as they arrive.

        The worker's first frame is its ready tuple — reading it here
        (before the connection joins the router's alive set) doubles as
        the identification handshake, so the router never has to treat a
        half-known connection.
        """
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.settimeout(READY_TIMEOUT_S)
            conn = SocketConnection(sock)
            try:
                hello = decode_payload(conn.recv_bytes())
            except (EOFError, OSError, TimeoutError, FrameError):
                conn.close()
                continue
            if hello[0] != "ready":
                conn.close()
                continue
            sock.settimeout(None)
            key = (hello[1], hello[2])
            with self._lock:
                self._conns[key] = conn
                self._alive[conn] = key
                self._ready.add(key)

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
                # Drain every frame this wakeup made available: a framed
                # socket read may decode several frames from one chunk,
                # after which the fd is no longer readable — frames left
                # in the decoder would otherwise never wake the selector.
                while True:
                    try:
                        data = conn.recv_bytes()
                    except (EOFError, OSError, FrameError):
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
            # O(header) routing: the envelope bytes stay opaque.
            _, dst, _ = _net_header(data)
            owner = self._owner(dst)
            if owner in self._conns and owner not in self._byes:
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
                self._ready.add((frame[1], frame[2]))
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
            conn = self._conns.get(key)
            if conn is None:
                continue
            try:
                conn.send_bytes(data)
            except (BrokenPipeError, OSError):
                pass

    def _broadcast(self, kind: str) -> None:
        data = _frame(kind)
        for key in self._conns:
            if key not in self._byes:
                self._egress.put((key, data))

    # -- running -------------------------------------------------------------

    def run(self, until_s: float | None = None) -> None:
        budget = self._spec.duration_s if until_s is None else until_s
        deadline = time.monotonic() + budget
        previous: dict | None = None
        previous_seq: dict = {}
        stable = 0
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
            self._broadcast("poll")
            time.sleep(self._poll_interval_s)
            with self._lock:
                # "counters" is excluded from the stability comparison:
                # serving the poll itself runs the wire codec, so the
                # worker's METRICS snapshot moves on every poll and would
                # keep an idle cluster looking busy forever.
                snapshot = {
                    key: {k: v for k, v in stats.items()
                          if k not in ("pid", "counters")}
                    for key, stats in self._stats.items()
                }
                # A worker busy in a handler answers no poll, and its
                # last frame would repeat as if nothing were happening:
                # a poll counts only if every live worker answered it.
                answered = all(
                    self._stats_seq.get(key, 0) > previous_seq.get(key, 0)
                    for key in self._alive.values()
                )
                previous_seq = dict(self._stats_seq)
            complete = len(snapshot) == len(self._conns)
            # Settled = counters stable over consecutive polls AND no
            # worker reports in-flight out-calls or armed timers (a
            # crashed primary idles the counters for seconds while view
            # changes pend; TPC-W think times idle between self-scheduled
            # events — neither is completion).
            settled = complete and all(
                stats.get("in_flight", 0) == 0
                and stats.get("timers_armed", 0) == 0
                for stats in snapshot.values()
            )
            if settled and answered and snapshot == previous:
                stable += 1
                warmed = time.monotonic() - self._epoch >= 1.0
                if stable >= QUIESCENT_POLLS and warmed:
                    return
            else:
                stable = 0
            previous = snapshot

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
                self._router,
                decl.name,
                {i: data for (name, i), data in stats.items() if name == decl.name},
            )
            for decl in self._spec.all_services()
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
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._procs = {}
