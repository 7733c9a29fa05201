"""The discrete-event kernel.

Protocol code is written sans-IO against two small interfaces:

- :class:`ProtocolNode` — implemented by voters, drivers, clients, and
  emulators: ``on_message(src, msg)`` and ``on_timer(tag)``.
- :class:`SimNodeEnv` — handed to each node: ``send``, ``local_deliver``,
  ``set_timer`` / ``cancel_timer``, ``now_us``, and ``charge`` (CPU time).

The kernel models one CPU per *host*. The paper co-locates the voter and
driver of a replica on a single host (section 2.1), so those two nodes
share a CPU by default; throughput then saturates on per-host work exactly
as on the testbed. Message handling at a node begins when both the message
has arrived and the host CPU is free; ``charge(us)`` extends the busy
period; messages sent during handling depart at the charge-accumulated
point of the send call.

The event queue is the innermost loop of every experiment, so it is kept
lean: heap entries are plain ``(time_us, seq, payload)`` tuples (native
tuple comparison, no dataclass ``__lt__``), where ``payload`` is the
callable itself for ordinary events and a slotted :class:`Event` record
only where cancellation must be observable (timers). Cancelled timers are
compacted out of the heap periodically so long runs with heavy re-arming
(retransmission timers under TPC-W load) do not accumulate dead entries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.common.errors import SimulationError
from repro.common.metrics import METRICS

US_PER_MS = 1_000
US_PER_S = 1_000_000

# Compact the heap when more than this many cancelled timers are queued
# AND they outnumber the live entries (amortised O(1) per cancellation).
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A cancellable scheduled callback (used for timers)."""

    __slots__ = ("time_us", "action", "cancelled")

    def __init__(self, time_us: int, action: Callable[[], None]) -> None:
        self.time_us = time_us
        self.action = action
        self.cancelled = False


class ProtocolNode:
    """Base class for everything that lives on the simulated network."""

    #: True for nodes that buffer channel output until the end of a tick
    #: (tick batching): the simulator calls :meth:`on_flush` after each
    #: handler invocation on such nodes, the real-clock schedulers at the
    #: end of each mailbox drain, and only on such nodes.
    wants_flush = False

    def on_message(self, src: Any, msg: Any) -> None:
        raise NotImplementedError

    def on_timer(self, tag: Any) -> None:
        raise NotImplementedError

    def on_start(self) -> None:
        """Hook invoked once when the simulation starts."""

    def on_flush(self) -> None:
        """End-of-tick hook (see :attr:`wants_flush`); default no-op."""


class NodeCpu:
    """Serialises the work of all nodes sharing one host CPU."""

    __slots__ = ("free_at_us",)

    def __init__(self) -> None:
        self.free_at_us = 0

    def begin(self, now_us: int) -> int:
        """Return the time at which handling may start."""
        return max(now_us, self.free_at_us)


class Simulator:
    """Deterministic event loop with per-host CPU accounting."""

    def __init__(self) -> None:
        # Heap of (time_us, seq, payload); payload is a zero-arg callable
        # or an Event for cancellable entries.
        self._queue: list[tuple[int, int, Any]] = []
        self._seq = itertools.count()
        self._now_us = 0
        self._nodes: dict[str, ProtocolNode] = {}
        self._envs: dict[str, "SimNodeEnv"] = {}
        self._cpus: dict[str, NodeCpu] = {}
        self._node_cpu: dict[str, str] = {}
        self._network = None
        self._started = False
        self._cancelled_in_queue = 0
        self.events_processed = 0
        # Nodes with wants_flush, by key: checked once per handler run, so
        # batching=off pays one empty-dict probe, not an attribute walk.
        self._flush_nodes: dict[str, ProtocolNode] = {}

    # -- construction -----------------------------------------------------

    def set_network(self, network) -> None:
        """Install the :class:`repro.sim.network.NetworkModel`."""
        self._network = network

    def add_node(
        self,
        node_id: Any,
        node: ProtocolNode,
        host: str | None = None,
    ) -> "SimNodeEnv":
        """Register ``node`` under ``node_id``.

        ``host`` names the CPU the node runs on; co-located nodes (a
        replica's voter and driver) pass the same host name. Defaults to a
        dedicated host per node.
        """
        key = str(node_id)
        if key in self._nodes:
            raise SimulationError(f"duplicate node id: {key}")
        host_key = host if host is not None else key
        self._cpus.setdefault(host_key, NodeCpu())
        self._node_cpu[key] = host_key
        env = SimNodeEnv(self, node_id)
        self._nodes[key] = node
        self._envs[key] = env
        if getattr(node, "wants_flush", False):
            self._flush_nodes[key] = node
        return env

    def node(self, node_id: Any) -> ProtocolNode:
        return self._nodes[str(node_id)]

    def env(self, node_id: Any) -> "SimNodeEnv":
        return self._envs[str(node_id)]

    # -- time and scheduling ----------------------------------------------

    @property
    def now_us(self) -> int:
        return self._now_us

    def schedule(self, delay_us: int, action: Callable[[], None]) -> None:
        """Schedule ``action`` at ``now + delay_us``."""
        if delay_us < 0:
            raise SimulationError(f"negative delay: {delay_us}")
        heapq.heappush(
            self._queue, (self._now_us + int(delay_us), next(self._seq), action)
        )

    def schedule_at(self, time_us: int, action: Callable[[], None]) -> None:
        if time_us < self._now_us:
            raise SimulationError(f"cannot schedule in the past: {time_us}")
        heapq.heappush(self._queue, (int(time_us), next(self._seq), action))

    def schedule_timer(self, time_us: int, action: Callable[[], None]) -> Event:
        """Schedule a cancellable event; returns its :class:`Event` handle."""
        event = Event(int(time_us), action)
        heapq.heappush(self._queue, (event.time_us, next(self._seq), event))
        return event

    def cancel_event(self, event: Event) -> None:
        """Mark a scheduled event dead; the heap entry is skipped on pop
        and physically removed by the next compaction pass."""
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled timer entries.

        In place (slice assignment): ``run`` aliases the queue list, so
        rebinding the attribute would strand the loop on a stale heap.
        """
        self._queue[:] = [
            entry
            for entry in self._queue
            if not (type(entry[2]) is Event and entry[2].cancelled)
        ]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        METRICS.heap_compactions += 1

    # -- message plumbing ---------------------------------------------------

    def post_message(self, src: Any, dst: Any, msg: Any, size_bytes: int) -> None:
        """Send ``msg`` from ``src`` to ``dst`` through the network model."""
        if self._network is None:
            latency_us = 0
        else:
            latency_us = self._network.latency_us(src, dst, size_bytes)
            if latency_us is None:
                return  # dropped by fault injection
        self.schedule(
            latency_us, lambda: self._deliver(src, dst, msg)
        )

    def post_local(self, src: Any, dst: Any, msg: Any) -> None:
        """Deliver between co-located nodes (the local event queue)."""
        self.schedule(0, lambda: self._deliver(src, dst, msg))

    def _deliver(self, src: Any, dst: Any, msg: Any) -> None:
        key = str(dst)
        node = self._nodes.get(key)
        if node is None:
            return  # destination not deployed (e.g. crashed and removed)
        self._run_handler(key, lambda: node.on_message(src, msg))

    def _fire_timer(self, node_key: str, tag: Any) -> None:
        node = self._nodes.get(node_key)
        if node is None:
            return
        self._run_handler(node_key, lambda: node.on_timer(tag))

    def _run_handler(self, node_key: str, handler: Callable[[], None]) -> None:
        """Run a node handler with CPU accounting.

        Handling starts when the host CPU frees up; ``charge`` calls made
        by the handler extend the busy window; buffered sends depart at
        the accumulated charge point.
        """
        env = self._envs[node_key]
        cpu = self._cpus[self._node_cpu[node_key]]
        start_us = cpu.begin(self._now_us)
        if start_us > self._now_us:
            # CPU is busy: requeue the handling to when it frees up. The
            # requeued event re-checks, so chained busy periods work.
            self.schedule_at(start_us, lambda: self._run_handler(node_key, handler))
            return
        env.begin_handling(start_us)
        handler()
        flush_node = self._flush_nodes.get(node_key)
        if flush_node is not None:
            # Tick batching: release the node's buffered channel output
            # inside the same busy window, so batched sends depart at the
            # handler's charge-accumulated point like any other send.
            flush_node.on_flush()
        charged_us = env.end_handling()
        cpu.free_at_us = start_us + charged_us
        for depart_at_us, dispatch in env.drain_outbox():
            self.schedule_at(depart_at_us, dispatch)

    # -- running -------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's ``on_start`` hook (with CPU accounting)."""
        if self._started:
            return
        self._started = True
        for key, node in self._nodes.items():
            self._run_handler(key, node.on_start)

    def run(self, until_us: int | None = None, max_events: int | None = None) -> int:
        """Process events until quiescence, a deadline, or an event budget.

        Returns the number of events processed in this call.
        """
        self.start()
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                time_us, _, payload = queue[0]
                if type(payload) is Event:
                    if payload.cancelled:
                        pop(queue)
                        self._cancelled_in_queue -= 1
                        continue
                    action = payload.action
                else:
                    action = payload
                if until_us is not None and time_us > until_us:
                    self._now_us = until_us
                    break
                if max_events is not None and processed >= max_events:
                    break
                pop(queue)
                self._now_us = time_us
                action()
                processed += 1
            else:
                if until_us is not None:
                    self._now_us = max(self._now_us, until_us)
        finally:
            # Counted even when a handler raises, so observers never see
            # a total that omits the events of a failed run.
            self.events_processed += processed
            METRICS.events_processed += processed
        return processed


class SimNodeEnv:
    """The environment handed to one protocol node.

    Provides time, timers, CPU charging, and sends. Sends are buffered
    during handling and released with their charge-accumulated departure
    times when the handler returns.
    """

    __slots__ = (
        "_sim",
        "node_id",
        "_key",
        "_handling",
        "_start_us",
        "_charged_us",
        "_outbox",
        "_timers",
    )

    def __init__(self, sim: Simulator, node_id: Any) -> None:
        self._sim = sim
        self.node_id = node_id
        self._key = str(node_id)
        self._handling = False
        self._start_us = 0
        self._charged_us = 0
        self._outbox: list[tuple[int, Callable[[], None]]] = []
        self._timers: dict[Any, Event] = {}

    # -- kernel-side hooks --------------------------------------------------

    def begin_handling(self, start_us: int) -> None:
        self._handling = True
        self._start_us = start_us
        self._charged_us = 0
        self._outbox = []

    def end_handling(self) -> int:
        self._handling = False
        return self._charged_us

    def drain_outbox(self) -> list[tuple[int, Callable[[], None]]]:
        out, self._outbox = self._outbox, []
        return out

    # -- node-facing API ------------------------------------------------------

    def now_us(self) -> int:
        """Current simulated time, including CPU charged so far."""
        if self._handling:
            return self._start_us + self._charged_us
        return self._sim.now_us

    def now_ms(self) -> int:
        return self.now_us() // US_PER_MS

    def charge(self, cpu_us: int) -> None:
        """Consume ``cpu_us`` of this node's host CPU."""
        if cpu_us < 0:
            raise SimulationError(f"negative charge: {cpu_us}")
        self._charged_us += int(cpu_us)

    def send(self, dst: Any, msg: Any, size_bytes: int = 256) -> None:
        """Send a message over the network (departs at current charge point)."""
        depart_at = self.now_us()
        src = self.node_id
        self._enqueue(
            depart_at,
            lambda: self._sim.post_message(src, dst, msg, size_bytes),
        )

    def local_deliver(self, dst: Any, msg: Any) -> None:
        """Deliver to a co-located node via the local event queue."""
        depart_at = self.now_us()
        src = self.node_id
        self._enqueue(depart_at, lambda: self._sim.post_local(src, dst, msg))

    def _enqueue(self, depart_at: int, dispatch: Callable[[], None]) -> None:
        if self._handling:
            self._outbox.append((depart_at, dispatch))
        else:
            self._sim.schedule_at(max(depart_at, self._sim.now_us), dispatch)

    def set_timer(self, tag: Any, delay_us: int) -> None:
        """Arm (or re-arm) the timer named ``tag``."""
        self.cancel_timer(tag)
        fire_at = self.now_us() + int(delay_us)
        self._timers[tag] = self._sim.schedule_timer(
            fire_at, lambda: self._on_timer_fired(tag)
        )

    def _on_timer_fired(self, tag: Any) -> None:
        self._timers.pop(tag, None)
        self._sim._fire_timer(self._key, tag)

    def cancel_timer(self, tag: Any) -> None:
        event = self._timers.pop(tag, None)
        if event is not None:
            self._sim.cancel_event(event)

    def timer_armed(self, tag: Any) -> bool:
        return tag in self._timers
