"""The node host: what every real-clock substrate needs, exactly once.

The protocol layer is sans-IO (paper section 2.1.2): a
:class:`~repro.sim.kernel.ProtocolNode` sees only its environment. Off
the simulator that environment is :class:`NodeEnv` — the eight-method
surface of :class:`repro.sim.kernel.SimNodeEnv` (``now_us``, ``now_ms``,
``charge``, ``send``, ``local_deliver``, ``set_timer``,
``cancel_timer``, ``timer_armed``) — over a :class:`NodeHost`, which
owns the node table, the one :class:`TimerHeap`, the monotone clock,
per-node error lists, the start → handle → record-error
:meth:`~NodeHost.step`, the tick-batching flush at the end of a mailbox
drain (:meth:`~NodeHost.handle`), and the exact count of *unprocessed*
events.

A *scheduler* subclasses the host and supplies only the mailbox type
and what blocks: :class:`repro.runtime.cluster.ThreadedCluster`
(``queue.Queue`` + one thread per node + a wheel thread),
:class:`repro.runtime.aio.AioCluster` (``asyncio.Queue`` + one task per
node + one ``call_later`` wake) and the process worker's
``_WorkerHost`` (a ``deque`` + ``conn.poll``). ``charge`` is a no-op on
all of them: real CPU time is real.

Tick batching means one mailbox *drain* here, where the simulator's
kernel flushes after every handler. A drain begins with the first event
a node takes after its previous drain ended and takes in the events
already queued behind that one; it ends once the last of them has been
handled — by then the mailbox has been empty or the node has handled as
many events as were waiting when the drain began. The second bound
keeps a node that is posted to faster than it handles (a threaded node
under continuous load) from holding its output back forever. A node's
channel flushes once per drain, so everything it sends to one
destination in a drain leaves as one batch under one MAC vector.

Quiescence is exact, not sampled. ``unprocessed`` counts every event
from the moment it is posted (a node's pending ``on_start`` included)
until its handler has returned — and, for the last event of a drain,
until the drain's flush has returned too — so a handler that is mid-run
(mailbox already empty, state not yet updated) or output still held for
a flush keeps the count above zero, and whatever a node posts or arms
is counted before it stops counting itself. A scheduler
with real threads must change the count and the timer heap under one
lock (see ``ThreadedCluster``), which is what makes :meth:`NodeHost
.idle` a consistent snapshot there too.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable

from repro.sim.kernel import ProtocolNode

#: Mailbox item kinds: ``(kind, src, payload)``.
START, MSG, TIMER = "start", "msg", "timer"

#: The one interval at which a scheduler's ``run`` re-checks ``settled``.
POLL_S = 0.01


class TimerHeap:
    """All nodes' timers, keyed ``(node, tag)``, over one deadline heap.

    Re-arming a key replaces its deadline, cancelling disarms it, and a
    fired timer is no longer armed. Cancelled and replaced arms stay in
    the heap until their deadline passes (lazy deletion): ``_entries``
    maps each key to the sequence number of its *live* arm, and a heap
    entry with any other number is stale. The heap knows no clock — the
    caller passes deadlines and "now" — and takes no lock: a threaded
    caller holds its own around every method.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._entries: dict[tuple[str, Any], int] = {}
        self._seq = 0

    def set(self, node: str, tag: Any, deadline: float) -> None:
        self._seq += 1
        self._entries[(node, tag)] = self._seq
        heapq.heappush(self._heap, (deadline, self._seq, node, tag))

    def cancel(self, node: str, tag: Any) -> None:
        self._entries.pop((node, tag), None)

    def armed(self, node: str, tag: Any) -> bool:
        return (node, tag) in self._entries

    def armed_count(self) -> int:
        """Timers currently armed (set, not yet fired or cancelled)."""
        return len(self._entries)

    def pop_due(self, now: float) -> list[tuple[str, Any]]:
        """Disarm and return every live timer whose deadline is ``<= now``."""
        due = []
        heap, entries = self._heap, self._entries
        while heap and heap[0][0] <= now:
            _, seq, node, tag = heapq.heappop(heap)
            if entries.get((node, tag)) == seq:
                del entries[(node, tag)]
                due.append((node, tag))
        return due

    def next_deadline(self) -> float | None:
        """The earliest live deadline (stale heads are dropped on the way)."""
        heap, entries = self._heap, self._entries
        while heap and entries.get((heap[0][2], heap[0][3])) != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def clear(self) -> None:
        self._heap.clear()
        self._entries.clear()


class NodeEnv:
    """Per-node environment with the SimNodeEnv surface."""

    __slots__ = ("node_id", "_key", "_host")

    def __init__(self, host: "NodeHost", node_id: Any) -> None:
        self.node_id = node_id
        self._key = str(node_id)
        self._host = host

    def now_us(self) -> int:
        return int((time.monotonic() - self._host.epoch) * 1_000_000)

    def now_ms(self) -> int:
        return self.now_us() // 1000

    def charge(self, cpu_us: int) -> None:
        """No-op: on a real clock, CPU time is consumed by running."""

    def send(self, dst: Any, msg: Any, size_bytes: int = 256) -> None:
        self._host.post(self._key, str(dst), msg)

    def local_deliver(self, dst: Any, msg: Any) -> None:
        self._host.post(self._key, str(dst), msg)

    def set_timer(self, tag: Any, delay_us: int) -> None:
        self._host.arm_timer(self._key, tag, delay_us)

    def cancel_timer(self, tag: Any) -> None:
        self._host.disarm_timer(self._key, tag)

    def timer_armed(self, tag: Any) -> bool:
        return self._host.timers.armed(self._key, tag)


class NodeHost:
    """Node table, timer heap, clock, errors and the event step.

    Subclasses (the schedulers) implement :meth:`post` and decide when
    an event runs — through :meth:`handle` for a node with its own
    mailbox, or :meth:`step` and :meth:`end_drain` for a scheduler that
    drains a shared one; they keep ``unprocessed`` in step with their
    mailboxes — plus one when an event is enqueued, minus one when its
    handling (and any drain-end flush) has returned.
    """

    def __init__(self) -> None:
        #: ``env.now_us`` counts from here; a scheduler may move it to
        #: the moment its run actually starts.
        self.epoch = time.monotonic()
        self.nodes: dict[str, ProtocolNode] = {}
        self.timers = TimerHeap()
        self.dropped: set[str] = set()
        #: Per-node, so each list has a single writer on every scheduler.
        self._errors: dict[str, list[BaseException]] = {}
        #: Events posted whose handler has not yet returned.
        self.unprocessed = 0

    def add_node(self, node_id: Any, node: ProtocolNode,
                 host: str | None = None) -> NodeEnv:
        """Register ``node``; ``host`` (the simulator's CPU placement) is
        accepted and ignored so one ``deploy_service`` serves every
        substrate."""
        key = str(node_id)
        self.nodes[key] = node
        self._errors[key] = []
        self.unprocessed += 1  # its on_start
        return NodeEnv(self, node_id)

    def drop_node(self, node_id: Any) -> None:
        """Crash a node: it stops sending and receiving."""
        self.dropped.add(str(node_id))

    def post(self, src: str, dst: str, msg: Any) -> None:
        raise NotImplementedError

    # -- the host clock: the only reader of time.monotonic ----------------

    def restart_clock(self) -> None:
        self.epoch = time.monotonic()

    def until(self, deadline: float) -> float:
        """Seconds from now to ``deadline`` (a heap deadline), never < 0."""
        return max(deadline - time.monotonic(), 0.0)

    def arm_timer(self, node: str, tag: Any, delay_us: int) -> float:
        deadline = time.monotonic() + delay_us / 1_000_000.0
        self.timers.set(node, tag, deadline)
        return deadline

    def disarm_timer(self, node: str, tag: Any) -> None:
        self.timers.cancel(node, tag)

    def due_timers(self) -> list[tuple[str, Any]]:
        """Disarm and return the ``(node, tag)`` of every timer now due."""
        return self.timers.pop_due(time.monotonic())

    def step(self, key: str, kind: str, src: Any, payload: Any) -> None:
        """Run one event on ``key``'s node, recording what it raises."""
        node = self.nodes[key]
        try:
            if kind == MSG:
                node.on_message(src, payload)
            elif kind == TIMER:
                node.on_timer(payload)
            else:
                node.on_start()
        except Exception as exc:  # a faulty node must not kill its scheduler
            self._errors[key].append(exc)

    def end_drain(self, key: str) -> None:
        """``key``'s mailbox drain ended: release its tick-batched output.

        A scheduler calls this before it stops counting the drain's last
        event as unprocessed. (Window batching instead arms a flush timer
        through ``set_timer``, which arrives as a timer event like any
        other.)
        """
        node = self.nodes[key]
        if node.wants_flush:
            try:
                node.on_flush()
            except Exception as exc:
                self._errors[key].append(exc)

    def handle(self, key: str, item: tuple, left: int,
               queued: Callable[[], int]) -> int:
        """Run ``item`` as part of ``key``'s current drain; return how many
        events of the drain are left after it.

        ``left`` is what the previous call for ``key`` returned (0 before
        the first): at 0, ``item`` begins a drain, which takes in the
        ``queued()`` events waiting behind it in the node's own mailbox.
        When none is left the drain ends (:meth:`end_drain`), still
        inside ``item``'s unprocessed count, which the caller drops only
        after this returns. A node that does not tick-flush only steps:
        its drains are never counted.
        """
        if not self.nodes[key].wants_flush:
            self.step(key, *item)
            return 0
        if not left:
            left = queued() + 1
        self.step(key, *item)
        left -= 1
        if not left:
            self.end_drain(key)
        return left

    def errors(self) -> list[BaseException]:
        """Exceptions raised inside node handlers, in node order."""
        return [exc for errors in self._errors.values() for exc in errors]

    def idle(self) -> bool:
        """No event unprocessed and no timer armed: nothing can happen."""
        return self.unprocessed == 0 and self.timers.armed_count() == 0
