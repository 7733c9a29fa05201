"""The threaded scheduler: one OS thread per protocol node.

A :class:`~repro.runtime.host.NodeHost` whose mailboxes are
``queue.Queue``\\ s, each drained by its node's own consumer thread,
plus one wheel thread that sleeps until the timer heap's next deadline
and posts what fired. Determinism holds per replica (the protocol
guarantees it), but event interleaving across nodes is genuinely racy —
which is the point of testing on this substrate.

One condition, ``_cv``, guards everything two threads write: the timer
heap and the ``unprocessed`` count. They must share a lock for
:meth:`ThreadedCluster.idle` to be exact — the wheel pops a due timer
and counts its firing as unprocessed inside one critical section, so no
observer can see "nothing armed, nothing unprocessed" while a popped
timer is still on its way to a mailbox. The node table and ``dropped``
are written by the deploying thread only; each node's error list by its
own consumer thread only. ``debug_locks=True`` wraps all four in the
assert-owner proxies of :mod:`repro.runtime.sanitizer`.

This module is the substrate only; deploy onto it through the scenario
API (:mod:`repro.scenario`, ``runtime="threaded"``) rather than wiring
nodes by hand.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.runtime.host import MSG, POLL_S, START, TIMER, NodeEnv, NodeHost
from repro.runtime.sanitizer import guarded_dict, guarded_list, guarded_set
from repro.sim.kernel import ProtocolNode

_STOP = object()


class ThreadedCluster(NodeHost):
    """Hosts protocol nodes on real threads.

    Usage mirrors the simulator: ``add_node`` everything, then
    :meth:`run` (or :meth:`start` and observe), finally :meth:`shutdown`.
    """

    def __init__(self, debug_locks: bool = False) -> None:
        super().__init__()
        self.debug_locks = debug_locks
        self._cv = threading.Condition()
        self._mailboxes: dict[str, queue.Queue] = {}
        self._threads: list[threading.Thread] = []
        self._stopped = False
        if debug_locks:
            # Assert-owner proxies: every mutation of the timer table
            # must hold the condition — exactly what the static LOCK001
            # pass concluded lexically — and topology (registration,
            # crash faults) belongs to the deploying thread; handler
            # threads only ever *read* it.
            self.timers._entries = guarded_dict("TimerHeap._entries", self._cv)
            self.nodes = guarded_dict("ThreadedCluster.nodes")
            self.dropped = guarded_set("ThreadedCluster.dropped")
        self._wheel = threading.Thread(target=self._run_wheel, daemon=True)
        self._wheel.start()

    def add_node(self, node_id: Any, node: ProtocolNode,
                 host: str | None = None) -> NodeEnv:
        with self._cv:
            env = super().add_node(node_id, node)
        key = str(node_id)
        if self.debug_locks:
            # Only this node's consumer thread appends; errors() reads,
            # which the proxy passes through unchecked.
            self._errors[key] = guarded_list(f"errors[{key}]")
        self._mailboxes[key] = queue.Queue()
        return env

    def start(self) -> None:
        """Start a consumer thread for every node not yet running."""
        for key in list(self.nodes)[len(self._threads):]:
            thread = threading.Thread(
                target=self._run_node, args=(key,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def run(self, settled: Callable[[], bool], budget_s: float) -> None:
        """Start, then park until ``settled()`` or the budget elapses."""
        self.start()
        deadline = time.monotonic() + budget_s
        while time.monotonic() < deadline and not settled():
            time.sleep(POLL_S)

    def shutdown(self) -> None:
        for mailbox in self._mailboxes.values():
            mailbox.put(_STOP)
        with self._cv:
            self._stopped = True
            self._cv.notify()
        self._wheel.join(timeout=2)

    # -- events -----------------------------------------------------------

    def post(self, src: str, dst: str, msg: Any) -> None:
        if src not in self.dropped:
            self._enqueue(dst, (MSG, src, msg))

    def _enqueue(self, key: str, item: tuple) -> None:
        mailbox = self._mailboxes.get(key)
        if mailbox is not None and key not in self.dropped:
            with self._cv:
                self.unprocessed += 1
            mailbox.put(item)

    def _run_node(self, key: str) -> None:
        mailbox = self._mailboxes[key]
        item, left = (START, None, None), 0
        while item is not _STOP:
            left = self.handle(key, item, left, mailbox.qsize)
            with self._cv:
                self.unprocessed -= 1
            item = mailbox.get()

    # -- timers -----------------------------------------------------------

    def arm_timer(self, node: str, tag: Any, delay_us: int) -> float:
        with self._cv:
            self._cv.notify()
            return super().arm_timer(node, tag, delay_us)

    def disarm_timer(self, node: str, tag: Any) -> None:
        with self._cv:
            self.timers.cancel(node, tag)

    def _run_wheel(self) -> None:
        with self._cv:
            while not self._stopped:
                # Popped and counted under one hold of the condition: a
                # firing is unprocessed before it stops being armed.
                for key, tag in self.due_timers():
                    self._enqueue(key, (TIMER, None, tag))
                deadline = self.timers.next_deadline()
                self._cv.wait(
                    timeout=0.1 if deadline is None
                    else min(self.until(deadline), 0.1)
                )

    def idle(self) -> bool:
        with self._cv:
            return super().idle()
