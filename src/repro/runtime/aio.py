"""The asyncio scheduler: every protocol node a task on one event loop.

A :class:`~repro.runtime.host.NodeHost` whose mailboxes are
:class:`asyncio.Queue`\\ s, each drained by one consumer task, all
sharing a single event loop — the single-loop replica shape of the
flexible-BFT lineage: cheaper than one OS thread per node at high node
counts, and the natural seat for socket I/O.

Timers map onto the loop through the host's one heap: a single
``call_later`` wake is kept at the heap's earliest deadline (moved
earlier when a sooner timer is armed), and a firing posts a timer event
into the node's inbox, so timer handling serialises with message
handling in the node's consumer task — exactly the ordering contract
the threaded wheel provides. Timers armed before the loop exists
(deploy time) simply wait in the heap until :meth:`AioCluster.run`
schedules the first wake.

Handlers are synchronous protocol code. Because the loop is single
threaded, only one handler runs at a time; concurrency here is the
*interleaving* of node tasks, not parallelism — and whenever the
monitor in :meth:`AioCluster.run` holds the loop no handler is
mid-flight, so the host's ``unprocessed`` count needs no lock.

This module is the substrate only; deploy onto it through the scenario
API (:mod:`repro.scenario`, ``runtime="asyncio"``) rather than wiring
nodes by hand.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.runtime.host import MSG, POLL_S, START, TIMER, NodeEnv, NodeHost
from repro.sim.kernel import ProtocolNode

_STOP = object()


class AioCluster(NodeHost):
    """Hosts protocol nodes as tasks on one asyncio event loop.

    Usage mirrors the threaded cluster: ``add_node`` everything at
    deploy time, then :meth:`run`, which owns the loop's whole life.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Unbounded and loop-agnostic until first awaited — safe to
        #: create (and ``put_nowait`` into) before the loop exists.
        self._inboxes: dict[str, asyncio.Queue] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.TimerHandle | None = None
        self._wake_at = 0.0

    def add_node(self, node_id: Any, node: ProtocolNode,
                 host: str | None = None) -> NodeEnv:
        self._inboxes[str(node_id)] = asyncio.Queue()
        return super().add_node(node_id, node)

    def run(self, settled: Callable[[], bool], budget_s: float) -> None:
        """Run a fresh loop until ``settled()`` or the budget elapses."""
        asyncio.run(self._drive(settled, budget_s))

    async def _drive(self, settled: Callable[[], bool], budget_s: float) -> None:
        # The one sanctioned loop acquisition in this module: the
        # substrate boundary pins the driving loop, restarts the
        # env.now_us clock and wakes for any deploy-time timers.
        # Protocol code above this line never touches the loop — DET006
        # keeps that structural.
        loop = asyncio.get_running_loop()  # analysis: allow(DET006) -- substrate boundary: the cluster owns the loop it runs on
        self._loop = loop
        self.restart_clock()
        self._reschedule()
        deadline = loop.time() + budget_s
        async with asyncio.TaskGroup() as task_group:
            for key in self.nodes:
                task_group.create_task(self._consume(key))
            try:
                while loop.time() < deadline and not settled():
                    await asyncio.sleep(POLL_S)  # analysis: allow(DET006) -- substrate boundary: the monitor's poll, not protocol time
            finally:
                # Settled, out of budget, or settled() raised: either
                # way every consumer must be told to exit or the task
                # group would wait forever.
                self.shutdown()
                for inbox in self._inboxes.values():
                    inbox.put_nowait(_STOP)

    def shutdown(self) -> None:
        """Idempotent release: disarm timers; tasks die with the loop."""
        self.timers.clear()
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    # -- events -----------------------------------------------------------

    async def _consume(self, key: str) -> None:
        inbox = self._inboxes[key]
        item, left = (START, None, None), 0
        while item is not _STOP:
            left = self.handle(key, item, left, inbox.qsize)
            self.unprocessed -= 1
            item = await inbox.get()

    def post(self, src: str, dst: str, msg: Any) -> None:
        if dst in self.dropped or src in self.dropped:
            return
        inbox = self._inboxes.get(dst)
        if inbox is not None:
            inbox.put_nowait((MSG, src, msg))
            self.unprocessed += 1

    # -- timers -----------------------------------------------------------

    def arm_timer(self, node: str, tag: Any, delay_us: int) -> float:
        deadline = super().arm_timer(node, tag, delay_us)
        if self._wake is None or deadline < self._wake_at:
            self._reschedule()
        return deadline

    def _reschedule(self) -> None:
        """Keep the one wake at the heap's earliest live deadline."""
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        deadline = self.timers.next_deadline()
        if deadline is not None and self._loop is not None:
            self._wake_at = deadline
            self._wake = self._loop.call_later(
                self.until(deadline), self._fire_due
            )

    def _fire_due(self) -> None:
        self._wake = None
        for key, tag in self.due_timers():
            inbox = self._inboxes.get(key)
            if inbox is not None and key not in self.dropped:
                inbox.put_nowait((TIMER, None, tag))
                self.unprocessed += 1
        self._reschedule()
