"""The in-process real-clock substrates: threaded and asyncio.

``InProcessRuntime`` executes the same :class:`~repro.scenario.spec
.ScenarioSpec` the simulator runs, on a :mod:`repro.runtime` scheduler:
:class:`ThreadedRuntime` on the :class:`~repro.runtime.cluster
.ThreadedCluster` (one consumer thread per voter/driver, messages
racing through thread-safe mailboxes), :class:`repro.scenario.aio
.AsyncioRuntime` on the :class:`~repro.runtime.aio.AioCluster` (every
node a task on one event loop). Deployment and metrics are the deploy
loop every in-process substrate shares (:mod:`repro.scenario.local`);
this module adds the scheduler, the wall clock and the *settled*
predicate. There is no modelled network — latency parameters in the
spec are ignored (real queues are the network) — and ``link`` faults
are rejected as unsupported (they parameterise the modelled network,
which only the simulator has). ``crash`` faults map to ``drop_node`` on the
replica's voter/driver pair; ``byzantine``, ``delay``, ``partition``,
and ``restart`` faults run through the same :class:`repro.faults
.FaultInjector` hooks as every other substrate.

``run`` hands the scheduler one *settled* predicate and parks until it
holds or the wall-clock budget elapses, then reports the same
:class:`~repro.scenario.runtime.ScenarioMetrics` shape as every other
substrate.
"""

from __future__ import annotations

import time

from repro.perpetual.voter import driver_name
from repro.runtime.cluster import ThreadedCluster
from repro.scenario.local import LocalRuntime
from repro.scenario.spec import ScenarioSpec

#: A driver's first-attempt retransmission timeout on the in-process
#: substrates. The simulator and the process workers keep the driver's
#: own default (``perpetual.driver.RETRANSMIT_TIMEOUT_US``, 250 ms); the
#: in-process value is 100 ms, and the ``failover``/``echo_window``
#: benchmark numbers depend on it, so aligning the two is a separate,
#: measured change.
IN_PROCESS_RETRANSMIT_TIMEOUT_US = 100_000


class InProcessRuntime(LocalRuntime):
    """Executes scenarios on one real-clock scheduler inside this process."""

    unsupported_faults = ("link",)
    retransmit_timeout_us = IN_PROCESS_RETRANSMIT_TIMEOUT_US

    def __init__(self) -> None:
        super().__init__()
        self.cluster = None
        self._epoch = 0.0

    def _make_cluster(self):
        """The scheduler to deploy onto (the subclasses' one decision)."""
        raise NotImplementedError

    def _node_table(self, spec: ScenarioSpec):
        self.cluster = self._make_cluster()
        return self.cluster

    def _crash(self, node: str) -> None:
        self.cluster.drop_node(node)

    def _settled(self) -> bool:
        """Nothing unprocessed, nothing armed, no out-call in flight.

        An empty mailbox alone is not completion: a crashed primary
        leaves progress waiting on view-change timers, and timer-driven
        workloads (TPC-W think times) idle between self-scheduled events
        — both with empty mailboxes for seconds. ``idle()`` is exact (a
        handler mid-run and a timer on its way to a mailbox both count
        as unprocessed), and once it holds no driver can change, so
        reading ``in_flight_calls`` after it is race-free.
        """
        dropped = self.cluster.dropped
        return self.cluster.idle() and all(
            drv.in_flight_calls == 0
            for name, group in self._groups.items()
            for index, drv in enumerate(group.drivers)
            if driver_name(name, index) not in dropped
        )

    def _run_for(self, seconds: float) -> None:
        self._epoch = time.monotonic()
        self.cluster.run(self._settled, seconds)

    def _clock(self) -> tuple[int, int]:
        elapsed_us = int((time.monotonic() - self._epoch) * 1_000_000)
        return max(elapsed_us, 0), 0

    def errors(self) -> list[BaseException]:
        """Exceptions raised inside node handlers."""
        return self.cluster.errors()

    def shutdown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None


class ThreadedRuntime(InProcessRuntime):
    """Executes scenarios on real threads with racy interleavings."""

    name = "threaded"

    def __init__(self, debug_locks: bool = False) -> None:
        super().__init__()
        #: Lock sanitizer (repro.runtime.sanitizer): wrap the cluster's
        #: shared structures in assert-owner proxies so the static
        #: guarded-by annotations are checked on every mutation.
        self.debug_locks = debug_locks

    def _make_cluster(self) -> ThreadedCluster:
        return ThreadedCluster(debug_locks=self.debug_locks)
