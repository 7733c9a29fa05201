"""The asyncio substrate: scenarios as node tasks on one event loop.

``AsyncioRuntime`` is the :class:`~repro.scenario.threaded
.InProcessRuntime` over the :class:`~repro.runtime.aio.AioCluster`:
every voter and driver is a consumer task with an ``asyncio.Queue``
inbox — the single-loop replica design (see the flexible-BFT excerpt in
SNIPPETS.md) that scales past the thread-per-node substrate at high
node counts. Deployment, faults, batching flush hooks, the settled
predicate and metrics are the shared in-process code; only the
scheduler differs, and its ``run`` owns the event loop (``asyncio.run``
for the length of the scenario).
"""

from __future__ import annotations

from repro.runtime.aio import AioCluster
from repro.scenario.threaded import InProcessRuntime


class AsyncioRuntime(InProcessRuntime):
    """Executes scenarios as node tasks on one asyncio event loop."""

    name = "asyncio"

    # No lock sanitizer here: the loop is single threaded, so there is
    # nothing for assert-owner proxies to catch.
    def _make_cluster(self) -> AioCluster:
        return AioCluster()
