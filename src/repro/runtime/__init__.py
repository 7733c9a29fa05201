"""The real-clock node host and its schedulers.

This package hosts the *same protocol nodes* the simulator runs on real
clocks, demonstrating that the sans-IO protocol layer is
substrate-independent (the ChannelAdapter / Connection split of paper
section 2.1.2). :mod:`repro.runtime.host` holds, once, what every such
substrate needs — the eight-method node environment, one timer heap,
the start/handle/flush/record-error step and the exact unprocessed-event
count; a scheduler adds only a mailbox type and what blocks:
:mod:`repro.runtime.cluster` (OS threads — messages race, timers fire
asynchronously, and the protocol must still converge),
:mod:`repro.runtime.aio` (tasks on one asyncio loop), and the worker
loop of :mod:`repro.scenario.process` (one OS process per replica).

Deployments should not wire these by hand: build a
:class:`repro.scenario.ScenarioSpec` and execute it with
``run_scenario(spec, runtime="threaded" | "asyncio" | "process")``.

Contract: shared structures are written under their owning lock or
carry a checked ``guarded-by`` annotation — the LOCK001 discipline of
``docs/analysis.md``, enforced dynamically by
:mod:`repro.runtime.sanitizer` under ``debug_locks=True``.
"""

from repro.runtime.cluster import ThreadedCluster

__all__ = ["ThreadedCluster"]
