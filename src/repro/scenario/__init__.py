"""One scenario API, four substrates.

``repro.scenario`` is the single deployment entry point of the
reproduction: a declarative, JSON-round-trippable
:class:`~repro.scenario.spec.ScenarioSpec` describes services, workload,
network model, crypto cost model, and fault injections once, and any
:class:`~repro.scenario.runtime.Runtime` substrate executes it:

- ``sim``      — the deterministic discrete-event kernel (all figures);
- ``threaded`` — one OS thread per protocol node, racy interleavings;
- ``asyncio``  — every protocol node a task on one event loop;
- ``process``  — one OS process per voter/driver pair, fused-codec
  envelopes over pipes or localhost TCP (real parallelism).

The first three share one deploy loop (:mod:`repro.scenario.local`).

Typical use::

    from repro.scenario import ScenarioBuilder, run_scenario

    spec = (
        ScenarioBuilder("demo")
        .service("target", n=4, app="echo")
        .service("caller", n=4, app="sync_caller",
                 target="target", total_calls=10)
        .build()
    )
    metrics = run_scenario(spec, runtime="process")

The figure generators, the TPC-W harness, the demos, and
``python -m repro.experiments run`` are all thin consumers of the presets
in :mod:`repro.scenario.presets`.

The spec schema, presets, fault kinds, and the ``batching`` knob are
documented in ``docs/scenarios.md``; substrate placement in the layer
map of ``docs/architecture.md``.
"""

from repro.scenario.apps import (
    BuiltApp,
    app_kinds,
    build_app,
    register_app,
    register_cost_model,
    resolve_cost_model,
)
from repro.scenario.runtime import (
    RUNTIME_NAMES,
    Runtime,
    ScenarioMetrics,
    ServiceMetrics,
    get_runtime,
    run_scenario,
)
from repro.scenario.spec import (
    AppSpec,
    FaultSpec,
    GroupSpec,
    NetworkSpec,
    RoutingSpec,
    ScenarioBuilder,
    ScenarioSpec,
    ServiceDecl,
)

__all__ = [
    "AppSpec",
    "BuiltApp",
    "FaultSpec",
    "GroupSpec",
    "NetworkSpec",
    "RoutingSpec",
    "RUNTIME_NAMES",
    "Runtime",
    "ScenarioBuilder",
    "ScenarioMetrics",
    "ScenarioSpec",
    "ServiceDecl",
    "ServiceMetrics",
    "app_kinds",
    "build_app",
    "get_runtime",
    "register_app",
    "register_cost_model",
    "resolve_cost_model",
    "run_scenario",
]
